"""Definition files and command lists of the three benchmark workloads.

Every workload is a fixed list of structures: which group, which functor,
which factors an assembly is built from.  The seed only changes how each
input is presented: it relabels the elements of every group (the identity
stays at 0), which renumbers the subgroups and reorders every table built
over the group.  So two seeds give different files that cost the program
about the same work, and the expected answers (pass or fail, identity
counts, factor classes, isomorphic or not) hold for every seed.  The
isomorphism search tries candidates in label order, so its cost still
moves a little from seed to seed.

Groups are written out here from permutations or formulas, not taken from
``tambara``.  Explicit-table functors are built with ``tambara``'s own
constructors and serializer, because those are the reference this repo has
for coinduction and products; the provenance block in every result records
the SHA-256 of each generated file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# -- groups, written independently of the package ----------------------


def _perm_group(gens: Sequence[Tuple[int, ...]]):
    n = len(gens[0])
    ident = tuple(range(n))
    elements, frontier = [ident], [ident]
    seen = {ident}
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(n))
                if r not in seen:
                    seen.add(r)
                    elements.append(r)
                    nxt.append(r)
        frontier = nxt
    return elements, lambda p, q: tuple(p[q[i]] for i in range(n))


def _quat_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _base_group(name: str):
    """(elements, multiplication) with the identity first."""
    if name[0] == "C":
        n = int(name[1:])
        return list(range(n)), lambda a, b: (a + b) % n
    if name == "V4":
        return [(0, 0), (1, 0), (0, 1), (1, 1)], lambda a, b: (a[0] ^ b[0], a[1] ^ b[1])
    if name == "S3":
        return _perm_group([(1, 0, 2), (1, 2, 0)])
    if name == "A4":
        return _perm_group([(1, 2, 0, 3), (1, 0, 3, 2)])
    if name == "D4":
        return _perm_group([(1, 2, 3, 0), (0, 3, 2, 1)])
    if name == "Q8":
        units = [(1, 0, 0, 0)] + [tuple(s if k == i else 0 for k in range(4))
                                  for i in range(4) for s in (1, -1)
                                  if (i, s) != (0, 1)]
        return units, _quat_mul
    raise ValueError(f"unknown group {name}")


class Presented:
    """A group from ``_base_group`` with its elements relabeled by the seed."""

    def __init__(self, name: str, rng: random.Random) -> None:
        elements, op = _base_group(name)
        n = len(elements)
        perm = [0] + rng.sample(range(1, n), n - 1)
        self.name = name
        self.index = {e: perm[i] for i, e in enumerate(elements)}
        self.table = [[0] * n for _ in range(n)]
        for a, b in iproduct(elements, repeat=2):
            self.table[self.index[a]][self.index[b]] = self.index[op(a, b)]

    @property
    def order(self) -> int:
        return len(self.table)

    def subgroup(self, gens: Sequence) -> Tuple[int, ...]:
        """Element indices of the subgroup generated by base elements."""
        return closure(self.table, [self.index[g] for g in gens])

    def doc(self) -> dict:
        return {"name": self.name, "table": self.table}


def closure(table: List[List[int]], gens: Sequence[int]) -> Tuple[int, ...]:
    """The subgroup generated by gens, as a sorted element tuple."""
    els, frontier = {0}, list(gens)
    while frontier:
        x = frontier.pop()
        if x not in els:
            els.add(x)
            frontier += [table[x][y] for y in els] + [table[y][x] for y in els]
    return tuple(sorted(els))


def all_subgroups(table: List[List[int]]) -> List[Tuple[int, ...]]:
    """Every subgroup (all groups used here are generated by two elements)."""
    n = len(table)
    return sorted({closure(table, (a, b)) for a in range(n) for b in range(a, n)})


def double_coset_count(table: List[List[int]], H: Sequence[int], K: Sequence[int]) -> int:
    seen, count = set(), 0
    for g in range(len(table)):
        if g not in seen:
            count += 1
            seen.update(table[table[h][g]][k] for h in H for k in K)
    return count


def coinduced_sizes(table, factors: Sequence[Tuple[Sequence[int], int]],
                    subs: Sequence[Tuple[int, ...]]) -> List[list]:
    """Level sizes of the product of Coind_H(constant field of size q) over
    (H, q) pairs, at each subgroup K in subs: the product of q to the
    number of double cosets H\\G/K."""
    out = []
    for K in subs:
        size = 1
        for H, q in factors:
            size *= q ** double_coset_count(table, H, K)
        out.append([list(K), size])
    return out


def conjugacy_class(table: List[List[int]], elements: Sequence[int]) -> frozenset:
    """The conjugacy class of a subgroup, as a set of element sets."""
    n = len(table)
    inv = [next(b for b in range(n) if table[a][b] == 0) for a in range(n)]
    return frozenset(frozenset(table[table[g][a]][inv[g]] for a in elements)
                     for g in range(n))


# -- commands and their expected answers ---------------------------------


@dataclass
class Command:
    """One CLI invocation and the answer it must give.

    ``expect`` holds what the oracle compares: for check, the axiom
    ``family`` it must fail (None for PASS), the exact ``failing`` families
    and the identity ``counts``; for decompose, the conjugacy ``classes`` of
    the factors and the ``out`` file; for iso, whether ``iso`` holds.
    """

    kind: str
    argv: List[str]
    expect: dict = field(default_factory=dict)


FAMILIES = ("contracts", "conjugation", "mackey_additive", "mackey_norm",
            "frobenius", "exponential")

# Identity counts that ``check`` prints for each passing input, per family
# in FAMILIES order.  They depend on the structure, not on the labels, so
# they hold for every seed.
EXPECTED_COUNTS: Dict[str, Tuple[int, ...]] = {
    "burnside_V4_mod3.json": (117, 235, 38, 38, 66672, 334),
    "burnside_S3_mod6.json": (147, 502, 53, 53, 20988, 1419),
    "burnside_C4_mod8.json": (57, 127, 14, 14, 22848, 1211),
    "burnside_C3_mod9.json": (27, 49, 5, 5, 1053, 91),
    "burnside_C6_mod4.json": (87, 318, 25, 25, 6320, 413),
    "burnside_C2_mod4.json": (27, 29, 5, 5, 112, 21),
    "coind_A4_C3_F2.json": (312, 2555, 154, 154, 972, 2782),
    "coind_D4_C2_F2.json": (372, 1487, 180, 180, 1708, 4036),
    "coind_D4_C4_F3.json": (372, 1487, 180, 180, 936, 1551),
    "burnside_Q8_mod2.json": (192, 839, 68, 68, 72, 98),
    "coind_Q8_C4_F3.json": (192, 839, 68, 68, 720, 999),
    "assembly_C4.json": (57, 127, 14, 14, 70992, 132115),
    "assembly_S3.json": (147, 502, 53, 53, 321008, 1318065),
    "assembly_C8.json": (102, 511, 30, 30, 60736, 84006),
    "assembly_V4.json": (117, 235, 38, 38, 91072, 266327),
}


def _counts(name: str) -> Dict[str, int]:
    return dict(zip(FAMILIES, EXPECTED_COUNTS[name]))


# -- functors built with the package -------------------------------------


def _core(ring: str, Hg):
    """A clarified functor over the group Hg: a constant field, or F4 with
    Frobenius acting through the non-identity element of Hg (order 2)."""
    from tambara.functors import constant_functor, fixed_point_functor
    from tambara.rings import GRing, fq, frobenius

    if ring == "F4gal":
        F4 = fq(4)
        rows = [np.arange(4) if g == 0 else frobenius(F4) for g in Hg.elements()]
        return fixed_point_functor(GRing(F4, Hg, np.array(rows)))
    return constant_functor(fq(int(ring[1:])), Hg)


def group_of(P: Presented):
    from tambara.groups import FiniteGroup

    return FiniteGroup(P.table, name=P.name)


def assembly(G, P: Presented, factors: Sequence[Tuple[Sequence, str]]):
    """The product of Coind_H(core) over (generators of H, ring) pairs."""
    from tambara.functors import coinduce, product

    T = None
    for gens, ring in factors:
        H = G.subgroup(P.subgroup(gens))
        part = coinduce(G, H, _core(ring, H.as_group[0]))
        T = part if T is None else product(T, part)
    return T


def mutate(T, recipe: str):
    """A copy of T with one structure map broken, at the pair (e, G).

    conjugation: swap two values of a conjugation on the top level;
    mackey_additive: double the transfer; mackey_norm: square the norm;
    frobenius: the diagonal transfer of the two-level Green counterexample
    over C2 with F2 x F2 on top (T must be that functor).
    """
    from tambara.functors import TambaraData

    G = T.group
    e, full = G.trivial_subgroup, G.full_subgroup
    top = T.levels[full]
    tr, conj = dict(T.tr), dict(T.conj)
    nm = None if T.nm is None else dict(T.nm)
    if recipe == "conjugation":
        g = full.elements[1]
        c = conj[(g, full)].copy()
        c[[0, 1]] = c[[1, 0]]
        conj[(g, full)] = c
    elif recipe == "mackey_additive":
        tr[(e, full)] = top.add[tr[(e, full)], tr[(e, full)]]
    elif recipe == "mackey_norm":
        nm[(e, full)] = top.mul[nm[(e, full)], nm[(e, full)]]
    elif recipe == "frobenius":
        tr[(e, full)] = np.array([(int(t) // 2) * 3 for t in tr[(e, full)]])
    else:
        raise ValueError(recipe)
    return TambaraData(G, T.levels, T.res, tr, nm, conj, has_norms=T.has_norms,
                       label=f"{T.label}/{recipe}")


class Writer:
    """Writes definition files into one directory and remembers them."""

    def __init__(self, workdir: str, seed: int, workload: str) -> None:
        self.workdir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: Dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def group(self, name: str) -> Presented:
        return Presented(name, self.rng)

    def doc(self, name: str, doc: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
        self.files[name] = path
        return path

    def tables(self, name: str, T) -> str:
        """T as explicit tables."""
        from tambara import serialize

        return self.doc(name, serialize.functor_to_json(T))

    def shorthand(self, name: str, P: Presented, body: dict) -> str:
        return self.doc(name, {"schema": 1, "group": P.doc(), **body})


# -- the command lists --------------------------------------------------


def _check(w: Writer, name: str, family: Optional[str] = None,
           failing: Sequence[str] = ()) -> Command:
    expect = {"family": family, "failing": sorted(failing) if family else [],
              "counts": None if family else _counts(name)}
    return Command("check", ["check", w.files[name]], expect)


def _decompose(w: Writer, name: str, classes: List[frozenset]) -> Command:
    out = w.path(name.replace(".json", ".decomposed.json"))
    return Command("decompose", ["decompose", w.files[name], "--out", out],
                   {"classes": classes, "out": out})


def _iso(a: str, b: str, iso: bool) -> Command:
    return Command("iso", ["iso", a, b], {"iso": iso})


def _not_iso_pair(w: Writer, P: Presented) -> Command:
    """The constant functors of Z/4 and F2 x F2: equal level sizes, and no
    isomorphism, so the search must exhaust its candidates."""
    trivial = [[0, 1, 2, 3]] * P.order
    a = w.shorthand("noiso_Z4.json", P, {"fp": {
        "ring": {"kind": "Zn", "n": 4}, "action": trivial}})
    b = w.shorthand("noiso_F2xF2.json", P, {"fp": {
        "ring": {"kind": "product", "factors": [{"kind": "Fq", "q": 2}] * 2},
        "action": trivial}})
    return _iso(a, b, False)


def _full_class(P: Presented) -> frozenset:
    return conjugacy_class(P.table, range(P.order))


BURNSIDE_INPUTS = [("C4", 9), ("V4", 3), ("S3", 6), ("C4", 8), ("C3", 9), ("C6", 4)]
# Every load of C4 mod 9 re-runs burnside_mod (3 s on the 2-CPU machine the
# benchmark was tuned on), so it is only decomposed, which also writes the
# 4 MB output; check, lewis (chain lattices) and iso (against the input's
# own decomposition) run on the others.
CHECK_INPUTS = set(BURNSIDE_INPUTS) - {("C4", 9)}
LEWIS_INPUTS = {("C4", 8), ("C3", 9)}
ISO_INPUTS = {("C4", 8), ("V4", 3), ("S3", 6)}


def burnside(w: Writer) -> List[Command]:
    """Mod-N Burnside shorthand files: decompose (one factor, at G), check,
    lewis on two chain lattices, iso of three inputs against their
    decompositions."""
    from tambara import serialize

    cmds, later = [], []
    for gname, N in BURNSIDE_INPUTS:
        P = w.group(gname)
        name = f"burnside_{gname}_mod{N}.json"
        w.shorthand(name, P, {"burnside": {"mod": N}})
        if (gname, N) in CHECK_INPUTS:
            cmds.append(_check(w, name))
        dec = _decompose(w, name, [_full_class(P)])
        later.append(dec)
        if (gname, N) in LEWIS_INPUTS:
            later.append(Command("lewis", ["lewis", w.files[name]]))
        if (gname, N) in ISO_INPUTS:
            later.append(_iso(w.files[name], dec.expect["out"], True))
    # a squared norm on Burnside(C2) mod 4 breaks only the exponential formula
    for gname, N, recipe, family in [("C2", 4, "mackey_norm", "exponential"),
                                     ("C3", 3, "conjugation", "conjugation")]:
        P = w.group(gname)
        T = serialize.parse_functor_body({"burnside": {"mod": N}}, group_of(P))
        name = f"broken_{family}_burnside_{gname}_mod{N}.json"
        w.tables(name, mutate(T, recipe))
        later.append(_check(w, name, family, [family]))
    later.append(_not_iso_pair(w, w.group("C4")))
    return cmds + later


LATTICE_INPUTS = [
    # (group, generators of H, ring); None means the Burnside functor mod 2
    ("A4", [(1, 2, 0, 3)], "F2"),
    ("D4", [(2, 3, 0, 1)], "F2"),
    ("D4", [(1, 2, 3, 0)], "F3"),
    ("Q8", None, None),
    ("Q8", [(0, 1, 0, 0)], "F3"),
]


def lattice(w: Writer) -> List[Command]:
    """Groups of order 8 and 12 with small level rings: the work is in the
    subgroup lattice and the exponential-diagram G-sets, not in ring size."""
    cmds, later = [], []
    for gname, gens, ring in LATTICE_INPUTS:
        P = w.group(gname)
        if gens is None:
            name = f"burnside_{gname}_mod2.json"
            w.shorthand(name, P, {"burnside": {"mod": 2}})
            classes = [_full_class(P)]
        else:
            order = len(P.subgroup(gens))
            name = f"coind_{gname}_C{order}_{ring}.json"
            w.tables(name, assembly(group_of(P), P, [(gens, ring)]))
            classes = [conjugacy_class(P.table, P.subgroup(gens))]
        cmds.append(_check(w, name))
        dec = _decompose(w, name, classes)
        later += [dec, _iso(w.files[name], dec.expect["out"], True)]
    P = w.group("D4")
    T = assembly(group_of(P), P, [([(1, 2, 3, 0)], "F3")])
    for recipe, failing in [("conjugation", ["conjugation"]),
                            ("mackey_additive", ["contracts", "exponential", "mackey_additive"])]:
        name = f"broken_{recipe}_coind_D4_C4_F3.json"
        w.tables(name, mutate(T, recipe))
        later.append(_check(w, name, recipe, failing))
    later.append(_not_iso_pair(w, P))
    return cmds + later


TABLES_INPUTS = [
    ("C4", [([], "F2"), ([2], "F4gal")]),
    ("S3", [([], "F2"), ([(1, 0, 2)], "F2")]),
    ("C8", [([4], "F2"), ([2], "F2"), ([1], "F2")]),
    ("V4", [([], "F2"), ([(1, 0)], "F2"), ([(0, 1)], "F2")]),
]


def _sizes_command(kind: str, w: Writer, path: str, flag: str, ident: str,
                   suffix: str, sizes: List[list]) -> Command:
    out = path.replace(".json", f".{suffix}.json")
    return Command(kind, [kind, path, flag, ident, "--out", out],
                   {"sizes": sizes, "out": out})


def tables(w: Writer) -> List[Command]:
    """Explicit-table products of coinductions of clarified factors, with
    bottom rings of 128 to 512 elements: the work scales with ring size.
    Also one each of decompose --lambda, restrict and coinduce, whose
    expected level sizes are counted from double cosets."""
    from tambara import serialize
    from tambara.functors import green_counterexample
    from tambara.rings import fq

    cmds, later = [], []
    for gname, factors in TABLES_INPUTS:
        P = w.group(gname)
        G = group_of(P)
        name = f"assembly_{gname}.json"
        T = assembly(G, P, factors)
        path = w.tables(name, T)
        cmds.append(_check(w, name))
        subs = [P.subgroup(gens) for gens, _ in factors]
        dec = _decompose(w, name, [conjugacy_class(P.table, H) for H in subs])
        later += [dec, _iso(path, dec.expect["out"], True)]
        ident = serialize.subgroup_id(G, G.subgroup(subs[1]))
        if gname == "S3":
            # clarify at the upward closure of the second factor's subgroup,
            # which keeps exactly that factor (all S3 factors are over F2)
            sizes = coinduced_sizes(P.table, [(subs[1], 2)], all_subgroups(P.table))
            later.append(_sizes_command("decompose", w, path, "--lambda", ident,
                                        "clarified", sizes))
        if gname == "V4":
            below = [K for K in all_subgroups(P.table) if set(K) <= set(subs[1])]
            sizes = coinduced_sizes(P.table, [(H, 2) for H in subs], below)
            later.append(_sizes_command("restrict", w, path, "--to", ident, "res", sizes))
            body = w.shorthand("body_F3_over_C2_V4.json", P, {"fp": {
                "ring": {"kind": "Fq", "q": 3}, "action": [[0, 1, 2]] * len(subs[1])}})
            sizes = coinduced_sizes(P.table, [(subs[1], 3)], all_subgroups(P.table))
            later.append(_sizes_command("coinduce", w, body, "--from", ident, "coind", sizes))
            name = "broken_mackey_additive_assembly_V4.json"
            w.tables(name, mutate(T, "mackey_additive"))
            later.append(_check(w, name, "mackey_additive",
                                ["contracts", "exponential", "mackey_additive"]))
    name = "broken_frobenius_green_C2.json"
    w.tables(name, mutate(green_counterexample(2, fq(2)), "frobenius"))
    later.append(_check(w, name, "frobenius", ["frobenius"]))
    later.append(_not_iso_pair(w, w.group("C4")))
    return cmds + later


def smoke(w: Writer) -> List[Command]:
    """Every command kind on inputs over C2, for the smoke test."""
    P = w.group("C2")
    name = "burnside_C2_mod4.json"
    w.shorthand(name, P, {"burnside": {"mod": 4}})
    dec = _decompose(w, name, [_full_class(P)])
    G = group_of(P)
    broken = "broken_conjugation_coind_C2_e_F3.json"
    w.tables(broken, mutate(assembly(G, P, [([], "F3")]), "conjugation"))
    return [_check(w, name), dec, Command("lewis", ["lewis", w.files[name]]),
            _iso(w.files[name], dec.expect["out"], True),
            _check(w, broken, "conjugation", ["conjugation"]), _not_iso_pair(w, P)]


WORKLOADS = {"burnside": burnside, "lattice": lattice, "tables": tables, "smoke": smoke}


def generate(workload: str, seed: int, workdir: str) -> Tuple[Dict[str, str], List[Command]]:
    """Write the workload's definition files into workdir; return them and
    the command list, in the order the closed loop issues the commands."""
    w = Writer(workdir, seed, workload)
    commands = WORKLOADS[workload](w)
    return w.files, commands
