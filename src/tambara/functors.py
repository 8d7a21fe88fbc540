"""Levelwise Mackey, Green, and Tambara functors.

A TambaraData stores one finite ring per subgroup (all subgroups, not just
conjugacy representatives) together with restriction, transfer, norm, and
conjugation tables along subgroup inclusions.  Values on arbitrary finite
G-sets and maps between them come from orbit factorization (eval_along),
which extends the stored generators in the unique product-preserving way.

Nothing here assumes the data satisfies the axioms: construction checks
shapes only, and check_axioms verifies everything exhaustively, so broken
mutation fixtures can be represented and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement, groupby, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _search
from .errors import (
    DefinitionError,
    GroupMismatch,
    NoNorms,
    SizeLimitExceeded,
    VerificationFailed,
)
from .groups import FiniteGroup, Subgroup, double_cosets, subgroups
from .gsets import (
    ExponentialDiagram,
    GSet,
    GSetMap,
    Orbit,
    coset_gset,
    dependent_product,
    disjoint_union,
    orbit_decomposition,
)
from .rings import (
    FiniteRing,
    GRing,
    coinduce_gring,
    hom_failure,
    is_additive,
    op_failure,
    prod_components,
    prod_encode,
    product_ring,
    range_failure,
    subring,
    trivial_gring,
    zero_ring,
)


def map_kinds(has_norms: bool) -> Tuple[str, ...]:
    """The structure maps along each subgroup inclusion: res and tr, and nm
    when the functor has norms."""
    return ("res", "tr", "nm") if has_norms else ("res", "tr")


def structure_maps(G: FiniteGroup, has_norms: bool
                   ) -> Iterator[Tuple[str, tuple, Subgroup, Subgroup]]:
    """Every structure table of a functor over G as (name, key, source
    level, target level): for each pair K <= H in subgroup_pairs order,
    each of map_kinds, keyed (K, H): res (H -> K), tr and nm (K -> H);
    then for each g, for each H, conj (H -> gHg^-1), keyed (g, H)."""
    for K, H in G.subgroup_pairs:
        for name in map_kinds(has_norms):
            yield (name, (K, H), H, K) if name == "res" else (name, (K, H), K, H)
    subs = subgroups(G)
    for g in G.elements():
        for H in subs:
            yield "conj", (g, H), H, H.conjugate(g)


def _fold(R: FiniteRing, kind: str) -> Tuple[np.ndarray, int]:
    """What transfers (add, 0) or norms (mul, 1) fold with in R."""
    return (R.add, R.zero) if kind == "tr" else (R.mul, R.one)


def _where(name: str, key: tuple) -> str:
    """Where a structure map sits, as error messages name it."""
    a, H = key
    return f"g={a}, H={H.elements}" if name == "conj" else f"{a.elements}<={H.elements}"


class TambaraData:
    """A Green functor (has_norms=False) or Tambara functor (True).

    levels: Subgroup -> FiniteRing, for every subgroup.
    res[(K,H)]: level(H) -> level(K) for K <= H, as an index table.
    tr[(K,H)]:  level(K) -> level(H).
    nm[(K,H)]:  level(K) -> level(H), only when has_norms.
    conj[(g,H)]: level(H) -> level(gHg^-1).
    """

    def __init__(self, group: FiniteGroup, levels, res, tr, nm, conj,
                 has_norms: bool, label: str = "T") -> None:
        self.group = group
        self.levels: Dict[Subgroup, FiniteRing] = dict(levels)
        self.res = {k: np.asarray(v, dtype=np.int32) for k, v in res.items()}
        self.tr = {k: np.asarray(v, dtype=np.int32) for k, v in tr.items()}
        self.nm = None if nm is None else {k: np.asarray(v, dtype=np.int32) for k, v in nm.items()}
        self.conj = {k: np.asarray(v, dtype=np.int32) for k, v in conj.items()}
        self.has_norms = bool(has_norms)
        self.label = label
        if self.has_norms and self.nm is None:
            raise DefinitionError("has_norms requires norm tables")
        if not self.has_norms:
            self.nm = None
        self._shape_check()

    # -- structural bookkeeping ---------------------------------------

    @classmethod
    def build(cls, group: FiniteGroup, levels, table, has_norms: bool,
              label: str = "T") -> "TambaraData":
        """The functor whose structure map (name, key) from level src to
        level dst is table(name, key, src, dst), called in the order of
        structure_maps."""
        tables = {"res": {}, "tr": {}, "nm": {}, "conj": {}}
        for name, key, src, dst in structure_maps(group, has_norms):
            tables[name][key] = table(name, key, src, dst)
        return cls(group, levels, tables["res"], tables["tr"],
                   tables["nm"] if has_norms else None, tables["conj"],
                   has_norms=has_norms, label=label)

    def _shape_check(self) -> None:
        """Every table is present, has one entry per source element and
        lands in the target level."""
        for s in subgroups(self.group):
            if s not in self.levels:
                raise DefinitionError(f"missing level for subgroup {s.elements}")
        tables = [(name, key, getattr(self, name).get(key), src, dst)
                  for name, key, src, dst in structure_maps(self.group, self.has_norms)]
        for name, key, t, src, _ in tables:
            if t is None or t.shape != (self.levels[src].size,):
                raise DefinitionError(f"{name} table missing/misshaped for {_where(name, key)}")
        # all entries at once, each against the size of its table's target
        lengths = [len(t) for _, _, t, _, _ in tables]
        entries = np.concatenate([t for _, _, t, _, _ in tables])
        limits = np.repeat([self.levels[dst].size for *_, dst in tables], lengths)
        bad = np.flatnonzero((entries < 0) | (entries >= limits))
        if bad.size:
            name, key = tables[np.searchsorted(np.cumsum(lengths), bad[0], side="right")][:2]
            raise DefinitionError(f"{name} table out of range for {_where(name, key)}")

    def table(self, name: str, key) -> np.ndarray:
        """The structure map (name, key) as listed by structure_maps."""
        return getattr(self, name)[key]

    @property
    def bottom(self) -> FiniteRing:
        return self.levels[self.group.trivial_subgroup]

    def bottom_gring(self) -> GRing:
        """Level G/e with its Weyl action (the conjugation maps)."""
        e = self.group.trivial_subgroup
        rows = [self.conj[(g, e)] for g in self.group.elements()]
        return GRing(self.bottom, self.group, np.array(rows))

    def is_zero(self) -> bool:
        return all(r.is_zero_ring() for r in self.levels.values())

    def __repr__(self) -> str:
        kind = "Tambara" if self.has_norms else "Green"
        return f"TambaraData({self.label}, {kind}, {self.group.name})"


# -- values on arbitrary G-sets ---------------------------------------


@dataclass
class LeveledValue:
    """T's value on an explicit G-set: a product over orbits of level rings."""

    orbits: Sequence[Orbit]
    rings: List[FiniteRing]

    @property
    def sizes(self) -> List[int]:
        return [r.size for r in self.rings]

    def materialize(self) -> FiniteRing:
        if len(self.rings) == 1:
            return self.rings[0]
        return product_ring(self.rings)


def evaluate_gset(T: TambaraData, X: GSet) -> LeveledValue:
    orbits = orbit_decomposition(X)
    rings = [T.levels[o.stabilizer] for o in orbits]
    return LeveledValue(orbits, rings)


@dataclass
class EvalMap:
    """A structure map of T along a G-set map, in orbit components.

    For kind "res" the map goes T(target of f) -> T(source of f); for
    "tr"/"nm" it goes T(source) -> T(target).  Components are index tables
    between level rings, composed from the stored generators.
    """

    kind: str
    source: LeveledValue
    target: LeveledValue
    # per target component, the (source component, table) items it reads:
    # one for res, any number (none gives the unit) for tr and nm
    plan: List[List[Tuple[int, np.ndarray]]]

    def fold(self, cols) -> List[np.ndarray]:
        """One int32 array per target component, of the broadcast shape of
        the source components cols[i] it reads (0-d, the unit, for a
        component with no items).  A component gathers each source
        component it reads once, then combines them, so broadcasting widens
        an array only where two source components meet; a one-item
        component, every res one and most tr and nm ones, is one gather.
        Regrouping the fold so is exact because + and x of a ring commute
        and associate."""
        out = []
        for items, ring in zip(self.plan, self.target.rings):
            table, unit = _fold(ring, self.kind)
            # table[u, v] is flat[u * size + v]; size**2 <= RING_SIZE_CAP**2 < 2**31
            flat = table.ravel()

            def op(u, v):
                return flat.take(u * ring.size + v)
            # the items reading one source component fold into one table of
            # level size; the unit's row of the fold table is the identity
            # (the level is a ring), so a fold starts at its first item
            tables: Dict[int, np.ndarray] = {}
            for i, t in items:
                tables[i] = op(tables[i], t) if i in tables else t
            parts = (t.take(cols[i]) for i, t in tables.items())
            out.append(reduce(op, parts) if tables else np.array(unit, dtype=np.int32))
        return out

    def apply_batch(self, arr: np.ndarray) -> np.ndarray:
        """fold on rows: arr has one row per element and one column per
        source component; the int32 result has one row per element and one
        column per target component, the transpose of a C-order
        (components, elements) buffer."""
        out = np.empty((len(self.plan), arr.shape[0]), dtype=np.int32)
        for col, comp in zip(out, self.fold(arr.T)):
            col[...] = comp
        return out.T


def eval_along(T: TambaraData, f: GSetMap, kind: str) -> EvalMap:
    """Extend the stored generators along an arbitrary map of G-sets.

    Each source orbit factors through a conjugation and a subgroup
    inclusion into its target orbit; transfers add and norms multiply over
    the source orbits hitting a target orbit, with empty preimages giving
    the additive/multiplicative unit.
    """
    if kind == "nm" and not T.has_norms:
        raise NoNorms("norm evaluation on a Green functor")
    if kind not in ("res", "tr", "nm"):
        raise DefinitionError(f"unknown kind {kind!r}")
    X_val = evaluate_gset(T, f.source)
    Y_val = evaluate_gset(T, f.target)
    Y = f.target
    hits = [(Y.orbit_of[f(o.base)], Y.carrier[f(o.base)]) for o in X_val.orbits]
    return _along(T, kind, X_val, Y_val, hits, {})


def _along(T: TambaraData, kind: str, X_val: LeveledValue, Y_val: LeveledValue,
           hits: Sequence[Tuple[int, int]], memo: Dict[tuple, np.ndarray]) -> EvalMap:
    """T's map of this kind along a G-map X -> Y, where source orbit i's
    base maps to carrier u times the base of target orbit j, (j, u) =
    hits[i]: each source orbit factors through its leg into its target
    orbit (_leg, through memo).  A res component reads its one source
    orbit's target orbit; a tr or nm component folds the source orbits
    hitting it, in source order."""
    legs = [(i, j, _leg(T, kind, o.stabilizer, Y_val.orbits[j].stabilizer, u, memo))
            for i, (o, (j, u)) in enumerate(zip(X_val.orbits, hits))]
    if kind == "res":
        return EvalMap(kind, Y_val, X_val, [[(j, t)] for _, j, t in legs])
    plan: List[List[Tuple[int, np.ndarray]]] = [[] for _ in Y_val.orbits]
    for i, j, t in legs:
        plan[j].append((i, t))
    return EvalMap(kind, X_val, Y_val, plan)


def _leg(T: TambaraData, kind: str, A: Subgroup, B: Subgroup, u: int,
         memo: Dict[tuple, np.ndarray]) -> np.ndarray:
    """T's map of this kind along the orbit map G/A -> G/B, gA -> guB
    (u^-1 A u <= B), which is conjugation by u^-1 onto M = u^-1 A u, then
    the inclusion M <= B: res, T(G/B) -> T(G/A), is c_u res_M^B; tr and nm,
    T(G/A) -> T(G/B), are tr_M^B or nm_M^B after c_u^-1.  Composed once per
    (kind, A, B, u) and memo, so equal orbit maps share one table."""
    key = (kind, A, B, u)
    if key not in memo:
        G = T.group
        M = A.conjugate(G.inv(u))
        memo[key] = (T.conj[(u, M)][T.res[(M, B)]] if kind == "res"
                     else T.table(kind, (M, B))[T.conj[(G.inv(u), A)]])
    return memo[key]


# -- morphisms ----------------------------------------------------------


class TambaraMorphism:
    """A levelwise map commuting with res, tr, conj (and nm when present)."""

    def __init__(self, source: TambaraData, target: TambaraData,
                 maps: Dict[Subgroup, Sequence[int]], check: bool = True) -> None:
        if source.group is not target.group:
            raise GroupMismatch("morphism endpoints live over different groups")
        self.source = source
        self.target = target
        self.maps = {K: np.asarray(v, dtype=np.int32) for K, v in maps.items()}
        if check:
            self.validate()

    def validate(self) -> None:
        src, tgt = self.source, self.target
        for H in subgroups(src.group):
            img = self.maps.get(H)
            if img is None or img.shape != (src.levels[H].size,):
                raise DefinitionError(f"missing/misshaped map at level {H.elements}")
            err = (range_failure(img, tgt.levels[H])
                   or hom_failure(img, src.levels[H], tgt.levels[H]))
            if err:
                raise DefinitionError(f"map at level {H.elements} is not a ring map: {err}")
        for name, key, a, b in structure_maps(src.group, src.has_norms and tgt.has_norms):
            if not np.array_equal(self.maps[b][src.table(name, key)],
                                  tgt.table(name, key)[self.maps[a]]):
                raise DefinitionError(f"morphism breaks {name} at {_where(name, key)}")

    def is_isomorphism(self) -> bool:
        return all(len(set(v.tolist())) == self.target.levels[K].size == len(v)
                   for K, v in self.maps.items())

    def inverse(self) -> "TambaraMorphism":
        if not self.is_isomorphism():
            raise DefinitionError("morphism is not a levelwise bijection")
        inv = {}
        for K, v in self.maps.items():
            a = np.zeros(len(v), dtype=np.int32)
            a[v] = np.arange(len(v))
            inv[K] = a
        return TambaraMorphism(self.target, self.source, inv, check=False)

    def compose(self, other: "TambaraMorphism") -> "TambaraMorphism":
        """self after other."""
        maps = {K: self.maps[K][v] for K, v in other.maps.items()}
        return TambaraMorphism(other.source, self.target, maps, check=False)

    def __call__(self, H: Subgroup, x: int) -> int:
        return int(self.maps[H][x])


def identity_morphism(T: TambaraData) -> TambaraMorphism:
    return TambaraMorphism(T, T, {H: np.arange(T.levels[H].size)
                                  for H in subgroups(T.group)}, check=False)


# -- constructors -------------------------------------------------------


def fixed_point_functor(R: GRing, green_only: bool = False,
                        label: Optional[str] = None) -> TambaraData:
    """Levels are the fixed subrings R^H; transfers are coset-orbit sums and
    norms coset-orbit products; conjugation is the action."""
    G = R.group
    n = R.ring.size
    subs = subgroups(G)
    includes: Dict[Subgroup, np.ndarray] = {}
    positions: Dict[Subgroup, np.ndarray] = {}
    levels: Dict[Subgroup, FiniteRing] = {}
    for H in subs:
        fixed = np.arange(n)
        for h in H.elements:
            fixed = fixed[R.action[h][fixed] == fixed]
        includes[H] = fixed.astype(np.int32)
        levels[H], positions[H] = subring(R.ring, includes[H], R.ring.one,
                                          f"{R.ring.label}^{H.elements}")

    e = G.trivial_subgroup

    def table(name, key, src, dst):
        if name == "res":
            return positions[dst][includes[src]]
        if name == "conj":
            out = positions[dst][R.action[key[0]][includes[src]]]
            if (out < 0).any():
                raise VerificationFailed("conjugation left the fixed subring")
            return out
        # the sum or product over left coset representatives of src in dst:
        # the double cosets e\dst/src
        op, unit = _fold(R.ring, name)
        acc = np.full(len(includes[src]), unit)
        for h, _ in double_cosets(G, e, src, within=dst):
            acc = op[acc, R.action[h][includes[src]]]
        out = positions[dst][acc]
        if (out < 0).any():
            raise VerificationFailed("transfer/norm left the fixed subring")
        return out

    return TambaraData.build(G, levels, table, not green_only,
                             label=label or f"FP({R.ring.label})")


def constant_functor(R: FiniteRing, G: FiniteGroup) -> TambaraData:
    return fixed_point_functor(trivial_gring(R, G), label=f"const({R.label})")


def zero_functor(G: FiniteGroup, has_norms: bool = True) -> TambaraData:
    Z = zero_ring()
    one = np.zeros(1, dtype=np.int32)
    return TambaraData.build(G, {H: Z for H in subgroups(G)}, lambda *_: one,
                             has_norms, label="0")


def product(*factors: TambaraData, label: Optional[str] = None) -> TambaraData:
    """Levelwise product with componentwise structure maps.

    Element indices are C-order over the factors (prod_encode), so the
    product of k factors equals the left fold of binary products, label
    included: "((A x B) x C)" unless label is given.  One factor is its own
    product.
    """
    if not factors:
        raise DefinitionError("need at least one factor")
    first = factors[0]
    for T in factors[1:]:
        if T.group is not first.group:
            raise GroupMismatch("product needs a common group")
        if T.has_norms != first.has_norms:
            raise GroupMismatch("product needs matching norm flags")
    G = first.group
    if len(factors) == 1:
        return first if label is None else _reindex(first, G, G.elements(), label)
    levels = {H: product_ring([T.levels[H] for T in factors]) for H in subgroups(G)}
    sizes = {H: [T.levels[H].size for T in factors] for H in levels}
    comps = {H: prod_components(s) for H, s in sizes.items()}

    def table(name, key, src, dst):
        return prod_encode(sizes[dst], [T.table(name, key)[c]
                                        for T, c in zip(factors, comps[src])])

    nested = reduce(lambda a, b: f"({a} x {b})", (T.label for T in factors))
    return TambaraData.build(G, levels, table, first.has_norms, label or nested)


def _coset_projection(G: FiniteGroup, K1: Subgroup, K2: Subgroup) -> GSetMap:
    """The G-map G/K1 -> G/K2 for K1 <= K2 (identity coset to identity coset)."""
    return GSetMap(coset_gset(G, K1), coset_gset(G, K2),
                   tuple(K2.coset_index[c[0]] for c in K1.left_cosets()))


def _over_subgroup(H: Subgroup, T: TambaraData) -> TambaraData:
    """T keyed over H.as_group; T's group must have the same table."""
    Hg, _ = H.as_group
    if T.group.order != Hg.order or T.group.mul_table != Hg.mul_table:
        raise GroupMismatch("functors live over different groups")
    return T if T.group is Hg else _reindex(T, Hg, Hg.elements(), T.label)


def _reindex(T: TambaraData, K: FiniteGroup, elem: Sequence[int], label: str) -> TambaraData:
    """T read over K along the injective homomorphism i -> elem[i] into
    T.group: the level at S <= K is T's level at the image of S."""
    lift = {S: T.group.subgroup(elem[i] for i in S.elements) for S in subgroups(K)}

    def table(name, key, src, dst):
        a, S = key
        return T.table(name, (elem[a] if name == "conj" else lift[a], lift[S]))

    return TambaraData.build(K, {S: T.levels[L] for S, L in lift.items()}, table,
                             T.has_norms, label)


def coinduce(G: FiniteGroup, H: Subgroup, T: TambaraData,
             label: Optional[str] = None) -> TambaraData:
    """Coinduction: the level at K is T's value on the restricted H-set G/K,
    with structure maps evaluated along restricted coset maps, each built
    and read (target orbit, carrier per source orbit) once; res, tr and nm
    share a pair's reading.  A table is one fold of its source level's
    components, encoded in C order as product_ring indexes the level."""
    T = _over_subgroup(H, T)
    X = {K: coset_gset(G, K).restricted(H) for K in subgroups(G)}
    vals = {K: evaluate_gset(T, XK) for K, XK in X.items()}
    comps = {K: prod_components(v.sizes) for K, v in vals.items()}
    readings: Dict[tuple, list] = {}
    memo: Dict[tuple, np.ndarray] = {}  # _leg's, shared by every table

    def table(name, key, src, dst):
        # along the coset map G/A -> G/B, xA -> xgB: for conj (g, K) the
        # iso G/(gKg^-1) -> G/K, along which c_g is a restriction;
        # otherwise the projection G/K1 -> G/K2
        g, (A, B) = (key[0], (dst, src)) if name == "conj" else (G.identity, key)
        if key not in readings:
            f = GSetMap(X[A], X[B], tuple(B.coset_index[G.mul(c[0], g)] for c in A.left_cosets()))
            readings[key] = [(X[B].orbit_of[f(o.base)], X[B].carrier[f(o.base)])
                             for o in vals[A].orbits]
        m = _along(T, "res" if name == "conj" else name, vals[A], vals[B], readings[key], memo)
        return prod_encode(vals[dst].sizes, m.fold(comps[src]))

    return TambaraData.build(G, {K: v.materialize() for K, v in vals.items()}, table,
                             T.has_norms, label=label or f"Coind[{H.elements}]({T.label})")


def restrict(K: Subgroup, T: TambaraData, label: Optional[str] = None) -> TambaraData:
    """Restriction to a subgroup: keep the levels at subgroups of K."""
    if K.parent is not T.group:
        raise GroupMismatch("K must be a subgroup of T's group")
    Kg, embed = K.as_group
    return _reindex(T, Kg, embed, label or f"Res[{K.elements}]({T.label})")


def transport(T: TambaraData, H: Subgroup, d: int, label: Optional[str] = None) -> TambaraData:
    """The dHd^-1-functor obtained from an H-functor along conjugation by d."""
    T = _over_subgroup(H, T)
    G = H.parent
    Hdg, embed_d = H.conjugate(d).as_group
    # x in dHd^-1 acts as d^-1 x d does in H
    return _reindex(T, Hdg, [H.local_index[G.conj(G.inv(d), x)] for x in embed_d],
                    label or f"({T.label})^conj")


def green_counterexample(p: int, S: FiniteRing) -> TambaraData:
    """The two-level C_p Green functor whose top is S x S and bottom is the
    coinduced ring, with transfer the orbit sum into the left factor and
    restriction the left projection followed by the diagonal.

    Its bottom G-ring is coinduced, yet the functor is not: the restriction
    is not injective, which no Green coinduction from the trivial subgroup
    allows; no product decomposition of this kind exists for Green functors.
    """
    G = FiniteGroup.cyclic(p)
    e = G.trivial_subgroup
    full = G.full_subgroup
    bottom_gr = coinduce_gring(G, e, trivial_gring(S, e.as_group[0]))
    bottom = bottom_gr.ring
    top = product_ring([S, S])
    levels = {e: bottom, full: top}
    sizes = [S.size] * p

    left = prod_components([S.size] * 2)[0]
    res_table = prod_encode(sizes, [left] * p)
    tr_sum = np.full(bottom.size, S.zero, dtype=np.int64)
    for comp in prod_components(sizes):
        tr_sum = S.add[tr_sum, comp]
    tr_table = prod_encode([S.size] * 2, [tr_sum, S.zero])

    def table(name, key, src, dst):
        if name == "conj" and src == e:
            return bottom_gr.action[key[0]]
        if src == dst:
            return np.arange(levels[src].size)
        return res_table if name == "res" else tr_table

    return TambaraData.build(G, levels, table, False,
                             label=f"GreenCounterexample(p={p},{S.label})")


# -- the axiom checker ---------------------------------------------------


MAX_FAILURES_PER_FAMILY = 3

Checks = Iterator[Tuple[str, int, Optional[str]]]  # (family, identities, failure or None)


@dataclass
class CheckFailure:
    family: str
    description: str


@dataclass
class CheckReport:
    passed: bool
    failures: List[CheckFailure]
    checked: Dict[str, int]

    def summary(self) -> str:
        lines = []
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"axiom check: {status}")
        for fam in sorted(self.checked):
            n = self.checked[fam]
            fails = [f for f in self.failures if f.family == fam]
            mark = "ok" if not fails else f"{len(fails)}+ failures"
            lines.append(f"  {fam}: {n} identities, {mark}")
        for f in self.failures:
            lines.append(f"  [{f.family}] {f.description}")
        return "\n".join(lines)


def check_axioms(T: TambaraData, fiber_bound: int = 2) -> CheckReport:
    """Exhaustive verification of the structure axioms over every element:
    one loop over the family checks _contracts, _conjugation, _mackey,
    _frobenius and _exponential(fiber_bound), whose docstrings say what
    each checks, summing identities and keeping the first
    MAX_FAILURES_PER_FAMILY failures of each family."""
    if fiber_bound < 2:
        raise DefinitionError(f"fiber bound must be at least 2, got {fiber_bound}")
    failures: List[CheckFailure] = []
    checked: Dict[str, int] = {}
    memo: Dict[tuple, np.ndarray] = {}
    for checks in (_contracts(T), _conjugation(T), _mackey(T, memo), _frobenius(T),
                   _exponential(T, fiber_bound, memo)):
        for family, n, desc in checks:
            checked[family] = checked.get(family, 0) + n
            if desc is not None and (sum(1 for f in failures if f.family == family)
                                     < MAX_FAILURES_PER_FAMILY):
                failures.append(CheckFailure(family, desc))
    return CheckReport(passed=not failures, failures=failures, checked=checked)


def _contracts(T: TambaraData) -> Checks:
    """contracts, over the maps along inclusions that structure_maps lists:
    per pair, res a unital ring map and tr additive, both decided on the
    additive generators of their source level (rings.hom_failure,
    rings.is_additive), nm multiplicative with 0 -> 0, as a map that need
    not be additive, and at K = H each the identity; then chains."""
    along = (m for m in structure_maps(T.group, T.has_norms) if m[0] != "conj")
    for (K, H), pair in groupby(along, key=lambda m: m[1]):
        pair = list(pair)
        for name, key, src, dst in pair:
            t, rs, rd = T.table(name, key), T.levels[src], T.levels[dst]
            if name == "res":
                err = hom_failure(t, rs, rd)
                why = f": {err}" if err else None
            elif name == "tr":
                why = None if is_additive(t, rs, rd) else " is not additive"
            else:  # nm is not additive, so no generating set decides it
                broken = (t[rs.one] != rd.one or t[rs.zero] != rd.zero
                          or op_failure(t, rs.mul, rd.mul) is not None)
                why = " is not multiplicative" if broken else None
            # the text is formatted only for a failure: a tuple's repr costs microseconds
            yield "contracts", 1, why and f"{name} {src.elements}->{dst.elements}{why}"
        if K == H:
            for name, key, src, _ in pair:
                yield "contracts", 1, None
                if not np.array_equal(T.table(name, key), np.arange(T.levels[src].size)):
                    yield "contracts", 0, f"{name} at {K.elements}<={K.elements} is not the identity"
    subs = subgroups(T.group)
    for L, H in T.group.subgroup_pairs:
        for K in (K for K in subs if K.is_subgroup_of(L)):
            for name in map_kinds(T.has_norms):
                down = name == "res"
                first, then = ((L, H), (K, L)) if down else ((K, L), (L, H))
                a, b, sep = (H, K, ">") if down else (K, H, "<")
                composes = np.array_equal(T.table(name, then)[T.table(name, first)],
                                          T.table(name, (K, H)))
                yield ("contracts", 1, None if composes
                       else f"{name} chain {a.elements}{sep}{L.elements}{sep}{b.elements}")


def _conjugation(T: TambaraData) -> Checks:
    """conjugation: c_h = id on each level H for h in H, c_g1 c_g2 = c_g1g2
    on each level, and c_g intertwining each map along inclusions; only the
    first MAX_FAILURES_PER_FAMILY of _conjugation_failures are computed."""
    G, subs = T.group, subgroups(T.group)
    along = len(G.subgroup_pairs) * len(map_kinds(T.has_norms))
    yield "conjugation", sum(H.order for H in subs) + len(G) * (len(G) * len(subs) + along), None
    for desc in islice(_conjugation_failures(T, subs), MAX_FAILURES_PER_FAMILY):
        yield "conjugation", 0, desc


def _mackey(T: TambaraData, memo: Dict[tuple, np.ndarray]) -> Checks:
    """mackey_additive and, with norms, mackey_norm, the double coset
    formulas: for L, K <= H, res_L of tr (nm) from K to H is the sum
    (product) over L\\H/K of the paths through M = L ∩ gKg^-1, tr (nm)
    from M to L after the res leg G/M -> G/K, gM -> gK (_leg, through
    memo).  Both are one fold along the shared paths, so their failures
    interleave, per (H, L, K)."""
    G, subs = T.group, subgroups(T.group)
    folds = [name for name in map_kinds(T.has_norms) if name != "res"]
    for H in subs:
        inner = [K for K in subs if K.is_subgroup_of(H)]
        for L in inner:
            ops = {name: _fold(T.levels[L], name) for name in folds}
            for K in inner:
                acc = {name: np.full(T.levels[K].size, ops[name][1]) for name in folds}
                for g, _ in double_cosets(G, L, K, within=H):
                    M = L.intersect(K.conjugate(g))
                    path = _leg(T, "res", M, K, g, memo)
                    for name in folds:
                        acc[name] = ops[name][0][acc[name], T.table(name, (M, L))[path]]
                for name, family in zip(folds, ("mackey_additive", "mackey_norm")):
                    lhs, rhs = T.res[(L, H)][T.table(name, (K, H))], acc[name]
                    yield family, 1, None
                    if not np.array_equal(lhs, rhs):
                        x = int(np.argwhere(lhs != rhs)[0][0])
                        yield family, 0, (f"res_{L.elements} {name}_{K.elements} -> {H.elements} "
                                          f"differs at x={x}: {int(lhs[x])} vs {int(rhs[x])}")


def _frobenius(T: TambaraData) -> Checks:
    """frobenius: tr(res(y) x) = y tr(x) for K <= H, every y of level H
    and x of level K."""
    for K, H in T.group.subgroup_pairs:
        rk, rh = T.levels[K], T.levels[H]
        resKH, trKH = T.res[(K, H)], T.tr[(K, H)]
        mixed = rk.mul[resKH[:, None], np.arange(rk.size)[None, :]]
        lhs = trKH[mixed]
        rhs = rh.mul[np.ix_(np.arange(rh.size), trKH)]
        yield "frobenius", rh.size * rk.size, None
        if not np.array_equal(lhs, rhs):
            y, x = np.argwhere(lhs != rhs)[0]
            yield "frobenius", 0, (f"tr(res(y)x) != y tr(x) at {K.elements}<={H.elements}, "
                                   f"y={y}, x={x}")


def _exponential(T: TambaraData, fiber_bound: int, memo: Dict[tuple, np.ndarray]) -> Checks:
    """exponential, with norms: nm_f tr_p = tr_pi nm res_ev for each f:
    G/K -> G/H, K < H, and each p: A -> G/K of _exponential_family(G, K,
    fiber_bound), K's family and its tr_p built once for every H.  A bound
    below 2 would drop the norm-of-sum and norm-of-transfer diagrams, and a
    PASS would no longer cover them.  Each diagram is read off the fibers
    over Y's orbit bases (dependent_product), building neither pi nor its
    pullback corner; both sides are compared on every element of T(A), on
    its open mesh, with tables composed through memo (_exponential_paths),
    and a failure names the first failing element in C order.  That
    regroups each fold, so the levels must be rings: the loader's
    validate() proves it, and a level built from rings is one.  A diagram
    too large to build raises SizeLimitExceeded: it shows no identity
    failing, so it is not reported as a failure."""
    if not T.has_norms:
        return
    G = T.group
    families: Dict[Subgroup, List[Tuple[GSetMap, EvalMap, str]]] = {}
    for K, H in G.subgroup_pairs:
        if K == H:
            continue
        f = _coset_projection(G, K, H)
        nm_f = eval_along(T, f, "nm")
        if K not in families:
            maps = [(GSetMap(A, f.source, p), desc)
                    for A, p, desc in _exponential_family(G, K, fiber_bound)]
            families[K] = [(p, eval_along(T, p, "tr"), desc) for p, desc in maps]
        for p, tr_p, desc in families[K]:
            where = f"{desc} over {K.elements}<={H.elements}"
            try:
                diag = dependent_product(f, p)
            except SizeLimitExceeded as exc:
                raise SizeLimitExceeded(f"exponential diagram {where}: {exc}") from exc
            shape, path1, path2 = _exponential_paths(T, nm_f, tr_p, diag, memo)
            yield "exponential", int(np.prod(shape)), None
            bad = [a != b for a, b in zip(path1, path2)]
            if any(b.any() for b in bad):
                x = np.unravel_index(int(np.argmax(np.broadcast_to(
                    reduce(np.logical_or, bad), shape))), shape)
                v1, v2 = (tuple(int(np.broadcast_to(c, shape)[x]) for c in side)
                          for side in (path1, path2))
                yield "exponential", 0, (f"exponential formula fails for {where} "
                                         f"at element {tuple(map(int, x))}: {v1} vs {v2}")


def _conjugation_failures(T: TambaraData, subs: List[Subgroup]) -> Iterator[str]:
    """The conjugation family's failures in check order: c_h = id (H, then
    h in H), c_g1 c_g2 = c_g1g2 (g1, g2, H), then conj intertwining each
    map along inclusions (g, then structure_maps order).  Every level's
    elements are stacked in subs = subgroups(G) order, level H at off[H],
    and C[g, off[H] + x] = off[gHg^-1] + conj[(g, H)][x], so a check is a
    gather on C reduced per level or per table (README "The conjugation
    family on one stacked index").  C is built from T's tables per call."""
    G, kinds = T.group, map_kinds(T.has_norms)
    pos = {H: i for i, H in enumerate(subs)}
    sizes = np.array([T.levels[H].size for H in subs], dtype=np.int32)
    off = np.cumsum(sizes, dtype=np.int32) - sizes
    cj = np.array([[pos[H.conjugate(g)] for H in subs] for g in G.elements()])
    C = np.concatenate([T.conj[(g, H)] for g in G.elements() for H in subs], dtype=np.int32)
    C = C.reshape(len(G), -1) + np.repeat(off[cj], sizes, axis=1)
    member = np.array([H.mask for H in subs]) >> np.arange(len(G))[:, None] & 1  # [g, H]
    moved = np.logical_or.reduceat(C != np.arange(C.shape[1]), off, axis=1) & (member == 1)
    for i, h in zip(*np.nonzero(moved.T)):
        yield f"c_{h} is not the identity on level {subs[i].elements}"
    for g1 in G.elements():
        bad = np.logical_or.reduceat(C[g1].take(C) != C[G.mul_array[g1]], off, axis=1)
        for g2, i in zip(*np.nonzero(bad)):
            yield f"c_{g1} c_{g2} != c_{G.mul(g1, int(g2))} on level {subs[i].elements}"
    # each kind's tables stacked in subgroup_pairs order, entry j of pair p
    # at start[p] + j holding the stacked position of its image; p^g is the
    # pair (gKg^-1, gHg^-1), whose table at c_g x is compared with c_g t(x)
    pairs = G.subgroup_pairs
    ks, hs = (np.array([pos[P[i]] for P in pairs]) for i in (0, 1))
    pair_of = np.full((len(subs), len(subs)), -1)
    pair_of[ks, hs] = np.arange(len(pairs))
    fails = np.empty((len(G), len(pairs), len(kinds)), dtype=bool)
    for k, name in enumerate(kinds):
        src, dst = (hs, ks) if name == "res" else (ks, hs)
        lens = sizes[src]
        start = np.cumsum(lens, dtype=np.int32) - lens
        S = np.concatenate([T.table(name, P) for P in pairs], dtype=np.int32)
        S += np.repeat(off[dst], lens)
        at = np.arange(len(S), dtype=np.int32)  # stacked source positions
        at += np.repeat(off[src] - start, lens)
        for g in G.elements():
            idx = C[g].take(at)
            idx += np.repeat(start[pair_of[cj[g, ks], cj[g, hs]]] - off[cj[g, src]], lens)
            fails[g, :, k] = np.logical_or.reduceat(C[g].take(S) != S.take(idx), start)
    for g, p, k in zip(*np.nonzero(fails)):
        K, H = pairs[p]
        yield f"conj/{kinds[k]} intertwining fails at g={g}, {K.elements}<={H.elements}"


def _exponential_paths(T: TambaraData, nm_f: EvalMap, tr_p: EvalMap, diag: ExponentialDiagram,
                       memo: Dict[tuple, np.ndarray]
                       ) -> Tuple[Tuple[int, ...], List[np.ndarray], List[np.ndarray]]:
    """The two sides of the exponential formula on every element of T(A),
    on its open mesh (component i is arange(n_i) along axis i): one array
    per component of T(Y), broadcastable to shape (n_0, n_1, ...).  The
    sides are nm_f tr_p, and tr_pi after nm_corner res_ev (_corner_norm);
    T(pi) and tr_pi are read off diag's orbit records (orbit i maps onto
    the orbit of its y, base onto base y, so with carrier e), no pi, corner
    or restricted element is written out, and tables go through memo."""
    orbit_of, e = diag.f.target.orbit_of, T.group.identity
    pi_val = LeveledValue(diag.orbits, [T.levels[o.stabilizer] for o in diag.orbits])
    tr_pi = _along(T, "tr", pi_val, nm_f.target, [(orbit_of[o.y], e) for o in diag.orbits], memo)
    shape = tuple(tr_p.source.sizes)
    cols = np.ix_(*(np.arange(n) for n in shape))
    return (shape, nm_f.fold(tr_p.fold(cols)),
            tr_pi.fold(_corner_norm(T, diag, tr_p.source, pi_val, memo).fold(cols)))


def _corner_norm(T: TambaraData, diag: ExponentialDiagram, A_val: LeveledValue,
                 pi_val: LeveledValue, memo: Dict[tuple, np.ndarray]) -> EvalMap:
    """nm_corner res_ev, T(A) -> T(pi), as one norm planned orbit by orbit
    of pi from diag's orbit records, through memo, building neither pi nor
    the corner X x_Y pi.  Over orbit j, base base_j = (y_j, sigma_j) and
    stabilizer S_j, the corner orbit of (x, base_j), x in f^-1(y_j), has
    least point (x0, pi*): x0 the least point of x's orbit, pi* the least
    g.base_j over the g with g.x = x0, first reached by g*.  Its stabilizer
    is Stab(x0) ∩ g* S_j g*^-1, its evaluation g*.sigma_j(x), and its item
    the norm leg after the restriction leg, as eval_along plans the corner
    (README, "The exponential check in arrays")."""
    X, A, moves = diag.f.source, diag.p.source, diag.moves
    x_base = np.array([o.base for o in orbit_decomposition(X)])[list(X.orbit_of)]
    # one pair (orbit j of pi, x in the fiber of y_j) per corner point
    # (x, base_j); pairs with the same least corner point (x0, pi*) meet in
    # one corner orbit
    js, xs = np.nonzero(diag.base_sections < A.size)
    x0 = x_base[xs]
    reach = np.where(X.action[:, xs] == x0, moves[js].T, diag.size)
    g_star = reach.argmin(axis=0)
    keys = x0 * diag.size + reach[g_star, np.arange(len(js))]
    _, first = np.unique(keys, return_index=True)
    js, x0, g_star, star = js[first], x0[first], g_star[first], keys[first] % diag.size
    qs = A.action[g_star, diag.base_sections[js, xs[first]]]
    carriers = (moves[js] == star[:, None]).argmax(axis=1)  # the least g with g.base_j = pi*
    orbit_of, carrier = A.orbit_of, A.carrier
    plan: List[List[Tuple[int, np.ndarray]]] = [[] for _ in pi_val.orbits]
    for j, x, g, q, u in zip(js.tolist(), x0.tolist(), g_star.tolist(), qs.tolist(),
                             carriers.tolist()):
        S = diag.orbits[j].stabilizer
        C = orbit_decomposition(X)[X.orbit_of[x]].stabilizer.intersect(S.conjugate(g))
        B = A_val.orbits[orbit_of[q]].stabilizer
        key = (C, B, carrier[q], S, u)  # each item is composed once per memo, too
        if key not in memo:
            memo[key] = _leg(T, "nm", C, S, u, memo)[_leg(T, "res", C, B, carrier[q], memo)]
        plan[j].append((orbit_of[q], memo[key]))
    return EvalMap("nm", A_val, pi_val, plan)


def _exponential_family(G: FiniteGroup, K: Subgroup, fiber_bound: int):
    """G-sets A -> G/K with every fiber of size <= fiber_bound.

    Summands are canonical coset projections G/L -> G/K for L <= K; a
    summand contributes fiber size [K:L].  Bound 2 yields the norm-of-zero,
    norm-of-sum, and norm-of-transfer diagrams.
    """
    options = [(L, K.order // L.order) for L in subgroups(G)
               if L.is_subgroup_of(K) and K.order // L.order <= fiber_bound]
    # multisets of at most three summands with total fiber size <= bound
    out = [([], "empty A (norm of zero)")]
    out += [([L], f"A = G/{L.elements} (fiber {ix})") for L, ix in options]
    for r in (2, 3):
        out += [([L for L, _ in combo], "A = " + " + ".join(f"G/{L.elements}" for L, _ in combo))
                for combo in combinations_with_replacement(options, r)
                if sum(ix for _, ix in combo) <= fiber_bound]
    for summands, desc in out:
        if not summands:
            yield GSet(G, [[] for _ in G.elements()]), (), desc
            continue
        projections = [_coset_projection(G, L, K) for L in summands]
        A, _ = disjoint_union([pm.source for pm in projections])
        yield A, tuple(x for pm in projections for x in pm.images), desc


# -- Mackey decomposition isomorphism ------------------------------------


def mackey_decomposition_iso(K: Subgroup, H: Subgroup, T: TambaraData
                             ) -> Tuple[TambaraData, TambaraData, TambaraMorphism]:
    """Res_K Coind_H T decomposed over K\\G/H, with an explicit isomorphism.

    Returns (lhs, rhs, iso); the identity double coset factor is first in
    rhs's product order.  The component of the iso at the orbit of a coset
    k0 L in a double-coset block d reads off the LHS coordinate at the point
    d^-1 k0 L, whose stabilizer matches exactly.
    """
    G = K.parent
    T = _over_subgroup(H, T)
    Kg, kembed = K.as_group
    lhs = restrict(K, coinduce(G, H, T))

    blocks = []
    for d, _ in double_cosets(G, K, H):
        Hd = H.conjugate(d)
        M = K.intersect(Hd)
        Sd = restrict(Hd.local_subgroups[M], transport(T, H, d))
        M_in_K = K.local_subgroups[M]
        blocks.append((d, M_in_K, coinduce(Kg, M_in_K, Sd)))
    rhs = product(*[b[2] for b in blocks], label=f"MackeyRHS({T.label})")

    maps = {}
    for L in subgroups(Kg):
        Ltilde = K.subgroup_in_parent(L.elements)
        X = coset_gset(G, Ltilde).restricted(H)
        val = evaluate_gset(T, X)
        arr = prod_components(val.sizes).T
        tables, sizes = [], []
        for d, M_in_K, _ in blocks:
            XK = coset_gset(Kg, L).restricted(M_in_K)
            for o in orbit_decomposition(XK):
                k0 = kembed[L.left_cosets()[o.base][0]]      # rep of the base coset, in G
                x = Ltilde.coset_index[G.mul(G.inv(d), k0)]  # the LHS point d^-1 k0 Ltilde
                i = X.orbit_of[x]
                h = X.carrier[x]                             # H-local carrier of x
                stab = val.orbits[i].stabilizer
                tables.append(T.conj[(h, stab)][arr[:, i]])
                sizes.append(T.levels[stab.conjugate(h)].size)
        maps[L] = prod_encode(sizes, tables)
    iso = TambaraMorphism(lhs, rhs, maps)
    if not iso.is_isomorphism():
        raise VerificationFailed("Mackey decomposition witness is not bijective")
    return lhs, rhs, iso


# -- functor isomorphism search ------------------------------------------


def _functor_structure(T: TambaraData) -> _search.OpStructure:
    subs = subgroups(T.group)
    index = {H: i for i, H in enumerate(subs)}
    sorts = {index[H]: T.levels[H].size for H in subs}
    constants = []
    unary = []
    binary = []
    for H in subs:
        i = index[H]
        constants.append((f"zero{i}", i, T.levels[H].zero))
        constants.append((f"one{i}", i, T.levels[H].one))
        binary.append((f"add{i}", i, T.levels[H].add))
        binary.append((f"mul{i}", i, T.levels[H].mul))
    for name, key, src, dst in structure_maps(T.group, T.has_norms):
        a, b = index[src], index[dst]
        op = f"c{key[0]}@{a}" if name == "conj" else f"{name}{a}->{b}"
        unary.append((op, a, b, T.table(name, key)))
    return _search.OpStructure(sorts=sorts, constants=constants, unary=unary, binary=binary)


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise DefinitionError(f"search budget must be at least 0, got {budget}")


def functor_isomorphism(T1: TambaraData, T2: TambaraData,
                        budget: int = _search.DEFAULT_BUDGET
                        ) -> Optional[TambaraMorphism]:
    """Search for an isomorphism commuting with all structure maps.

    Returns None when provably absent; raises SearchTimeout on budget
    exhaustion, which is a distinct outcome, and DefinitionError for a
    negative budget.
    """
    _check_budget(budget)
    if T1.group is not T2.group:
        raise GroupMismatch("isomorphism needs a common group")
    if T1.has_norms != T2.has_norms:
        raise GroupMismatch("isomorphism needs matching norm flags")
    image = _search.find_isomorphism(_functor_structure(T1), _functor_structure(T2),
                                     budget=budget)
    if image is None:
        return None
    subs = subgroups(T1.group)
    maps = {H: image[i] for i, H in enumerate(subs)}
    return TambaraMorphism(T1, T2, maps)
