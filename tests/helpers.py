"""Shared verification helpers: additive spans, transfer ideals, mutation
fixtures, the row-by-row ring-axiom reference, the structural ring check
and additive negatives, the unbuffered ring-axiom and ring-map checks,
the breadth-first additive generators, the every-pair scans of ring maps
and G-ring generators, the every-element action references, the
transversal-loop orbit reference, the point-by-point
dependent product reference and the points of a diagram read from its
maps, the scalar and unfused references of maps along G-set maps and of
the two sides of the exponential formula, the second side through the
pullback corner (EvalMap composition and the corner norm), the binary
product references,
the per-map coinduction and fixed-point references, the G-ring
coinduction with chosen coset representatives, the two-step
decomposition witness reference, the pair-by-pair finite field and
element-by-element G-ring decomposition references, the every-idempotent
scans for clarification and for the idempotent detect_coinduction picks,
the pair-loop closure and replay-from-scratch references of the
isomorphism search, the element-tuple closure references of the subgroup
lattice and the greedy generators, the symmetric, dihedral, quaternion and direct
product groups, the permutation-group strategy, relabelled copies of rings and functors, the
table-by-table functor comparison, the one-pass json.dumps document
writer, the mark-solve fill of the Burnside level tables, packing and
unpacking of ring tables, the ring on an idempotent,
the randomized assembly sampler for round-trip tests, and the API only
tests call (the first failure of a report, subgroup conjugacy classes,
identity and trivial G-sets, orbit and G-set isomorphisms, restricted
G-rings, ring and G-ring isomorphism and homomorphism searches)."""

import base64
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iproduct

import numpy as np
from hypothesis import assume, strategies as st

from tambara.errors import (
    DefinitionError,
    GroupMismatch,
    SizeLimitExceeded,
    VerificationFailed,
)
from tambara.decompose import detect_coinduction, split_by_bottom_idempotents
from tambara.functors import (
    EvalMap,
    TambaraData,
    TambaraMorphism,
    _coset_projection,
    _over_subgroup,
    coinduce,
    constant_functor,
    eval_along,
    evaluate_gset,
    fixed_point_functor,
    product,
    structure_maps,
)
from tambara._search import (
    DEFAULT_BUDGET,
    OpStructure,
    _Budget,
    _Step,
    _Target,
    _build_steps,
    _is_full_hom,
    find_isomorphism,
    search_homomorphisms,
)
from tambara.groups import (
    FiniteGroup,
    conjugacy_classes,
    double_cosets,
    is_subconjugate,
    subgroups,
)
from tambara._burnside import _Level
from tambara.gsets import (
    SECTION_CAP,
    GSet,
    GSetMap,
    coset_gset,
    orbit_decomposition,
    pullback,
)
from tambara.rings import (
    _IRREDUCIBLE,
    RING_SIZE_CAP,
    FiniteRing,
    GRing,
    GRingDecomposition,
    RingHom,
    classify_idempotent,
    coinduce_gring,
    gring_product,
    idempotent_classes,
    idempotent_subring,
    idempotents,
    is_clarified,
    op_failure,
    primitive_idempotents,
    prod_components,
    prod_encode,
    product_ring,
)
from tambara.serialize import _Base64


def additive_span(ring, gens):
    span = {ring.zero} | {int(g) for g in gens}
    frontier = list(span)
    while frontier:
        new = []
        for a in list(span):
            for b in frontier:
                c = int(ring.add[a, b])
                if c not in span:
                    span.add(c)
                    new.append(c)
        frontier = new
    return span


def ideal_closure(ring, gens):
    ideal = additive_span(ring, gens)
    while True:
        extra = set()
        for a in ideal:
            for c in set(int(x) for x in ring.mul[a]):
                if c not in ideal:
                    extra.add(c)
        if not extra:
            return ideal
        ideal = additive_span(ring, ideal | extra)


def reference_validate(ring):
    """The O(n^3) row-by-row check of additive and multiplicative
    associativity and distributivity, three n x n gathers per element:
    the reference FiniteRing.validate is tested against."""
    n, add, mul = ring.size, ring.add, ring.mul
    for a in range(n):
        if not np.array_equal(add[add[a]], add[a][add]):
            raise DefinitionError(f"addition not associative at {a}")
        if not np.array_equal(mul[mul[a]], mul[a][mul]):
            raise DefinitionError(f"multiplication not associative at {a}")
        if not np.array_equal(mul[a][add], add[mul[a][:, None], mul[a][None, :]]):
            raise DefinitionError(f"distributivity fails at {a}")


def negatives(ring):
    """neg[x] is the additive inverse of x, -1 where x has none."""
    rows, cols = np.nonzero(ring.add == ring.zero)
    neg = np.full(ring.size, -1, dtype=np.int32)
    neg[rows] = cols
    return neg


def structural_check(ring):
    """Step 0 of FiniteRing.validate, with its messages in its order:
    units and entries in range, + and x commutative, 0 and 1 identities,
    0 != 1 unless n == 1, and a negative for every element."""
    n, add, mul = ring.size, ring.add, ring.mul
    for unit, x in (("zero", ring.zero), ("one", ring.one)):
        if x not in range(n):
            raise DefinitionError(f"{unit} {x} is not an element of 0..{n - 1}")
    if any(((t < 0) | (t >= n)).any() for t in (add, mul)):
        raise DefinitionError("table entries out of range")
    for name, t in (("addition", add), ("multiplication", mul)):
        if (t != t.T).any():
            raise DefinitionError(f"{name} is not commutative")
    if (add[ring.zero] != np.arange(n)).any():
        raise DefinitionError("zero is not an additive identity")
    if (mul[ring.one] != np.arange(n)).any():
        raise DefinitionError("one is not a multiplicative identity")
    if n > 1 and ring.zero == ring.one:
        raise DefinitionError("0 == 1 in a ring with more than one element")
    if (negatives(ring) < 0).any():
        raise DefinitionError("some element has no additive inverse")


def unbuffered_validate(ring):
    """FiniteRing.validate with a fresh array for every gather and step 4
    scanned on every x, y for each generator s: the reference of its fixed
    buffers and of its check of * on S^3, with the same messages, after
    the same structural step 0."""
    structural_check(ring)
    n, add, mul = ring.size, ring.add, ring.mul
    gens = reference_additive_generators(ring)
    for s in gens:
        bad = add[add[s]] != add[:, add[s]]  # [x, y]: (x+s)+y vs x+(s+y)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise DefinitionError(
                f"addition not associative: ({x}+{s})+{y} != {x}+({s}+{y})")
    for s in gens:
        bad = mul[add[s]] != np.take(add, mul * n + mul[s])  # [x, a]: (x+s)a vs xa + sa
        if bad.any():
            x, a = np.argwhere(bad)[0]
            raise DefinitionError(
                f"distributivity fails: {a}*({x}+{s}) != {a}*{x}+{a}*{s}")
    for s in gens:
        bad = mul[mul[s]] != mul[:, mul[s]]  # [x, y]: (x*s)*y vs x*(s*y)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise DefinitionError(
                f"multiplication not associative: ({x}*{s})*{y} != {x}*({s}*{y})")


def reference_additive_generators(ring):
    """The greedy additive generators by breadth-first search, adding each
    member of S to the frontier one step at a time: the reference of
    FiniteRing's doubling closure, on any tables."""
    add = ring.add
    reached = np.zeros(ring.size, dtype=bool)
    reached[ring.zero] = True
    gens = []
    while not reached.all():
        s = int(np.argmin(reached))
        gens.append(s)
        frontier, cols = np.flatnonzero(reached), [s]
        while frontier.size:
            hit = np.zeros(ring.size, dtype=bool)
            hit[add[frontier[:, None], cols]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached |= hit
            cols = gens
    return gens


def scanned_hom_failure(img, src, dst):
    """rings.hom_failure by a scan of every pair for + and for *: the
    reference of its checks on the additive generators, with the same
    messages."""
    if img[src.zero] != dst.zero:
        return f"0 -> {img[src.zero]}"
    if img[src.one] != dst.one:
        return f"1 -> {img[src.one]}"
    for name, src_op, dst_op in (("addition", src.add, dst.add),
                                 ("multiplication", src.mul, dst.mul)):
        bad = op_failure(img, src_op, dst_op)
        if bad:
            return f"{name} broken at ({bad[0]},{bad[1]})"
    return None


def scanned_is_additive(img, src, dst):
    """0 -> 0 and + kept on every pair: the contracts family's transfer
    law as a scan, the reference of rings.is_additive."""
    return img[src.zero] == dst.zero and op_failure(img, src.add, dst.add) is None


def scanned_gring(ring, G, action):
    """GRing's constructor with each generator's row scanned on every pair
    for + and for *: the reference of its checks on the additive
    generators, with the same messages.  Returns the action array."""
    action = np.asarray(action, dtype=np.int32)
    if action.shape != (G.order, ring.size):
        raise DefinitionError("action table must be |G| x |R|")
    bad = G.action_failure(action)
    if bad is not None:
        raise DefinitionError("action not a homomorphism at ({},{})".format(*bad[:2]))
    for s in G.generators:
        if op_failure(action[s], ring.add, ring.add):
            raise DefinitionError(f"element {s} is not additive")
        if op_failure(action[s], ring.mul, ring.mul):
            raise DefinitionError(f"element {s} is not multiplicative")
    return action


def unbuffered_op_failure(img, src_op, dst_op):
    """rings.op_failure gathering through np.take, the reference of its
    indexing: the first (a, b) in row-major order with
    img[a o b] != img[a] o img[b], or None."""
    n = dst_op.shape[0]
    bad = img[src_op] != np.take(dst_op, img[:, None] * n + img)
    if not bad.any():
        return None
    a, b = np.argwhere(bad)[0]
    return int(a), int(b)


def reference_gset_validate(G, action):
    """The all-pairs G-set check: bijective rows, trivial identity row and
    A[gh] = A[g][A[h]] for every g and h; the reference GSet's check at
    the generators is tested against."""
    A = np.asarray(action)
    n = A.shape[1]
    if not (np.sort(A, axis=1) == np.arange(n)).all():
        raise DefinitionError("group element does not act bijectively")
    if not np.array_equal(A[0], np.arange(n)):
        raise DefinitionError("identity must act trivially")
    for g in G.elements():
        for h in G.elements():
            if not np.array_equal(A[G.mul(g, h)], A[g][A[h]]):
                raise DefinitionError(f"action not a homomorphism at ({g},{h})")


def reference_gsetmap_validate(X, Y, images):
    """Equivariance of images : X -> Y at every group element; the
    reference GSetMap's check at the generators is tested against."""
    img = np.asarray(images)
    if img.size and (img.min() < 0 or img.max() >= Y.size):
        raise DefinitionError("image outside the target")
    for g in X.group.elements():
        if not np.array_equal(img[X.action[g]], Y.action[g][img]):
            raise DefinitionError(f"map not equivariant at g={g}")


def reference_gring_validate(ring, G, action):
    """Every element bijective, additive and multiplicative, and the
    action law for every pair; the reference GRing's check at the
    generators is tested against."""
    A = np.asarray(action)
    n = ring.size
    if not np.array_equal(A[0], np.arange(n)):
        raise DefinitionError("identity must act trivially")
    for g in G.elements():
        row = A[g]
        if not np.array_equal(np.sort(row), np.arange(n)):
            raise DefinitionError(f"group element {g} does not act bijectively")
        if not np.array_equal(row[ring.add], ring.add[row[:, None], row[None, :]]):
            raise DefinitionError(f"element {g} is not additive")
        if not np.array_equal(row[ring.mul], ring.mul[row[:, None], row[None, :]]):
            raise DefinitionError(f"element {g} is not multiplicative")
    for g in G.elements():
        for h in G.elements():
            if not np.array_equal(A[G.mul(g, h)], A[g][A[h]]):
                raise DefinitionError(f"action not a homomorphism at ({g},{h})")


def reference_orbits(X):
    """The orbits of X as the transversal loop lists them, in increasing
    order of their minimal point: (points, base, stabilizer, transversal)
    with transversal[y] the least g carrying base to y.  The reference
    orbit_decomposition, X.orbit_of and X.carrier are tested against."""
    G = X.group
    seen = set()
    orbits = []
    for x in range(X.size):
        if x in seen:
            continue
        trans = {}
        for g in G.elements():
            trans.setdefault(X.act(g, x), g)
        seen.update(trans)
        stab = G.subgroup(g for g in G.elements() if X.act(g, x) == x)
        orbits.append((tuple(sorted(trans)), x, stab, trans))
    return orbits


def assert_orbits_match_reference(X):
    orbits = orbit_decomposition(X)
    ref = reference_orbits(X)
    assert [(o.points, o.base, o.stabilizer) for o in orbits] == [r[:3] for r in ref]
    for i, (_, _, _, trans) in enumerate(ref):
        for y, g in trans.items():
            assert (X.orbit_of[y], X.carrier[y]) == (i, g)
    assert len(X.orbit_of) == len(X.carrier) == X.size


@lru_cache(maxsize=64)
def reference_dependent_product(f, p):
    """Pi_f A built point by point from the definition: every section of p
    over every fiber, sorted, and g(y, sigma) = (gy, g sigma) worked out for
    each point, with the section matrix written entry by entry; the
    reference gsets.dependent_product is tested against, and the only
    point-level Pi_f A and pullback corner.  Built once per pair of maps
    (a GSetMap compares by its G-set objects and its images)."""
    if p.target is not f.source:
        raise DefinitionError("p must target the source of f")
    X, Y, A = f.source, f.target, p.source
    G = X.group

    fibers = {y: tuple(x for x in range(X.size) if f(x) == y)
              for y in range(Y.size)}
    lifts = {x: tuple(a for a in range(A.size) if p(a) == x)
             for x in range(X.size)}

    total = 0
    points = []
    for y in range(Y.size):
        fib = fibers[y]
        count = 1
        for x in fib:
            count *= len(lifts[x])
        total += count
        if total > SECTION_CAP:
            raise SizeLimitExceeded(
                f"dependent product would have more than {SECTION_CAP} points")
        for choice in iproduct(*(lifts[x] for x in fib)):
            points.append((y, tuple(choice)))  # aligned with sorted fiber
    points.sort()
    index = {pt: i for i, pt in enumerate(points)}

    x_rows, y_rows, a_rows = X.action.tolist(), Y.action.tolist(), A.action.tolist()

    def act_point(g, pt):
        y, sigma = pt
        val = dict(zip(fibers[y], sigma))
        gy = y_rows[g][y]
        x_inv, a_g = x_rows[G.inv(g)], a_rows[g]
        return (gy, tuple(a_g[val[x_inv[x]]] for x in fibers[gy]))

    action = [[index[act_point(g, pt)] for pt in points] for g in G.elements()]
    pi = GSet(G, action)
    projection = GSetMap(pi, Y, tuple(y for y, _ in points))

    sections = np.full((len(points), X.size), A.size, dtype=np.int64)
    for i, (y, sigma) in enumerate(points):
        for x, a in zip(fibers[y], sigma):
            if p(a) != x:
                raise DefinitionError("exponential diagram does not commute")
            sections[i, x] = a
    sections.flags.writeable = False
    return ReferenceDiagram(f=f, p=p, pi=pi, projection=projection, sections=sections)


@dataclass(frozen=True, eq=False)
class ReferenceDiagram:
    """What reference_dependent_product builds: the point-level Pi_f A,
    its projection to Y and the section matrix, with the pullback corner,
    its evaluation to A and its projection to Pi_f A built by
    gsets.pullback on first read."""

    f: GSetMap
    p: GSetMap
    pi: GSet
    projection: GSetMap
    sections: np.ndarray

    @cached_property
    def _corner(self):
        corner, to_x, to_pi = pullback(self.f, self.projection)
        ev = tuple(int(self.sections[i, x]) for i, x in zip(to_pi.images, to_x.images))
        return corner, GSetMap(corner, self.p.source, ev), to_pi

    @property
    def pullback_corner(self):
        return self._corner[0]

    @property
    def evaluation(self):
        return self._corner[1]

    @property
    def corner_projection(self):
        return self._corner[2]


def diagram_points(diag):
    """Each point of Pi_f A as (y, sigma), read from the diagram's maps:
    y is its projection, and sigma lists, over the sorted fiber of y, the
    evaluations at the corner points above it (each corner point lies over
    the point p(evaluation) of X, as the diagram commutes)."""
    sigma = [{} for _ in range(diag.pi.size)]
    for c in range(diag.pullback_corner.size):
        a = diag.evaluation(c)
        sigma[diag.corner_projection(c)][diag.p(a)] = a
    return [(diag.projection(i), tuple(s[x] for x in sorted(s)))
            for i, s in enumerate(sigma)]


def reference_apply(m, tup):
    """EvalMap m on one element, a tuple of source components, one Python
    int at a time: res reads each target component off its one item's
    source component, tr and nm fold each target component from the unit
    over its items.  The scalar reference EvalMap.fold is tested against."""
    if m.kind == "res":
        return tuple(int(t[tup[j]]) for ((j, t),) in m.plan)
    out = []
    for items, ring in zip(m.plan, m.target.rings):
        table, acc = (ring.add, ring.zero) if m.kind == "tr" else (ring.mul, ring.one)
        for (i, t) in items:
            acc = int(table[acc, t[tup[i]]])
        out.append(acc)
    return tuple(out)


def reference_apply_batch(m, arr):
    """EvalMap.apply_batch without its first-step gather: a res component
    reads its one item, and every tr or nm component starts from the unit
    and folds in all of its items."""
    out = np.empty((len(arr), len(m.plan)), dtype=np.int64)
    for c, component in enumerate(m.plan):
        if m.kind == "res":
            (j, t), = component
            out[:, c] = t[arr[:, j]]
            continue
        ring = m.target.rings[c]
        table, unit = (ring.add, ring.zero) if m.kind == "tr" else (ring.mul, ring.one)
        acc = np.full(len(arr), unit)
        for i, t in component:
            acc = table[acc, t[arr[:, i]]]
        out[:, c] = acc
    return out


def reference_table(m):
    """EvalMap m as a dense index table between materialized product
    rings: reference_apply_batch on every source element as a row, in C
    order, encoded in int64."""
    rows = reference_apply_batch(m, prod_components(m.source.sizes).T)
    return prod_encode(m.target.sizes, rows.T)


def reference_exponential_paths(T, diag):
    """Every element of T(A) as a row, and the two sides of the exponential
    formula on it, unfused: nm_f tr_p, and tr_pi nm_corner res_ev through
    the point-level diagram (reference_dependent_product) with the
    restricted elements written out as an array, each map applied by
    reference_apply_batch.  The reference of functors._exponential_paths."""
    tr_p = eval_along(T, diag.p, "tr")
    diag = reference_dependent_product(diag.f, diag.p)
    arr = prod_components(tr_p.source.sizes).T
    path1 = reference_apply_batch(eval_along(T, diag.f, "nm"),
                                  reference_apply_batch(tr_p, arr))
    restricted = reference_apply_batch(eval_along(T, diag.evaluation, "res"), arr)
    normed = reference_apply_batch(eval_along(T, diag.corner_projection, "nm"), restricted)
    return arr, path1, reference_apply_batch(eval_along(T, diag.projection, "tr"), normed)


def evalmap_after(nm, res):
    """The tr or nm map nm after the res map into its source, as one map of
    nm's kind: item (i, t) becomes (j, t[r]), res.plan[i] being [(j, r)]."""
    reads = [item for (item,) in res.plan]
    plan = [[(reads[i][0], t[reads[i][1]]) for i, t in items] for items in nm.plan]
    return EvalMap(nm.kind, res.source, nm.target, plan)


def corner_norm(T, diag):
    """nm_corner res_ev built on the pullback corner of the diagram, point
    by point (reference_dependent_product): the restriction along the
    evaluation and the norm along the corner projection, each an
    eval_along, composed by evalmap_after.  The reference of
    functors._corner_norm."""
    diag = reference_dependent_product(diag.f, diag.p)
    return evalmap_after(eval_along(T, diag.corner_projection, "nm"),
                         eval_along(T, diag.evaluation, "res"))


def corner_second_path(T, diag):
    """tr_pi nm_corner res_ev on the open mesh of T(A), through the pullback
    corner (corner_norm): the second side of the exponential formula as
    functors._exponential_paths computed it before it planned the norm
    orbit by orbit of Pi_f A."""
    tr_pr = eval_along(T, reference_dependent_product(diag.f, diag.p).projection, "tr")
    shape = tuple(evaluate_gset(T, diag.p.source).sizes)
    return tr_pr.fold(corner_norm(T, diag).fold(np.ix_(*(np.arange(n) for n in shape))))


def mesh_rows(shape, comps):
    """Arrays broadcastable to shape, one per component, as one row per
    element of the mesh in C order and one column per component."""
    size = int(np.prod(shape))
    return np.array([np.broadcast_to(c, shape).reshape(size) for c in comps],
                    dtype=np.int64).reshape(len(comps), size).T


def reference_exponential_failure(T, diag, desc, K, H):
    """The description check_axioms gives a failing exponential diagram,
    built from the first differing row of reference_exponential_paths;
    None when the two sides agree everywhere."""
    arr, path1, path2 = reference_exponential_paths(T, diag)
    rows = np.flatnonzero((path1 != path2).any(axis=1))
    if not rows.size:
        return None
    r = rows[0]
    return (f"exponential formula fails for {desc} over {K.elements}<={H.elements} "
            f"at element {tuple(arr[r].tolist())}: {tuple(path1[r].tolist())} vs "
            f"{tuple(path2[r].tolist())}")


def reference_product_ring(factors, label=None):
    """product_ring by gathers: each factor's n x n table read at the open
    mesh of its components (np.ix_), one n x n gather per factor, summed
    by prod_encode.  The reference the broadcast product_ring is tested
    against."""
    if not factors:
        raise DefinitionError("need at least one factor")
    sizes = [f.size for f in factors]
    if np.prod(sizes, dtype=np.int64) > RING_SIZE_CAP:
        raise SizeLimitExceeded(f"product ring would exceed {RING_SIZE_CAP} elements")
    comps = prod_components(sizes)
    add = prod_encode(sizes, (f.add[np.ix_(a, a)] for f, a in zip(factors, comps)))
    mul = prod_encode(sizes, (f.mul[np.ix_(a, a)] for f, a in zip(factors, comps)))
    zero = prod_encode(sizes, [f.zero for f in factors])
    one = prod_encode(sizes, [f.one for f in factors])
    return FiniteRing(add, mul, zero, one,
                      label=label or " x ".join(f.label for f in factors))


def reference_product(T1, T2, label=None):
    """The binary functor product, table family by table family."""
    if T1.group is not T2.group:
        raise GroupMismatch("product needs a common group")
    if T1.has_norms != T2.has_norms:
        raise GroupMismatch("product needs matching norm flags")
    G = T1.group
    subs = subgroups(G)
    sizes = {H: [T1.levels[H].size, T2.levels[H].size] for H in subs}
    levels = {H: product_ring([T1.levels[H], T2.levels[H]]) for H in subs}

    def combine(tbl1, tbl2, src_H, dst_H):
        a, b = prod_components(sizes[src_H])
        return prod_encode(sizes[dst_H], [tbl1[a], tbl2[b]])

    res, tr, conj = {}, {}, {}
    nm = {} if T1.has_norms else None
    for (K, H) in G.subgroup_pairs:
        res[(K, H)] = combine(T1.res[(K, H)], T2.res[(K, H)], H, K)
        tr[(K, H)] = combine(T1.tr[(K, H)], T2.tr[(K, H)], K, H)
        if nm is not None:
            nm[(K, H)] = combine(T1.nm[(K, H)], T2.nm[(K, H)], K, H)
    for g in G.elements():
        for H in subs:
            conj[(g, H)] = combine(T1.conj[(g, H)], T2.conj[(g, H)], H, H.conjugate(g))
    return TambaraData(G, levels, res, tr, nm, conj, has_norms=T1.has_norms,
                       label=label or f"({T1.label} x {T2.label})")


def reference_coinduce(G, H, T, label=None):
    """Coinduction with every structure map listed by hand: one GSetMap
    per coset projection or conjugation iso, restricted to H, and one
    eval_along per table, written out by reference_table.  The reference
    coinduce is tested against."""
    T = _over_subgroup(H, T)
    subs = subgroups(G)
    levels = {K: evaluate_gset(T, coset_gset(G, K).restricted(H)).materialize()
              for K in subs}

    def restricted(f):
        return GSetMap(f.source.restricted(H), f.target.restricted(H), f.images)

    res, tr, conj = {}, {}, {}
    nm = {} if T.has_norms else None
    for (K1, K2) in G.subgroup_pairs:
        proj = restricted(_coset_projection(G, K1, K2))
        res[(K1, K2)] = reference_table(eval_along(T, proj, "res"))
        tr[(K1, K2)] = reference_table(eval_along(T, proj, "tr"))
        if nm is not None:
            nm[(K1, K2)] = reference_table(eval_along(T, proj, "nm"))
    for g in G.elements():
        for K in subs:
            # c_g is restriction along the iso G/(gKg^-1) -> G/K, x -> xg
            Kg = K.conjugate(g)
            cmap = GSetMap(coset_gset(G, Kg), coset_gset(G, K),
                           tuple(K.coset_index[G.mul(c[0], g)] for c in Kg.left_cosets()))
            conj[(g, K)] = reference_table(eval_along(T, restricted(cmap), "res"))
    return TambaraData(G, levels, res, tr, nm, conj, has_norms=T.has_norms,
                       label=label or f"Coind[{H.elements}]({T.label})")


def reference_fixed_point_functor(R, green_only=False, label=None):
    """The fixed-point functor with its res/tr/nm/conj loops written out;
    the reference fixed_point_functor is tested against.  Its levels come
    from fixed_point_functor itself."""
    levels = fixed_point_functor(R, green_only=True).levels
    G, ring = R.group, R.ring
    includes, positions = {}, {}
    for H in subgroups(G):
        fixed = np.arange(ring.size)
        for h in H.elements:
            fixed = fixed[R.action[h][fixed] == fixed]
        includes[H] = fixed.astype(np.int32)
        positions[H] = -np.ones(ring.size, dtype=np.int32)
        positions[H][includes[H]] = np.arange(len(fixed))
    res, tr, nm, conj = {}, {}, {}, {}
    e = G.trivial_subgroup
    for (K, H) in G.subgroup_pairs:
        res[(K, H)] = positions[K][includes[H]]
        src = includes[K]
        acc_t = np.full(len(src), ring.zero, dtype=np.int64)
        acc_n = np.full(len(src), ring.one, dtype=np.int64)
        for h, _ in double_cosets(G, e, K, within=H):
            moved = R.action[h][src]
            acc_t = ring.add[acc_t, moved]
            acc_n = ring.mul[acc_n, moved]
        tr[(K, H)] = positions[H][acc_t]
        nm[(K, H)] = positions[H][acc_n]
        if (tr[(K, H)] < 0).any() or (nm[(K, H)] < 0).any():
            raise VerificationFailed("transfer/norm left the fixed subring")
    for g in G.elements():
        for H in subgroups(G):
            conj[(g, H)] = positions[H.conjugate(g)][R.action[g][includes[H]]]
            if (conj[(g, H)] < 0).any():
                raise VerificationFailed("conjugation left the fixed subring")
    return TambaraData(G, levels, res, tr, None if green_only else nm, conj,
                       has_norms=not green_only, label=label or f"FP({ring.label})")


def assert_same_functor(A, B):
    """The same group, flags, label, level rings and, byte for byte, the
    same structure tables."""
    assert A.group is B.group
    assert (A.has_norms, A.label) == (B.has_norms, B.label)
    for H in subgroups(A.group):
        ra, rb = A.levels[H], B.levels[H]
        assert (ra.label, ra.zero, ra.one) == (rb.label, rb.zero, rb.one)
        assert np.array_equal(ra.add, rb.add) and np.array_equal(ra.mul, rb.mul)
    for name in ("res", "tr", "nm", "conj"):
        ta, tb = getattr(A, name), getattr(B, name)
        if ta is None or tb is None:
            assert ta is tb is None
            continue
        assert ta.keys() == tb.keys()
        for key in ta:
            assert ta[key].dtype == tb[key].dtype and np.array_equal(ta[key], tb[key])


def reference_fold_product(factors, label=None):
    """Left fold of reference_product; the last step takes the label."""
    out = factors[0]
    for i, f in enumerate(factors[1:], start=2):
        out = reference_product(out, f, label=label if i == len(factors) else None)
    return out


def reference_gring_product(R, S):
    """The binary G-ring product."""
    if R.group is not S.group:
        raise GroupMismatch("product needs a common group")
    ring = product_ring([R.ring, S.ring])
    sizes = [R.ring.size, S.ring.size]
    a, b = prod_components(sizes)
    action = [prod_encode(sizes, [R.action[g][a], S.action[g][b]])
              for g in R.group.elements()]
    return GRing(ring, R.group, action)


def reference_coinduce_gring(G, H, S, reps):
    """Fun(G/H, S) built as rings.coinduce_gring builds it, but with reps[i]
    as the representative of the i-th coset of H.left_cosets() in place of
    its minimal element: the isomorphism class must not depend on the
    choice."""
    cosets = H.left_cosets()
    assert len(reps) == len(cosets) and all(r in c for r, c in zip(reps, cosets))
    sizes = [S.ring.size] * len(cosets)
    comps = prod_components(sizes)
    action = np.zeros((G.order, math.prod(sizes)), dtype=np.int64)
    for gamma in G.elements():
        srcs = [H.coset_index[G.mul(G.inv(gamma), r)] for r in reps]
        action[gamma] = prod_encode(sizes, [
            S.action[H.local_index[G.mul(G.mul(G.inv(r), gamma), reps[src])]][comps[src]]
            for r, src in zip(reps, srcs)])
    return GRing(product_ring([S.ring] * len(cosets)), G, action)


def reference_class_units(R):
    """The G-fixed idempotent of each class of the G-ring R, worked out
    inline: the primitive idempotents' orbits, grouped by the conjugacy
    class of their stabilizers, each class summed in the canonical order
    (by representative order, then elements)."""
    G, ring = R.group, R.ring
    classes = {}
    seen = set()
    for d in primitive_idempotents(ring):
        if d in seen:
            continue
        orbit = sorted({int(R.act(g, d)) for g in G.elements()})
        seen.update(orbit)
        stab = G.subgroup(g for g in G.elements() if R.act(g, d) == d)
        classes.setdefault(G.conjugacy_class_rep(stab).elements, []).append(orbit)
    units = []
    for key in sorted(classes, key=lambda e: (len(e), e)):
        unit = ring.zero
        for orbit in classes[key]:
            for p in orbit:
                unit = int(ring.add[unit, p])
        units.append(unit)
    return units


def reference_lambda_clarified(R, lam):
    """True iff every typed idempotent of the G-ring R has its type in lam,
    by classify_idempotent on every idempotent; the reference
    is_lambda_clarified is tested against."""
    for d in idempotents(R.ring):
        rep = classify_idempotent(R, d)
        if rep.type is not None and rep.type not in lam:
            return False
    return True


def reference_coinduction_idempotent(B):
    """The (H, d) detect_coinduction slices along, by classify_idempotent on
    every nonzero idempotent of the bottom G-ring B: the typed d whose orbit
    sums to 1, kept when no other's type is strictly subconjugate to
    theirs, the first by (order and elements of the type, d)."""
    G, bottom = B.group, B.ring
    candidates = []  # (type subgroup, idempotent)
    for d in idempotents(bottom):
        if d == bottom.zero:
            continue
        rep = classify_idempotent(B, d)
        if rep.type is None:
            continue
        orbit = sorted({B.act(g, d) for g in G.elements()})
        if bottom.add_many(orbit) == bottom.one:
            candidates.append((rep.type, d))
    minimal = [c for c in candidates
               if not any(is_subconjugate(G, other[0], c[0]) and
                          not is_subconjugate(G, c[0], other[0])
                          for other in candidates)]
    minimal.sort(key=lambda c: (c[0].order, c[0].elements, c[1]))
    return minimal[0]


def reference_decomposition(T):
    """(reassembled, witness) of full_decomposition, built in two steps:
    the split witness P -> T from the product P of the idempotent slices,
    after the map reassembled -> P, each validated on its own; the
    single witness reassembled -> T is tested against it."""
    split_factors, split_witness = split_by_bottom_idempotents(
        T, reference_class_units(T.bottom_gring()))
    coinductions, inverses = [], []
    for Ti in split_factors:
        _, _, w = detect_coinduction(Ti)
        coinductions.append(w.target)
        inverses.append(w.inverse())
    reassembled = product(*coinductions)
    maps = {}
    for K in subgroups(T.group):
        comps = prod_components([c.levels[K].size for c in coinductions])
        maps[K] = prod_encode([f.levels[K].size for f in split_factors],
                              [w_inv.maps[K][comp] for w_inv, comp in zip(inverses, comps)])
    to_split_product = TambaraMorphism(reassembled, split_witness.source, maps)
    return reassembled, split_witness.compose(to_split_product)


def prod_decode(sizes, idx):
    """The components of product index idx, one per factor (C order)."""
    out = []
    for s in reversed(sizes):
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


def reference_fq(p, k):
    """The field with p^k elements (k >= 2) built element pair by element
    pair: polynomials of degree < k over F_p modulo the irreducible
    _IRREDUCIBLE[(p, k)], element index sum(c_i * p^i)."""
    poly = _IRREDUCIBLE[(p, k)]
    digits = [p] * k

    def decode(i):
        return prod_decode(digits, i)[::-1]

    def encode(cs):
        return prod_encode(digits, [c % p for c in reversed(cs)])

    def poly_mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(k):
                    prod[d - k + j] = (prod[d - k + j] - c * poly[j]) % p
        return prod[:k]

    n = p ** k
    add = np.zeros((n, n), dtype=np.int32)
    mul = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        a = decode(i)
        for j in range(n):
            b = decode(j)
            add[i, j] = encode([(x + y) % p for x, y in zip(a, b)])
            mul[i, j] = encode(poly_mul(a, b))
    return add, mul


def is_equivariant(hom, src, tgt):
    """hom commutes with the actions of src's and tgt's groups, matched by
    element index."""
    if src.group.order != tgt.group.order:
        return False
    img = np.asarray(hom.images)
    return all(np.array_equal(img[src.action[g]], tgt.action[g][img])
               for g in src.group.elements())


def subring_on_idempotent(R, e, label=None):
    """The ring e*R with unit e as (S, include), include[i] the R-index of
    S's element i."""
    return idempotent_subring(R, e, label)[:2]


def reference_decompose_gring(R):
    """decompose_gring worked out on the G-ring itself: each class's factor
    is the product of the subrings at its base points, acted on through the
    inclusions, and the witness sends each element of the reassembled
    product to the sum of its translated components, element by element."""
    G = R.group
    factors, coinduced, witness_parts = [], [], []
    for cls in idempotent_classes(R):
        rep, bases = cls.rep, cls.bases
        Kg, embed = rep.as_group
        subrings, includes = [], []
        for b in bases:
            S, inc = subring_on_idempotent(R.ring, b)
            subrings.append(S)
            includes.append(inc)
        factor_ring = product_ring(subrings) if len(subrings) > 1 else subrings[0]
        sizes = [S.size for S in subrings]
        pos_tables = []
        for S, inc in zip(subrings, includes):
            pos = -np.ones(R.ring.size, dtype=np.int64)
            pos[inc] = np.arange(S.size)
            pos_tables.append(pos)
        comps = prod_components(sizes)
        action = np.zeros((Kg.order, factor_ring.size), dtype=np.int64)
        for i, k in enumerate(embed):
            moved = [pos[R.action[k][inc[c]]] for pos, inc, c in zip(pos_tables, includes, comps)]
            if any((m < 0).any() for m in moved):
                raise VerificationFailed("class representative does not preserve a factor")
            action[i] = prod_encode(sizes, moved)
        S_class = GRing(factor_ring, Kg, action)
        if not is_clarified(S_class):
            raise VerificationFailed("decomposition factor is not clarified")
        factors.append((rep, S_class))
        coinduced.append(coinduce_gring(G, rep, S_class))
        witness_parts.append((rep, includes, sizes))
    reassembled = gring_product(*coinduced)

    ring = R.ring
    images = []
    outer_sizes = [c.ring.size for c in coinduced]
    for idx in range(reassembled.ring.size):
        total = ring.zero
        for (rep, includes, sizes), block in zip(witness_parts, prod_decode(outer_sizes, idx)):
            cosets = rep.left_cosets()
            per_coset = prod_decode([int(np.prod(sizes))] * len(cosets), block)
            for coset, value in zip(cosets, per_coset):
                summand = ring.zero
                for inc, comp in zip(includes, prod_decode(sizes, value)):
                    summand = int(ring.add[summand, inc[comp]])
                total = int(ring.add[total, R.act(coset[0], summand)])
        images.append(total)
    witness = RingHom(reassembled.ring, ring, tuple(images))
    if not witness.is_bijective() or not is_equivariant(witness, reassembled, R):
        raise VerificationFailed("decomposition witness is not an equivariant bijection")
    return GRingDecomposition(factors=factors, reassembled=reassembled, witness=witness)


def proper_transfer_images(T, L):
    gens = set()
    for M in subgroups(T.group):
        if M.is_subgroup_of(L) and M.order < L.order:
            gens.update(int(x) for x in T.tr[(M, L)])
    return gens


def copy_functor(T):
    return TambaraData(T.group, dict(T.levels),
                       {k: v.copy() for k, v in T.res.items()},
                       {k: v.copy() for k, v in T.tr.items()},
                       None if T.nm is None else {k: v.copy() for k, v in T.nm.items()},
                       {k: v.copy() for k, v in T.conj.items()},
                       has_norms=T.has_norms, label=T.label + "*")


def relabel_ring(R, perm):
    """R with element x renamed perm[x]."""
    p = np.asarray(perm)
    q = np.argsort(p)
    return FiniteRing(p[R.add[np.ix_(q, q)]], p[R.mul[np.ix_(q, q)]],
                      int(p[R.zero]), int(p[R.one]), label=R.label + "'")


def relabel_gring(R, seed):
    """The G-ring R with its elements renamed by a seeded random permutation."""
    p = np.random.default_rng(seed).permutation(R.ring.size)
    return GRing(relabel_ring(R.ring, p), R.group, p[R.action[:, np.argsort(p)]])


def relabel_functor(T, seed):
    """T with the elements of every level renamed by a seeded random
    permutation: a functor isomorphic to T, with every table renamed."""
    rng = np.random.default_rng(seed)
    perms = {H: rng.permutation(R.size) for H, R in T.levels.items()}
    inverses = {H: np.argsort(p) for H, p in perms.items()}
    levels = {H: relabel_ring(R, perms[H]) for H, R in T.levels.items()}
    return TambaraData.build(
        T.group, levels,
        lambda name, key, src, dst: perms[dst][T.table(name, key)[inverses[src]]],
        T.has_norms, label=T.label + "'")


def reference_build_steps(A):
    """The isomorphism search's closure as a pair loop that rescans every
    produced element and every pair on every round: the reference
    _search._build_steps is tested against.  Closure of the constants under
    all ops, extending with greedily chosen generators until every element
    of every sort is produced.

    Returns (steps, generator_positions)."""
    produced = {}
    steps = []
    gens = []

    def emit(step):
        key = (step.sort, step.index)
        if key not in produced:
            produced[key] = len(steps)
            steps.append(step)

    for name, sort, idx in A.constants:
        emit(_Step("const", sort, idx, op=name))

    def close():
        changed = True
        while changed:
            changed = False
            before = len(steps)
            for ui, (name, ssort, dsort, table) in enumerate(A.unary):
                for key, pos in list(produced.items()):
                    if key[0] != ssort:
                        continue
                    out = (dsort, table[key[1]])
                    if out not in produced:
                        emit(_Step("unary", dsort, out[1], op=ui, args=(pos,)))
            for bi, (name, sort, table) in enumerate(A.binary):
                items = [(k, p) for k, p in list(produced.items()) if k[0] == sort]
                for (k1, p1) in items:
                    for (k2, p2) in items:
                        out = (sort, table[k1[1]][k2[1]])
                        if out not in produced:
                            emit(_Step("binary", sort, out[1], op=bi, args=(p1, p2)))
            changed = len(steps) > before

    close()
    for sort in sorted(A.sorts, key=repr):
        while True:
            missing = [i for i in range(A.sorts[sort]) if (sort, i) not in produced]
            if not missing:
                break
            g = missing[0]
            gens.append(len(steps))
            emit(_Step("gen", sort, g))
            close()
    return steps, gens


def _reference_replay(steps, B, gen_images, injective):
    """Replay the closure in B; return the partial map or None on conflict."""
    image = {}
    used = defaultdict(set)

    def assign(sort, src, dst):
        key = (sort, src)
        if key in image:
            return image[key] == dst
        if injective and dst in used[sort]:
            return False
        image[key] = dst
        used[sort].add(dst)
        return True

    for pos, step in enumerate(steps):
        if step.kind == "const":
            dst = B.constants[(step.op, step.sort)]
        elif step.kind == "gen":
            dst = gen_images[pos]
        elif step.kind == "unary":
            src_step = steps[step.args[0]]
            dst = B.unary[step.op][image[(src_step.sort, src_step.index)]]
        else:
            s1 = steps[step.args[0]]
            s2 = steps[step.args[1]]
            dst = B.binary[step.op][image[(s1.sort, s1.index)]][image[(s2.sort, s2.index)]]
        if not assign(step.sort, step.index, dst):
            return None
    return image


def reference_search_homomorphisms(A, B, *, injective, budget=DEFAULT_BUDGET, limit=None):
    """The isomorphism search that replays the closure from step 0 for
    every candidate: the reference _search.search_homomorphisms is tested
    against.  Yields the same maps in the same order and spends one
    _Budget node per candidate tried, as the search does."""
    if A.signature() != B.signature():
        return
    if injective and any(A.sorts[s] > B.sorts[s] for s in A.sorts):
        return
    steps, gens = _build_steps(A)
    target = _Target(B)
    bud = _Budget(budget)
    found = [0]

    def cutoff(k):
        """Steps decidable once generators 0..k have images: up to next gen."""
        return gens[k + 1] if k + 1 < len(gens) else len(steps)

    def rec(k, partial):
        if limit is not None and found[0] >= limit:
            return
        if k == len(gens):
            image = _reference_replay(steps, target, partial, injective)
            if image is not None and len(image) == sum(A.sorts.values()):
                out = {s: [0] * A.sorts[s] for s in A.sorts}
                for (sort, i), j in image.items():
                    out[sort][i] = j
                if _is_full_hom(A, B, out):
                    found[0] += 1
                    yield out
            return
        pos = gens[k]
        sort = steps[pos].sort
        for cand in range(B.sorts[sort]):
            bud.spend()
            partial[pos] = cand
            if _reference_replay(steps[:cutoff(k)], target, partial, injective) is None:
                continue
            yield from rec(k + 1, partial)
            if limit is not None and found[0] >= limit:
                return
        partial.pop(pos, None)

    yield from rec(0, {})


def reference_burnside_tables(B, N, block=1 << 18):
    """The add and mul tables of every level of B = burnside_mod(G, N), as
    {H: (add, mul)}, by the mark-solve reference fill: each entry from the
    two coefficient vectors, their sum and their product through marks and
    solve_marks, reduced mod N and read through the code-to-class array,
    block entries at a time.

    The level's data is taken from B itself: its classes from
    index_to_vector, the code-to-class array from vector_to_index of every
    vector in [0, N)^k, and the marks from a fresh _Level."""
    out = {}
    for H, R in B.levels.items():
        lv = _Level(B.group, H)
        radix = [N] * lv.nclasses
        rep_index = np.array([R.vector_to_index(v) for v in prod_components(radix).T.tolist()])

        def encode(cols):
            return prod_encode(radix, [c % N for c in cols])

        arr = np.array(R.index_to_vector, dtype=np.int64)
        n = len(arr)
        cols, mcols = arr.T, lv.to_marks(arr).T
        add = np.empty((n, n), dtype=np.int32)
        mul = np.empty((n, n), dtype=np.int32)
        rows = max(1, block // n)
        for s in range(0, n, rows):
            blk = slice(s, s + rows)
            add[blk] = rep_index[encode([c[blk, None] + c for c in cols])]
            mul[blk] = rep_index[encode(lv.solve_marks([m[blk, None] * m for m in mcols]))]
        out[H] = (add, mul)
    return out


def reference_dumps_document(doc):
    """The writer serialize.dumps_document is tested against: every array
    listed by tolist(), every packed table's "<u2" bytes base64-encoded in
    one piece, and the whole document through one json.dumps."""
    def plain(a):
        return packed_block(a.table)["b64"] if isinstance(a, _Base64) else a.tolist()

    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=plain) + "\n"


def packed_block(table):
    """The packed form of a table of ring indices, at any size, its bytes
    encoded in one piece."""
    A = np.asarray(table)
    return {"b64": base64.b64encode(A.astype("<u2").tobytes()).decode("ascii"),
            "dtype": "<u2", "shape": list(A.shape)}


def unpacked(x):
    """The JSON value x with every packed table in it turned back into
    nested lists."""
    if isinstance(x, dict) and set(x) == {"b64", "dtype", "shape"}:
        raw = np.frombuffer(base64.b64decode(x["b64"], validate=True), x["dtype"])
        return raw.reshape(x["shape"]).tolist()
    if isinstance(x, dict):
        return {k: unpacked(v) for k, v in x.items()}
    return [unpacked(v) for v in x] if isinstance(x, list) else x


def reference_closure(G, seed):
    """The subgroup generated by seed, as its sorted element tuple: closed
    element by element under products on both sides and inverses."""
    els = set(seed) | {0}
    frontier = list(els)
    while frontier:
        nxt = []
        for a in list(els):
            for b in frontier:
                for c in (G.mul(a, b), G.mul(b, a)):
                    if c not in els:
                        els.add(c)
                        nxt.append(c)
        for b in frontier:
            c = G.inv(b)
            if c not in els:
                els.add(c)
                nxt.append(c)
        frontier = nxt
    return tuple(sorted(els))


def reference_subgroups(G):
    """The element tuples of all subgroups of G sorted by (order, tuple),
    found breadth first from {e} by joining each with every g outside it."""
    found = {reference_closure(G, [])}
    frontier = list(found)
    while frontier:
        nxt = []
        for s in frontier:
            for g in set(G.elements()).difference(s):
                t = reference_closure(G, s + (g,))
                if t not in found:
                    found.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(found, key=lambda e: (len(e), e))


def reference_generators(G):
    """Repeatedly the smallest element outside the subgroup generated so far."""
    gens = []
    while len(reference_closure(G, gens)) < G.order:
        gens.append(min(set(G.elements()).difference(reference_closure(G, gens))))
    return tuple(gens)


def symmetric_group(n):
    base = list(range(n))
    gens = []
    if n >= 2:
        t = base.copy()
        t[0], t[1] = t[1], t[0]
        gens.append(t)
    if n >= 3:
        gens.append([(i + 1) % n for i in range(n)])
    if not gens:
        gens = [base]
    return FiniteGroup.from_permutations(gens, name=f"S{n}")


def dihedral_group(n):
    """Dihedral group of order 2n acting on an n-gon."""
    rot = [(i + 1) % n for i in range(n)]
    flip = [(-i) % n for i in range(n)]
    return FiniteGroup.from_permutations([rot, flip], name=f"D{n}")


def quaternion_group():
    """Quaternion group Q8 as permutations of {1,i,j,k,...} by left mult."""
    # elements 1,-1,i,-i,j,-j,k,-k indexed 0..7
    def q_mul(a, b):
        names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        sign = lambda s: -1 if s.startswith("-") else 1
        unit = lambda s: s.lstrip("-")
        table = {
            ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("i", "i"): "-1", ("i", "j"): "k", ("i", "k"): "-j",
            ("j", "1"): "j", ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "i",
            ("k", "1"): "k", ("k", "i"): "j", ("k", "j"): "-i", ("k", "k"): "-1",
        }
        sa, sb = names[a], names[b]
        s = sign(sa) * sign(sb)
        r = table[(unit(sa), unit(sb))]
        s *= sign(r)
        r = unit(r)
        out = ("" if s == 1 else "-") + r
        return names.index(out)

    mul = [[q_mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(mul, name="Q8")


def direct_product(g1, g2, name=None):
    n1, n2 = g1.order, g2.order
    enc = lambda a, b: a * n2 + b
    mul = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, b1 in iproduct(range(n1), range(n2)):
        for a2, b2 in iproduct(range(n1), range(n2)):
            mul[enc(a1, b1)][enc(a2, b2)] = enc(g1.mul(a1, a2), g2.mul(b1, b2))
    return FiniteGroup(mul, name=name or f"{g1.name}x{g2.name}")


@st.composite
def permutation_groups(draw):
    """The group generated by 1-3 random permutations of at most 6 points;
    a draw whose group has order above 24 (the group order cap) is dropped."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    try:
        return FiniteGroup.from_permutations(gens)
    except SizeLimitExceeded:
        assume(False)


def mutation_fixtures():
    """One broken functor per axiom family, with the family it must fail."""
    import corpus  # here, not at the top: corpus builds its groups with this module

    e, full = corpus.C2.trivial_subgroup, corpus.C2.full_subgroup
    out = []

    T = copy_functor(corpus.FP_CORPUS["F4_galois_C2"])
    nm = T.nm[(e, full)].copy()
    nm[2] = T.levels[full].zero
    T.nm[(e, full)] = nm
    out.append(("broken multiplicativity", T, "contracts"))

    T = copy_functor(corpus.FP_CORPUS["F4_galois_C2"])
    T.conj[(1, full)] = np.array([1, 0])
    out.append(("c_h not identity", T, "conjugation"))

    T = copy_functor(corpus.FP_CORPUS["F4_galois_C2"])
    tr = T.tr[(e, full)]
    T.tr[(e, full)] = T.levels[full].add[tr, tr]
    out.append(("doubled transfer", T, "mackey_additive"))

    T = copy_functor(corpus.FP_CORPUS["F9_galois_C2"])
    nm = T.nm[(e, full)]
    T.nm[(e, full)] = T.levels[full].mul[nm, nm]
    out.append(("squared norm", T, "mackey_norm"))

    T = copy_functor(corpus.GREEN_CORPUS["green_cex_2_F2"])
    G = T.group
    eg, fg = G.trivial_subgroup, G.full_subgroup
    tr = T.tr[(eg, fg)]
    vec = [divmod(int(t), 2)[0] for t in tr]
    T.tr[(eg, fg)] = np.array([v * 2 + v for v in vec])
    out.append(("diagonal transfer", T, "frobenius"))

    T = copy_functor(corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    top = T.levels[full]
    k = top.vector_to_index((1, 2))
    tr = T.tr[(e, full)].copy()
    for a in range(4):
        if a % 2 == 1:
            tr[a] = top.add[tr[a], k]
    T.tr[(e, full)] = tr
    out.append(("kernel-twisted transfer", T, "exponential"))
    return out


def random_assembly(G, rng, max_bottom=2048):
    """A random product of coinductions of clarified template factors over
    distinct conjugacy classes.  Returns (T, expected) with expected the
    list of (class representative, template functor)."""
    import corpus  # as in mutation_fixtures

    classes = [cls[0] for cls in subgroup_conjugacy_classes(G)]
    k = rng.randint(1, min(3, len(classes)))
    chosen = rng.sample(classes, k)
    expected = []
    parts = []
    bottom = 1
    for H in sorted(chosen, key=lambda s: (s.order, s.elements)):
        Hg, _ = H.as_group
        index = G.order // H.order
        options = [corpus.F2]
        if 2 ** index <= 256:
            options.append(corpus.F3)
            if index <= 2:
                options.append(product_ring([corpus.F2, corpus.F2]))
        ring = rng.choice(options)
        if bottom * ring.size ** index > max_bottom:
            ring = corpus.F2
        if bottom * ring.size ** index > max_bottom:
            continue
        bottom *= ring.size ** index
        if H.order == 2 and ring.size == 4 and rng.random() < 0.5:
            ell = fixed_point_functor(corpus.galois_gring(corpus.F4, Hg))
        else:
            ell = constant_functor(ring, Hg)
        expected.append((H, ell))
        parts.append(coinduce(G, H, ell))
    if not parts:
        Hg, _ = G.full_subgroup.as_group
        ell = constant_functor(corpus.F2, Hg)
        expected.append((G.full_subgroup, ell))
        parts.append(coinduce(G, G.full_subgroup, ell))
    return product(*parts), expected


# -- test-only API: no caller in the package, its CLI or the benchmark ------


def reference_conjugation_failures(T):
    """The conjugation family as three loops of table identities, one
    np.array_equal per identity: c_h = id (H, then h in H), c_g1 c_g2 =
    c_g1g2 (g1, g2, H) and conj intertwining each map along inclusions (g,
    then structure_maps order).  Returns (identities checked, every failure
    description in that order); check_axioms reports the first few."""
    G = T.group
    subs = subgroups(G)
    along = [m for m in structure_maps(G, T.has_norms) if m[0] != "conj"]
    count, failures = 0, []
    for H in subs:
        for h in H.elements:
            count += 1
            if not np.array_equal(T.conj[(h, H)], np.arange(T.levels[H].size)):
                failures.append(f"c_{h} is not the identity on level {H.elements}")
    for g1 in G.elements():
        for g2 in G.elements():
            g12 = G.mul(g1, g2)
            for H in subs:
                H2 = H.conjugate(g2)
                count += 1
                if not np.array_equal(T.conj[(g1, H2)][T.conj[(g2, H)]], T.conj[(g12, H)]):
                    failures.append(f"c_{g1} c_{g2} != c_{g12} on level {H.elements}")
    for g in G.elements():
        for name, (K, H), src, dst in along:
            count += 1
            if not np.array_equal(T.conj[(g, dst)][T.table(name, (K, H))],
                                  T.table(name, (K.conjugate(g), H.conjugate(g)))[T.conj[(g, src)]]):
                failures.append(f"conj/{name} intertwining fails at g={g}, {K.elements}<={H.elements}")
    return count, failures


def first_failure(report):
    """The first failure of a CheckReport, or None."""
    return report.failures[0] if report.failures else None


def subgroup_conjugacy_classes(G):
    """G's subgroups in their conjugacy classes: each class in lattice
    order, the classes by their first member, the class's least subgroup."""
    return conjugacy_classes(subgroups(G), G.elements())


def gset_isomorphism(X, Y):
    """An equivariant bijection X -> Y, or None.

    Orbits are matched by stabilizer conjugacy in canonical order, so the
    result is deterministic.
    """
    if X.group is not Y.group or X.size != Y.size:
        return None
    G = X.group
    xorbs = orbit_decomposition(X)
    yorbs = orbit_decomposition(Y)
    used = [False] * len(yorbs)
    target_bases = []
    for xo in xorbs:
        match = None
        for j, yo in enumerate(yorbs):
            if used[j] or len(yo.points) != len(xo.points):
                continue
            u = next((g for g in G.elements()
                      if yo.stabilizer.conjugate(g) is xo.stabilizer), None)
            if u is not None:
                match = (j, yo, u)
                break
        if match is None:
            return None
        j, yo, u = match
        used[j] = True
        # stabilizer u Stab(yo.base) u^-1 == Stab(xo.base)
        target_bases.append(Y.act(u, yo.base))
    try:
        m = GSetMap(X, Y, tuple(Y.act(g, target_bases[i])
                                for g, i in zip(X.carrier, X.orbit_of)))
    except DefinitionError:
        return None
    if sorted(m.images) != list(range(Y.size)):
        return None
    return m


def gring_restrict(K, R):
    """The same ring with the action restricted to K (as its own group)."""
    if R.group is not K.parent:
        raise GroupMismatch("K must be a subgroup of R's group")
    Kg, embed = K.as_group
    return GRing(R.ring, Kg, R.action[list(embed)])


def identity_map(X):
    return GSetMap(X, X, tuple(range(X.size)))


def trivial_gset(G, n):
    return GSet(G, np.broadcast_to(np.arange(n), (G.order, n)))


def orbit_coset_iso(X, orbit):
    """The equivariant map G/Stab(base) -> X hitting exactly the orbit."""
    H = orbit.stabilizer
    return GSetMap(coset_gset(X.group, H), X,
                   tuple(X.act(c[0], orbit.base) for c in H.left_cosets()))


def _ring_structure(R):
    return OpStructure(
        sorts={"r": R.size},
        constants=[("zero", "r", R.zero), ("one", "r", R.one)],
        unary=[("neg", "r", "r", negatives(R))],
        binary=[("add", "r", R.add), ("mul", "r", R.mul)],
    )


def _gring_structure(R):
    s = _ring_structure(R.ring)
    for g in R.group.elements():
        s.unary.append((f"act{g}", "r", "r", R.action[g]))
    return s


def ring_isomorphism(A, B, budget=DEFAULT_BUDGET):
    image = find_isomorphism(_ring_structure(A), _ring_structure(B), budget)
    if image is None:
        return None
    return RingHom(A, B, tuple(image["r"]))


def gring_isomorphism(A, B, budget=DEFAULT_BUDGET):
    image = find_isomorphism(_gring_structure(A), _gring_structure(B), budget)
    if image is None:
        return None
    return RingHom(A.ring, B.ring, tuple(image["r"]))


def gring_homomorphisms(A, B, budget=DEFAULT_BUDGET, limit=None):
    """All equivariant unital ring homomorphisms A -> B."""
    for image in search_homomorphisms(
            _gring_structure(A), _gring_structure(B), injective=False,
            budget=budget, limit=limit):
        yield RingHom(A.ring, B.ring, tuple(image["r"]))
