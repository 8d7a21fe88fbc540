"""The Burnside Tambara functor with coefficients reduced mod N.

Level H is the Burnside ring of H on the basis of transitive H-sets
(H-conjugacy classes of subgroups).  Restriction is restriction of sets,
transfer is induction, the norm is coinduction of sets, and multiplication
is computed in fixed-point (mark) coordinates, where it is pointwise and
the norm is the double-coset monomial map

    mark_L(nm_K^H x) = prod over K\\H/L of mark_{K cap gLg^-1}(x).

Reducing coefficients mod N is a Green-functor quotient but NOT a Tambara
quotient: the integral norm does not preserve N * A(H) levelwise (already
for C_p mod p^2 the x-coefficient of nm picks up terms of order p).  The
level rings here are therefore the quotient of (Z/N)-coefficient vectors
by the smallest levelwise ideal that is closed under restriction,
transfer, conjugation, and norm perturbation; on that quotient the norm of
a canonical nonnegative lift is well defined and all axioms hold exactly.

Everything is computed on codes: a level with k basis classes numbers its
N^k coefficient vectors v by the big-endian base-N code v . N^(k-1..0), so
code order is lexicographic order.  Each level's ideal is a boolean mask
over its codes, grown by a worklist fixpoint in which only the members new
since the last round go through the rules: the subgroup they generate with
the current members (the multiples of each new member added to every
member), their products with the k basis classes (enough, by bilinearity
and additive closure), their images under res, tr and conj, and their norm
perturbations nm(v + t) - nm(v), read from one table per pair K < H of the
norms of all lifts in [0, 2N)^k.  A coset's representative is its smallest
code, i.e. its lexicographically minimal vector; one array per level maps
every code to the index of its coset, and every structure table is a
gather through that array.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence

import numpy as np

from .errors import DefinitionError, SizeLimitExceeded, UnsupportedGroup
from .groups import FiniteGroup, Subgroup, double_cosets, subgroups
from .rings import FiniteRing, prod_components, prod_encode

BURNSIDE_LEVEL_CAP = 4096


def _h_classes(G: FiniteGroup, H: Subgroup) -> List[List[Subgroup]]:
    """H-conjugacy classes of subgroups of H, ascending by order; each class
    sorted with the minimal member first."""
    seen = set()
    classes = []
    for A, top in G.subgroup_pairs:
        if top != H or A.elements in seen:
            continue
        cls = sorted({A.conjugate(h).elements for h in H.elements})
        seen.update(cls)
        classes.append([G.subgroup(e) for e in cls])
    classes.sort(key=lambda c: (c[0].order, c[0].elements))
    return classes


class _Level:
    """Integral Burnside-ring data for one subgroup H."""

    def __init__(self, G: FiniteGroup, H: Subgroup) -> None:
        self.G = G
        self.H = H
        self.classes = _h_classes(G, H)
        self.reps = [c[0] for c in self.classes]
        self.nclasses = len(self.classes)
        self.class_of = {}
        for i, cls in enumerate(self.classes):
            for A in cls:
                self.class_of[A.elements] = i
        # marks[a][l] = number of cosets hA (A = reps[a]) fixed by L = reps[l],
        # i.e. #{h in H : h^-1 L h <= A} / |A|
        self.marks = np.array(
            [[sum(L.conjugate(G.inv(h)).is_subgroup_of(A) for h in H.elements) // A.order
              for L in self.reps] for A in self.reps], dtype=np.int64)

    def to_marks(self, v: Sequence[int]) -> np.ndarray:
        return np.asarray(v, dtype=np.int64) @ self.marks

    def from_marks(self, m: np.ndarray) -> np.ndarray:
        """Solve u @ marks = m exactly (marks is triangular by class order).

        Keeps the input dtype, so exact arbitrary-precision arithmetic works
        by passing an object array.
        """
        m = np.array(m)
        single = m.ndim == 1
        u = np.stack(self.solve_marks(list(np.atleast_2d(m).T)), axis=-1)
        return u[0] if single else u

    def solve_marks(self, cols: List[np.ndarray]) -> List[np.ndarray]:
        """from_marks column by column: cols[l] holds the mark at class l of
        every vector (any shape); returns the coefficient columns."""
        u: List[np.ndarray] = [None] * self.nclasses
        for l in range(self.nclasses - 1, -1, -1):
            rest = cols[l]
            for j in range(l + 1, self.nclasses):
                if self.marks[j, l]:
                    rest = rest - u[j] * int(self.marks[j, l])
            d = int(self.marks[l, l])
            if d != 1:
                q = rest // d
                if np.asarray(rest - q * d != 0).any():
                    raise ArithmeticError("mark vector is not in the Burnside lattice")
                rest = q
            u[l] = rest
        return u


def _norm_marks(G: FiniteGroup, src: _Level, dst: _Level,
                m_src: np.ndarray) -> np.ndarray:
    """Marks of nm_K^H(x) from the marks of x; works on batches.

    Accumulates in Python ints: the product over double cosets can exceed
    int64 already at order 12.
    """
    K, H = src.H, dst.H
    single = m_src.ndim == 1
    m = (m_src[None, :] if single else m_src).astype(object)
    out = np.ones((m.shape[0], dst.nclasses), dtype=object)
    for l, L in enumerate(dst.reps):
        for g, _ in double_cosets(G, K, L, within=H):
            inter = K.intersect(L.conjugate(g))
            out[:, l] *= m[:, src.class_of[inter.elements]]
    return out[0] if single else out


def _vector_to_index(radix: List[int], rep_index: np.ndarray, vec: Sequence[int]) -> int:
    """The index of the class of an integer coefficient vector, read mod N,
    at a level with radix [N] * k and code-to-class array rep_index."""
    v = np.asarray(vec, dtype=np.int64)
    if v.shape != (len(radix),):
        raise DefinitionError(f"expected {len(radix)} coefficients, got shape {v.shape}")
    return int(rep_index[prod_encode(radix, v % radix[0])])


def burnside_mod(G: FiniteGroup, N: int, level_cap: int = BURNSIDE_LEVEL_CAP):
    """The mod-N Burnside Tambara functor of G (order <= 12)."""
    from .functors import TambaraData

    if G.order > 12:
        raise UnsupportedGroup("burnside_mod supports groups of order <= 12")
    if N < 2:
        raise UnsupportedGroup("burnside_mod needs N >= 2")
    subs = subgroups(G)
    levels = {H: _Level(G, H) for H in subs}
    for H, lv in levels.items():
        if N ** lv.nclasses > level_cap:
            raise SizeLimitExceeded(
                f"level at {H.elements} would have {N ** lv.nclasses} elements")

    pairs = G.subgroup_pairs
    block = 1 << 18  # entries per column of a temporary built in blocks
    radix = {H: [N] * levels[H].nclasses for H in subs}
    # vectors[H][c] is the coefficient vector with code c
    vectors = {H: prod_components(radix[H]).T for H in subs}

    def encode(H: Subgroup, cols) -> np.ndarray:
        """Codes at level H of integer vectors given by their coefficient
        columns (cols[i] holds coefficient i), reduced mod N."""
        return prod_encode(radix[H], [c % N for c in cols])

    def nm_of_vectors(K: Subgroup, H: Subgroup, v: np.ndarray) -> List[np.ndarray]:
        """Integral norms of nonnegative coefficient vectors, reduced mod N,
        as coefficient columns."""
        lk, lh = levels[K], levels[H]
        marks = _norm_marks(G, lk, lh, lk.to_marks(v))
        return [(c % N).astype(np.int64) for c in lh.solve_marks(list(marks.T))]

    # linear generators: res, tr, conj on basis vectors, as maps of codes
    res_code: Dict[tuple, np.ndarray] = {}
    tr_code: Dict[tuple, np.ndarray] = {}
    for (K, H) in pairs:
        lk, lh = levels[K], levels[H]
        R = np.zeros((lh.nclasses, lk.nclasses), dtype=np.int64)
        for a, A in enumerate(lh.reps):
            for g, _ in double_cosets(G, K, A, within=H):
                inter = K.intersect(A.conjugate(g))
                R[a, lk.class_of[inter.elements]] += 1
        res_code[(K, H)] = encode(K, (vectors[H] @ R).T)
        Tm = np.zeros((lk.nclasses, lh.nclasses), dtype=np.int64)
        for b, B in enumerate(lk.reps):
            Tm[b, lh.class_of[B.elements]] += 1
        tr_code[(K, H)] = encode(H, (vectors[K] @ Tm).T)
    conj_code: Dict[tuple, np.ndarray] = {}
    for g in G.elements():
        for H in subs:
            lh, lhg = levels[H], levels[H.conjugate(g)]
            C = np.zeros((lh.nclasses, lhg.nclasses), dtype=np.int64)
            for a, A in enumerate(lh.reps):
                C[a, lhg.class_of[A.conjugate(g).elements]] += 1
            conj_code[(g, H)] = encode(H.conjugate(g), (vectors[H] @ C).T)

    # norms of the lifts in [0, 2N)^k of level-K vectors, by base-2N code:
    # a vector plus an ideal member, or plus N e_i, is such a lift, and with
    # no carries the code of a sum is the sum of the codes
    lift = {K: prod_encode([2 * N] * len(radix[K]), vectors[K].T) for K in subs}
    nm_lift = {(K, H): nm_of_vectors(K, H, prod_components([2 * N] * len(radix[K])).T)
               for (K, H) in pairs if K != H}

    ideal = {H: np.zeros(len(vectors[H]), dtype=bool) for H in subs}
    for H in subs:
        ideal[H][0] = True
    fresh: Dict[Subgroup, list] = {H: [] for H in subs}

    def add(H: Subgroup, codes: np.ndarray) -> None:
        """Grow the ideal at H to the subgroup generated with these codes;
        the members this adds are queued in fresh[H]."""
        mask, vecs = ideal[H], vectors[H]
        codes = codes[~mask[codes]]
        while codes.size:
            members, step = vecs[mask], vecs[codes[0]]
            shift, cosets = step, []
            while not mask[encode(H, shift)]:
                cosets.append(encode(H, (members + shift).T))
                shift = shift + step
            new = np.concatenate(cosets)
            mask[new] = True
            fresh[H].append(new)
            codes = codes[~mask[codes]]

    def perturb(K: Subgroup, H: Subgroup, t: np.ndarray) -> None:
        """Add nm(v + t) - nm(v) for every level-K vector v and member t."""
        base = [c[lift[K]] for c in nm_lift[(K, H)]]
        chunk = max(1, block // len(lift[K]))
        for s in range(0, len(t), chunk):
            shifted = lift[K][t[s:s + chunk], None] + lift[K]
            add(H, encode(H, [c[shifted] - b for c, b in zip(nm_lift[(K, H)], base)]).ravel())

    # the congruence ideal: start from the forced N-lift norm differences
    for (K, H) in pairs:
        if K != H:
            k = len(radix[K])
            for i in range(k):
                up = N * (2 * N) ** (k - 1 - i)
                add(H, encode(H, [c[lift[K] + up] - c[lift[K]] for c in nm_lift[(K, H)]]))

    # close under linear maps, ring multiplication, and norm perturbation
    while any(fresh.values()):
        for H in subs:
            if not fresh[H]:
                continue
            t = np.concatenate(fresh[H])
            fresh[H] = []
            lv = levels[H]
            tm = lv.to_marks(vectors[H][t]).T
            for i in range(lv.nclasses):
                add(H, encode(H, lv.solve_marks([m * x for m, x in zip(tm, lv.marks[i])])))
            for (K, top) in pairs:
                if top is H:
                    add(K, res_code[(K, H)][t])
                if K is H:
                    add(top, tr_code[(H, top)][t])
                    if top is not H:
                        perturb(H, top, t)
            for g in G.elements():
                add(H.conjugate(g), conj_code[(g, H)][t])

    # quotient levels: the representative of a coset is its smallest code
    reps: Dict[Subgroup, np.ndarray] = {}
    rep_index: Dict[Subgroup, np.ndarray] = {}
    rings: Dict[Subgroup, FiniteRing] = {}
    for H in subs:
        lv, vecs = levels[H], vectors[H]
        smallest = np.arange(len(vecs))
        for m in vecs[ideal[H]][1:]:
            np.minimum(smallest, encode(H, (vecs + m).T), out=smallest)
        reps[H], rep_index[H] = np.unique(smallest, return_inverse=True)
        arr = vecs[reps[H]]
        n, k = arr.shape
        cols, mcols = arr.T, lv.to_marks(arr).T
        add_t = np.empty((n, n), dtype=np.int32)
        mul_t = np.empty((n, n), dtype=np.int32)
        rows = max(1, block // n)
        for s in range(0, n, rows):
            blk = slice(s, s + rows)
            add_t[blk] = rep_index[H][encode(H, [c[blk, None] + c for c in cols])]
            prods = lv.solve_marks([m[blk, None] * m for m in mcols])
            mul_t[blk] = rep_index[H][encode(H, prods)]
        one_vec = np.zeros(k, dtype=np.int64)
        one_vec[lv.class_of[H.elements]] = 1
        ring = FiniteRing(add_t, mul_t, rep_index[H][0], rep_index[H][encode(H, one_vec)],
                          label=f"A({H.elements})/{N}")
        ring.basis_classes = [A.elements for A in lv.reps]
        ring.index_to_vector = [tuple(v) for v in arr.tolist()]
        ring.vector_to_index = partial(_vector_to_index, radix[H], rep_index[H])
        rings[H] = ring

    res = {}
    tr = {}
    nm = {}
    for (K, H) in pairs:
        res[(K, H)] = rep_index[K][res_code[(K, H)][reps[H]]]
        tr[(K, H)] = rep_index[H][tr_code[(K, H)][reps[K]]]
        nm[(K, H)] = rep_index[H][encode(H, nm_of_vectors(K, H, vectors[K][reps[K]]))]
    conj = {}
    for g in G.elements():
        for H in subs:
            conj[(g, H)] = rep_index[H.conjugate(g)][conj_code[(g, H)][reps[H]]]

    return TambaraData(G, rings, res, tr, nm, conj, has_norms=True,
                       label=f"Burnside({G.name}) mod {N}")

