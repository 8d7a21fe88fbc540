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
every code to the index of its coset, and res, tr, conj and nm are gathers
through that array (nm of a representative read off the lift table).

A level's add and mul tables are filled from the rows of its steps, the
multiples c e_l of the basis classes with c = d * 16^j < N, 0 < d < 16
(STEP_BASE = 16):
steps[s][y] is the class of y + s and times[s][y] that of s * y, computed
exactly from the representatives (s * y through marks and solve_marks).
Each class x is reached from 0 breadth-first, as x = p + s with p in an
earlier layer, and then

    add[x] = steps[s][add[p]]        mul[x] = add[mul[p], times[s]],

one gather per entry.  This is exact because the quotient by the ideal is
a ring: + is associative on classes, so x + y = s + (p + y), and
distributivity gives x * y = p * y + s * y.  Breadth-first order puts a
parent in an earlier layer than its children, so a layer's rows are
filled after their parents' rows; all of add comes before any of mul,
whose rows name arbitrary classes.  Every class is reached (the steps
generate the group); one that is not raises VerificationFailed.  With
base 16 a class takes at most k ceil(log16 N) steps (k for N <= 16), and
the step tables have at most 15 k ceil(log16 N) rows, 184320 entries
under BURNSIDE_LEVEL_CAP; the fill gathers FILL_BLOCK entries at a time.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DefinitionError, SizeLimitExceeded, UnsupportedGroup, VerificationFailed
from .groups import FiniteGroup, Subgroup, conjugacy_classes, double_cosets, subgroups
from .rings import FiniteRing, prod_components, prod_encode

BURNSIDE_LEVEL_CAP = 4096
# Each breadth-first layer of the table fill costs tens of microseconds
# beyond its gathers.  Base 16 makes every coefficient below 16 one step
# (depth <= k); per call it measured up to 12% faster than steps 2^j e_l
# (C2 mod 4 0.65 against 0.74 ms, C4 mod 8 2.18 against 2.39 ms, C4 mod 9
# 11.0 against 11.0 ms; best of 9).
STEP_BASE = 16
# Entries gathered at a time by the table fill: its int32 temporaries then
# stay in cache.  The 729-element level of C4 mod 9 fills in 4.7 ms at
# 2^15 entries, 4.9 at 2^16 and 8.2 at 2^18, the 1024-element level of
# S3 mod 8 in 9.1, 9.5 and 9.9 ms (best of 3 to 20).
FILL_BLOCK = 1 << 15


class _Level:
    """Integral Burnside-ring data for one subgroup H."""

    def __init__(self, G: FiniteGroup, H: Subgroup) -> None:
        self.G = G
        self.H = H
        # H-conjugacy classes of subgroups of H, in lattice order
        self.classes = conjugacy_classes([A for A in subgroups(G) if A.is_subgroup_of(H)],
                                         H.elements)
        self.reps = [c[0] for c in self.classes]
        self.nclasses = len(self.classes)
        self.class_of = {A: i for i, cls in enumerate(self.classes) for A in cls}
        # marks[a][l] = number of cosets hA (A = reps[a]) fixed by L = reps[l],
        # i.e. #{h in H : h^-1 L h <= A} / |A|
        self.marks = np.array(
            [[sum(L.conjugate(G.inv(h)).is_subgroup_of(A) for h in H.elements) // A.order
              for L in self.reps] for A in self.reps], dtype=np.int64)

    def to_marks(self, v: Sequence[int]) -> np.ndarray:
        return np.asarray(v, dtype=np.int64) @ self.marks

    def solve_marks(self, cols: List[np.ndarray]) -> List[np.ndarray]:
        """Solve u @ marks = m exactly, column by column (marks is triangular
        by class order): cols[l] holds the mark at class l of every vector
        (any shape); returns the coefficient columns.  Keeps the input
        dtype, so object arrays give exact arbitrary-precision arithmetic."""
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
    """Marks of nm_K^H(x) from the marks of x, for a batch: row i of m_src
    holds the marks of one x.

    Accumulates in Python ints: the product over double cosets can exceed
    int64 already at order 12.
    """
    K, H = src.H, dst.H
    m = m_src.astype(object)
    out = np.ones((m.shape[0], dst.nclasses), dtype=object)
    for l, L in enumerate(dst.reps):
        for g, _ in double_cosets(G, K, L, within=H):
            out[:, l] *= m[:, src.class_of[K.intersect(L.conjugate(g))]]
    return out


def _vector_to_index(radix: List[int], rep_index: np.ndarray, vec: Sequence[int]) -> int:
    """The index of the class of an integer coefficient vector, read mod N,
    at a level with radix [N] * k and code-to-class array rep_index.  Each
    coefficient must be an int or a numpy integer; a bool, float or str is
    refused rather than read as an integer."""
    try:
        coeffs = list(vec)
    except TypeError:
        coeffs = None
    if coeffs is None or len(coeffs) != len(radix) or not all(
            isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in coeffs):
        raise DefinitionError(f"expected {len(radix)} integer coefficients, got {vec!r}")
    return int(rep_index[prod_encode(radix, [int(c) % radix[0] for c in coeffs])])


def _fill_from_steps(steps: np.ndarray, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The add and mul tables of a ring on classes 0..n-1 (0 the zero) from
    the rows of its steps: steps[s][y] and times[s][y] are the classes of
    y + s and of s * y, where the steps s generate the additive group.

    Each class x is reached from 0 breadth-first, as x = p + s with p a
    class of an earlier layer; then row x of add is row p carried along
    y -> y + s, and row x of mul is the sum of row p and y -> s * y, one
    gather per entry (none in the first layer, where p = 0).  At most
    FILL_BLOCK entries of a table are gathered at a time.
    """
    n = steps.shape[1]
    add_t = np.empty((n, n), dtype=np.int32)
    mul_t = np.empty((n, n), dtype=np.int32)
    # the first layer, the classes 0 + s of the steps, has the steps' rows
    first = steps[:, 0]
    add_t[0], mul_t[0] = np.arange(n), 0
    add_t[first], mul_t[first] = steps, times
    layers = []
    pos = np.full(n, -1, dtype=np.int32)  # where a class was reached
    pos[0] = pos[first] = 0
    frontier = (pos == 0).nonzero()[0]
    reached = frontier.size
    while reached < n:
        if not frontier.size:
            raise VerificationFailed("the steps do not generate the level")
        fresh = pos < 0
        reach = steps[:, frontier].ravel()
        pos[reach] = np.arange(reach.size)
        new = (fresh & (pos >= 0)).nonzero()[0]
        step, at = np.divmod(pos[new], frontier.size)
        layers.append((new, frontier[at], step))
        frontier, reached = new, reached + new.size
    rows = max(1, FILL_BLOCK // n)
    for x, p, s in layers:
        for c in range(0, len(x), rows):
            b = slice(c, c + rows)
            add_t[x[b]] = np.take(steps, s[b, None] * n + add_t[p[b]])
    for x, p, s in layers:
        for c in range(0, len(x), rows):
            b = slice(c, c + rows)
            mul_t[x[b]] = np.take(add_t, mul_t[p[b]] * n + times[s[b]])
    return add_t, mul_t


def burnside_mod(G: FiniteGroup, N: int):
    """The mod-N Burnside Tambara functor of G (order <= 12).  Each level
    is A(H) with Z/N coefficients modulo an ideal: a quotient ring."""
    from .functors import TambaraData

    if G.order > 12:
        raise UnsupportedGroup("burnside_mod supports groups of order <= 12")
    if N < 2:
        raise UnsupportedGroup("burnside_mod needs N >= 2")
    subs = subgroups(G)
    levels = {H: _Level(G, H) for H in subs}
    for H, lv in levels.items():
        if N ** lv.nclasses > BURNSIDE_LEVEL_CAP:
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
                R[a, lk.class_of[inter]] += 1
        res_code[(K, H)] = encode(K, (vectors[H] @ R).T)
        Tm = np.zeros((lk.nclasses, lh.nclasses), dtype=np.int64)
        for b, B in enumerate(lk.reps):
            Tm[b, lh.class_of[B]] += 1
        tr_code[(K, H)] = encode(H, (vectors[K] @ Tm).T)
    conj_code: Dict[tuple, np.ndarray] = {}
    for g in G.elements():
        for H in subs:
            lh, lhg = levels[H], levels[H.conjugate(g)]
            C = np.zeros((lh.nclasses, lhg.nclasses), dtype=np.int64)
            for a, A in enumerate(lh.reps):
                C[a, lhg.class_of[A.conjugate(g)]] += 1
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

    # quotient levels: the representative of a coset is its smallest code; the
    # tables are filled along the steps c e_l, c = d * STEP_BASE^j < N with
    # 0 < d < STEP_BASE
    mults = np.array([d * STEP_BASE ** j for j in range(N.bit_length())
                      for d in range(1, STEP_BASE) if d * STEP_BASE ** j < N])[:, None, None]
    reps: Dict[Subgroup, np.ndarray] = {}
    rep_index: Dict[Subgroup, np.ndarray] = {}
    rings: Dict[Subgroup, FiniteRing] = {}
    for H in subs:
        lv, vecs = levels[H], vectors[H]
        codes = np.arange(len(vecs))
        smallest = codes.copy()
        members = vecs[ideal[H]].T
        chunk = max(1, block // vecs.size)
        for s in range(1, members.shape[1], chunk):
            shifted = vecs.T[:, None] + members[:, s:s + chunk, None]
            np.minimum(smallest, encode(H, shifted).min(axis=0), out=smallest)
        own = smallest == codes  # the representatives, in code order
        reps[H], rep_index[H] = codes[own], (np.cumsum(own, dtype=np.int32) - 1)[smallest]
        arr = vecs[reps[H]]
        n, k = arr.shape
        # the code of c e_l + y is y's code plus ((y_l + c) % N - y_l) N^(k-1-l)
        place = N ** np.arange(k - 1, -1, -1)[:, None]
        steps = rep_index[H][reps[H] + place * ((arr.T + mults) % N - arr.T)]
        # c e_l * y is c times e_l * y, whose coefficients the marks give
        prods = lv.solve_marks(lv.marks.T[:, :, None] * lv.to_marks(arr).T[:, None])
        times = rep_index[H][encode(H, [mults * c for c in prods])]
        add_t, mul_t = _fill_from_steps(steps.reshape(-1, n), times.reshape(-1, n))
        ring = FiniteRing(add_t, mul_t, rep_index[H][0], rep_index[H][place[lv.class_of[H], 0]],
                          label=f"A({H.elements})/{N}")
        ring.basis_classes = [A.elements for A in lv.reps]
        ring.index_to_vector = [tuple(v) for v in arr.tolist()]
        ring.vector_to_index = partial(_vector_to_index, radix[H], rep_index[H])
        rings[H] = ring

    code = {"res": res_code, "tr": tr_code, "conj": conj_code}

    def table(name, key, src, dst):
        if name == "nm" and src != dst:  # the representatives' norms, from their lifts
            return rep_index[dst][encode(dst, [c[lift[src][reps[src]]] for c in nm_lift[key]])]
        # nm along H <= H is the identity, as res is
        return rep_index[dst][code["res" if name == "nm" else name][key][reps[src]]]

    return TambaraData.build(G, rings, table, True, label=f"Burnside({G.name}) mod {N}")
