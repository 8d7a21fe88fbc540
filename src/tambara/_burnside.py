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
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import SizeLimitExceeded, UnsupportedGroup
from .groups import FiniteGroup, Subgroup, double_cosets, subgroups
from .rings import FiniteRing

BURNSIDE_LEVEL_CAP = 4096


def _subgroups_within(G: FiniteGroup, H: Subgroup) -> List[Subgroup]:
    return [A for A in subgroups(G) if A.is_subgroup_of(H)]


def _h_classes(G: FiniteGroup, H: Subgroup) -> List[List[Subgroup]]:
    """H-conjugacy classes of subgroups of H, ascending by order; each class
    sorted with the minimal member first."""
    subs = _subgroups_within(G, H)
    seen = set()
    classes = []
    for A in subs:
        if A.elements in seen:
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
        # marks[a][l] = number of cosets hA (A = reps[a]) fixed by reps[l]
        self.marks = np.zeros((self.nclasses, self.nclasses), dtype=np.int64)
        for a, A in enumerate(self.reps):
            cosets = []
            seen = set()
            for h in H.elements:
                if h in seen:
                    continue
                coset = frozenset(G.mul(h, x) for x in A.elements)
                seen.update(coset)
                cosets.append(coset)
            for l, L in enumerate(self.reps):
                count = 0
                for coset in cosets:
                    h0 = min(coset)
                    if all(G.mul(x, h0) in coset for x in L.elements):
                        count += 1
                self.marks[a, l] = count

    def to_marks(self, v: Sequence[int]) -> np.ndarray:
        return np.asarray(v, dtype=np.int64) @ self.marks

    def from_marks(self, m: np.ndarray) -> np.ndarray:
        """Solve u @ marks = m exactly (marks is triangular by class order).

        Keeps the input dtype, so exact arbitrary-precision arithmetic works
        by passing an object array.
        """
        m = np.array(m)
        single = m.ndim == 1
        if single:
            m = m[None, :]
        u = np.zeros_like(m)
        for l in range(self.nclasses - 1, -1, -1):
            rest = m[:, l] - u[:, l + 1:] @ self.marks[l + 1:, l]
            d = int(self.marks[l, l])
            q = rest // d
            if np.asarray(rest - q * d != 0).any():
                raise ArithmeticError("mark vector is not in the Burnside lattice")
            u[:, l] = q
        return u[0] if single else u


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

    # linear generators: res, tr, conj on basis vectors, as matrices
    res_mat: Dict[Tuple[Subgroup, Subgroup], np.ndarray] = {}
    tr_mat: Dict[Tuple[Subgroup, Subgroup], np.ndarray] = {}
    for (K, H) in pairs:
        lk, lh = levels[K], levels[H]
        R = np.zeros((lh.nclasses, lk.nclasses), dtype=np.int64)
        for a, A in enumerate(lh.reps):
            for g, _ in double_cosets(G, K, A, within=H):
                inter = K.intersect(A.conjugate(g))
                R[a, lk.class_of[inter.elements]] += 1
        res_mat[(K, H)] = R
        Tm = np.zeros((lk.nclasses, lh.nclasses), dtype=np.int64)
        for b, B in enumerate(lk.reps):
            Tm[b, lh.class_of[B.elements]] += 1
        tr_mat[(K, H)] = Tm
    conj_mat: Dict[Tuple[int, Subgroup], np.ndarray] = {}
    for g in G.elements():
        for H in subs:
            lh, lhg = levels[H], levels[H.conjugate(g)]
            C = np.zeros((lh.nclasses, lhg.nclasses), dtype=np.int64)
            for a, A in enumerate(lh.reps):
                C[a, lhg.class_of[A.conjugate(g).elements]] += 1
            conj_mat[(g, H)] = C

    def nm_of_vector(K: Subgroup, H: Subgroup, v: np.ndarray) -> np.ndarray:
        """Integral norm of a nonnegative coefficient vector, reduced mod N."""
        lk, lh = levels[K], levels[H]
        m = lk.to_marks(np.asarray(v, dtype=np.int64))
        return (lh.from_marks(_norm_marks(G, lk, lh, m)) % N).astype(np.int64)

    # the congruence ideal: start from the forced N-lift norm differences
    ideal: Dict[Subgroup, set] = {H: {(0,) * levels[H].nclasses} for H in subs}

    def all_vectors(H: Subgroup) -> np.ndarray:
        lv = levels[H]
        return np.array(list(iproduct(range(N), repeat=lv.nclasses)), dtype=np.int64)

    vectors = {H: all_vectors(H) for H in subs}

    def add_vec(H: Subgroup, v: np.ndarray) -> bool:
        t = tuple(int(x) % N for x in v)
        if t in ideal[H]:
            return False
        ideal[H].add(t)
        return True

    for (K, H) in pairs:
        if K == H:
            continue
        lk = levels[K]
        vs = vectors[K]
        base = nm_of_vector(K, H, vs)
        for i in range(lk.nclasses):
            shifted = vs.copy()
            shifted[:, i] += N
            lifted = (levels[H].from_marks(_norm_marks(G, lk, levels[H],
                                                       lk.to_marks(shifted)))
                      % N).astype(np.int64)
            for diff in (lifted - base) % N:
                add_vec(H, diff)

    # close under linear maps, ring multiplication, and norm perturbation
    changed = True
    while changed:
        changed = False
        for H in subs:
            # additive span
            current = [np.array(t, dtype=np.int64) for t in ideal[H]]
            for a in current:
                for b in current:
                    if add_vec(H, (a + b) % N):
                        changed = True
            # ring-ideal closure in mark coordinates
            lv = levels[H]
            for t in list(ideal[H]):
                tm = lv.to_marks(np.array(t))
                prods = lv.from_marks(vectors[H] @ lv.marks * tm) % N
                for v in prods:
                    if add_vec(H, v):
                        changed = True
        for (K, H) in pairs:
            for t in list(ideal[K]):
                tv = np.array(t, dtype=np.int64)
                if add_vec(H, tv @ tr_mat[(K, H)]):
                    changed = True
            for t in list(ideal[H]):
                tv = np.array(t, dtype=np.int64)
                if add_vec(K, tv @ res_mat[(K, H)]):
                    changed = True
            if K != H:
                lk = levels[K]
                vs = vectors[K]
                base = nm_of_vector(K, H, vs)
                for t in list(ideal[K]):
                    if not any(t):
                        continue
                    shifted = vs + np.array(t, dtype=np.int64)
                    lifted = (levels[H].from_marks(
                        _norm_marks(G, lk, levels[H], lk.to_marks(shifted)))
                        % N).astype(np.int64)
                    for diff in (lifted - base) % N:
                        if add_vec(H, diff):
                            changed = True
        for g in G.elements():
            for H in subs:
                Hg = H.conjugate(g)
                for t in list(ideal[H]):
                    if add_vec(Hg, np.array(t, dtype=np.int64) @ conj_mat[(g, H)]):
                        changed = True

    # quotient levels: canonical representative = lexicographically minimal
    rep_of: Dict[Subgroup, Dict[Tuple[int, ...], int]] = {}
    reps_list: Dict[Subgroup, np.ndarray] = {}
    rings: Dict[Subgroup, FiniteRing] = {}
    for H in subs:
        lv = levels[H]
        idl = sorted(ideal[H])
        coset_rep = {}
        for v in vectors[H]:
            t = tuple(int(x) for x in v)
            if t in coset_rep:
                continue
            coset = sorted(tuple((int(x) + i) % N for x, i in zip(t, ivec))
                           for ivec in idl)
            rep = coset[0]
            for member in coset:
                coset_rep[member] = rep
        reps = sorted(set(coset_rep.values()))
        index = {r: i for i, r in enumerate(reps)}
        rep_of[H] = {t: index[coset_rep[t]] for t in coset_rep}
        arr = np.array(reps, dtype=np.int64)
        reps_list[H] = arr
        n = len(reps)
        add = np.zeros((n, n), dtype=np.int64)
        mul = np.zeros((n, n), dtype=np.int64)
        marks_arr = arr @ lv.marks
        for i in range(n):
            srow = (arr[i][None, :] + arr) % N
            prow = lv.from_marks(marks_arr[i][None, :] * marks_arr) % N
            add[i] = [rep_of[H][tuple(int(x) for x in v)] for v in srow]
            mul[i] = [rep_of[H][tuple(int(x) for x in v)] for v in prow]
        one_vec = np.zeros(lv.nclasses, dtype=np.int64)
        one_vec[lv.class_of[H.elements]] = 1
        zero = rep_of[H][(0,) * lv.nclasses]
        one = rep_of[H][tuple(int(x) for x in one_vec)]
        ring = FiniteRing(add, mul, zero, one, label=f"A({H.elements})/{N}")
        ring.basis_classes = [A.elements for A in lv.reps]
        ring.index_to_vector = [tuple(int(x) for x in v) for v in arr]
        ring.vector_to_index = lambda vec, _H=H: rep_of[_H][
            tuple(int(x) % N for x in vec)]
        rings[H] = ring

    def linear_table(src: Subgroup, dst: Subgroup, mat: np.ndarray) -> np.ndarray:
        vecs = (reps_list[src] @ mat) % N
        return np.array([rep_of[dst][tuple(int(x) for x in v)] for v in vecs])

    res = {}
    tr = {}
    nm = {}
    for (K, H) in pairs:
        res[(K, H)] = linear_table(H, K, res_mat[(K, H)])
        tr[(K, H)] = linear_table(K, H, tr_mat[(K, H)])
        nmv = nm_of_vector(K, H, reps_list[K])
        nm[(K, H)] = np.array([rep_of[H][tuple(int(x) for x in v)] for v in nmv])
    conj = {}
    for g in G.elements():
        for H in subs:
            conj[(g, H)] = linear_table(H, H.conjugate(g), conj_mat[(g, H)])

    return TambaraData(G, rings, res, tr, nm, conj, has_norms=True,
                       label=f"Burnside({G.name}) mod {N}")
