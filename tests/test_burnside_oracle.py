"""Independent oracle for the Burnside functor's structure maps.

The functor computes norms through fixed-point (mark) counting.  This
oracle instead builds the coinduced set Maps_K(H, X) literally as a set of
functions, decomposes it into orbits, and compares coefficient vectors.
Restriction and multiplication are checked the same way, through explicit
sets.  Only effective (nonnegative) elements are compared, which pins the
integral construction; the quotient functor is derived from it.
"""

from itertools import product as iproduct

import numpy as np
import pytest

from corpus import C2, C3, C4, S3
from tambara.groups import subgroups
from tambara._burnside import _Level, _norm_marks, burnside_mod


def _coset_reps(G, K, H):
    """Representatives of the right cosets K\\h inside H."""
    seen = set()
    reps = []
    for h in H.elements:
        if h in seen:
            continue
        seen.update(G.mul(k, h) for k in K.elements)
        reps.append(h)
    return reps


def _transitive_kset(G, K, A):
    """The K-set K/A as (points, action) with points the cosets."""
    seen = set()
    cosets = []
    for k in K.elements:
        if k in seen:
            continue
        coset = tuple(sorted(G.mul(k, a) for a in A.elements))
        seen.update(coset)
        cosets.append(coset)
    cosets.sort()
    index = {c: i for i, c in enumerate(cosets)}
    lookup = {}
    for c in cosets:
        for g in c:
            lookup[g] = index[c]
    action = {k: [lookup[G.mul(k, c[0])] for c in cosets] for k in K.elements}
    return len(cosets), action


def _maps_k_to_x(G, K, H, npoints, action):
    """The H-set Maps_K(H, X) as explicit functions, with (h'.f)(h) = f(h h')."""
    reps = _coset_reps(G, K, H)
    rep_of = {}
    k_of = {}
    for h in H.elements:
        for r in reps:
            for k in K.elements:
                if G.mul(k, r) == h:
                    rep_of[h] = r
                    k_of[h] = k
    functions = []
    for choice in iproduct(range(npoints), repeat=len(reps)):
        f = {}
        for h in H.elements:
            f[h] = action[k_of[h]][choice[reps.index(rep_of[h])]]
        functions.append(tuple(f[h] for h in H.elements))
    helems = list(H.elements)
    pos = {h: i for i, h in enumerate(helems)}

    def act(hprime, fn):
        return tuple(fn[pos[G.mul(h, hprime)]] for h in helems)

    return functions, act, helems


def _orbit_class_vector(G, H, functions, act, level):
    """Coefficients of the H-set of functions on the transitive basis."""
    remaining = set(functions)
    coeffs = [0] * level.nclasses
    while remaining:
        f0 = min(remaining)
        orbit = {act(h, f0) for h in H.elements}
        remaining -= orbit
        stab = [h for h in H.elements if act(h, f0) == f0]
        A = G.subgroup(stab)
        coeffs[level.class_of[A]] += 1
    return tuple(coeffs)


@pytest.mark.parametrize("G", [C2, C3, C4, S3], ids=lambda g: g.name)
def test_norm_of_basis_elements_matches_set_oracle(G):
    levels = {H: _Level(G, H) for H in subgroups(G)}
    for H in subgroups(G):
        for K in subgroups(G):
            if not K.is_subgroup_of(H) or K == H:
                continue
            lk, lh = levels[K], levels[H]
            if (H.order // K.order) ** 2 > 512:
                continue  # keep the function enumeration tiny
            for a, A in enumerate(lk.reps):
                vec = [0] * lk.nclasses
                vec[a] = 1
                marks = _norm_marks(G, lk, lh, lk.to_marks(np.array([vec])))
                got = tuple(int(c[0]) for c in lh.solve_marks(list(marks.T)))
                npoints, action = _transitive_kset(G, K, A)
                fns, act, _ = _maps_k_to_x(G, K, H, npoints, action)
                want = _orbit_class_vector(G, H, fns, act, lh)
                assert got == want, (H.elements, K.elements, A.elements)


@pytest.mark.parametrize("G", [C2, C4, S3], ids=lambda g: g.name)
def test_restriction_matches_set_oracle(G):
    levels = {H: _Level(G, H) for H in subgroups(G)}
    for H in subgroups(G):
        for K in subgroups(G):
            if not K.is_subgroup_of(H):
                continue
            lk, lh = levels[K], levels[H]
            for a, A in enumerate(lh.reps):
                # restrict the H-set H/A to K and decompose
                npoints, action = _transitive_kset(G, H, A)
                remaining = set(range(npoints))
                coeffs = [0] * lk.nclasses
                while remaining:
                    x = min(remaining)
                    orbit = {action[k][x] for k in K.elements}
                    remaining -= orbit
                    stab = [k for k in K.elements if action[k][x] == x]
                    coeffs[lk.class_of[G.subgroup(stab)]] += 1
                # against the linear map used by the functor
                from tambara.groups import double_cosets

                want = [0] * lk.nclasses
                for g, _ in double_cosets(G, K, A, within=H):
                    inter = K.intersect(A.conjugate(g))
                    want[lk.class_of[inter]] += 1
                assert coeffs == want


def _product_class_vector(G, H, A, B, level):
    """Coefficients of the H-set H/A x H/B (diagonal action), orbit by
    orbit, with the class of each orbit's stabilizer."""
    na, act_a = _transitive_kset(G, H, A)
    nb, act_b = _transitive_kset(G, H, B)
    remaining = set(iproduct(range(na), range(nb)))
    coeffs = [0] * level.nclasses
    while remaining:
        i, j = min(remaining)
        remaining -= {(act_a[h][i], act_b[h][j]) for h in H.elements}
        stab = [h for h in H.elements if act_a[h][i] == i and act_b[h][j] == j]
        coeffs[level.class_of[G.subgroup(stab)]] += 1
    return tuple(coeffs)


@pytest.mark.parametrize("G", [C2, C3, C4, S3], ids=lambda g: g.name)
def test_multiplication_matches_set_oracle(G):
    for N in (3, 4):
        B = burnside_mod(G, N)
        for H in subgroups(G):
            lv, R = _Level(G, H), B.levels[H]
            unit = np.eye(lv.nclasses, dtype=np.int64)
            for a, A in enumerate(lv.reps):
                for b, Bs in enumerate(lv.reps):
                    want = _product_class_vector(G, H, A, Bs, lv)
                    # the functor multiplies in mark coordinates
                    marks = lv.to_marks(unit[[a]]) * lv.to_marks(unit[[b]])
                    got = tuple(int(c[0]) for c in lv.solve_marks(list(marks.T)))
                    assert got == want, (H.elements, A.elements, Bs.elements)
                    # and the level's mul of the two basis classes is its class mod N
                    ia, ib = R.vector_to_index(unit[a]), R.vector_to_index(unit[b])
                    assert R.mul[ia, ib] == R.vector_to_index(want), (N, H.elements, a, b)
