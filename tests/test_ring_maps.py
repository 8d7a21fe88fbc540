"""Ring maps, G-ring generators and * associativity decided on additive
generators, against the scans of every pair they replace: the same
verdicts, the same messages (README, "Ring maps and associativity from
additive generators")."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corpus
import helpers
from corpus import C2, C3, C4, F2, F3, F4, S3, V4
from tambara.errors import DefinitionError
from tambara.functors import check_axioms, product
from tambara.rings import (
    SCAN_SIZE,
    FiniteRing,
    GRing,
    coinduce_gring,
    fq,
    frobenius,
    hom_failure,
    idempotent_subring,
    idempotents,
    is_additive,
    prod_components,
    prod_encode,
    product_ring,
    trivial_gring,
    zero_ring,
    zn,
)


def _outcome(f, *args):
    """What f returns, or the type of what it raises and, but for an
    IndexError (whose text names the gather that hit it), its message."""
    try:
        return f(*args)
    except IndexError:
        return IndexError
    except Exception as exc:
        return type(exc), str(exc)


# functors with levels of 81 and 256 elements, past SCAN_SIZE, beside the
# corpus
BIG_FUNCTORS = [
    product(corpus.FP_CORPUS["F16_galois_C4"], corpus.COIND_CORPUS["coind_e_C4_constF2"]),
    product(corpus.FP_CORPUS["F9_galois_C2"], corpus.FP_CORPUS["coind_e_C2_F3"]),
]
FUNCTORS = list(corpus.TAMBARA_CORPUS.values()) + BIG_FUNCTORS


def _projections(factors):
    """The ring maps of a product ring onto each factor."""
    P = product_ring(factors)
    comps = prod_components([f.size for f in factors])
    return [(comps[i].astype(np.int32), P, f) for i, f in enumerate(factors)]


def _onto_ideal(R, e):
    """x -> ex, the ring map of R onto its ideal e R (unit e)."""
    S, _, pos = idempotent_subring(R, e)
    return pos[R.mul[e]], R, S


F2_6 = product_ring([F2] * 6)
F81 = fq(81)
# (images, source, target): the restrictions and transfers of the
# functors, projections, Frobenius automorphisms and maps onto ideals
RES_MAPS = [(T.res[(K, H)], T.levels[H], T.levels[K])
            for T in FUNCTORS for K, H in T.group.subgroup_pairs]
TR_MAPS = [(T.tr[(K, H)], T.levels[K], T.levels[H])
           for T in FUNCTORS for K, H in T.group.subgroup_pairs]
RING_MAPS = (RES_MAPS
             + _projections([F4] * 3) + _projections([F3] * 4) + _projections([zn(4), F4, F3])
             + [(frobenius(R), R, R) for R in (F81, fq(125), fq(49))]
             + [_onto_ideal(F2_6, e) for e in idempotents(F2_6)[1:8]]
             + [(np.zeros(1, dtype=np.int32), zero_ring(), zero_ring())])


def test_pools_reach_the_generator_checks():
    for maps in (RING_MAPS, TR_MAPS):
        assert sum(src.size > SCAN_SIZE for _, src, _ in maps) >= 5
    assert all(hom_failure(img, src, dst) is None for img, src, dst in RING_MAPS)
    assert all(is_additive(img, src, dst) for img, src, dst in TR_MAPS)


@st.composite
def mutated(draw, maps):
    """A map of the pool with at most one image entry changed: to anything
    from -1 to one past the target, or, off 0, 1 and the additive
    generators, to another element of the target, where the map still
    agrees with a ring map on the generators."""
    img, src, dst = draw(st.sampled_from(maps))
    img = np.array(img, dtype=np.int32)
    kind = draw(st.sampled_from(["none", "entry", "off_generators"]))
    if kind == "entry":
        img[draw(st.integers(0, len(img) - 1))] = draw(st.integers(-1, dst.size))
    elif kind == "off_generators" and dst.size > 1:
        free = sorted(set(range(src.size)) - set(src.additive_generators())
                      - {src.zero, src.one})
        if free:
            x = draw(st.sampled_from(free))
            img[x] = (img[x] + draw(st.integers(1, dst.size - 1))) % dst.size
    return img, src, dst


@given(mutated(RING_MAPS))
@settings(max_examples=400, deadline=None)
def test_hom_failure_matches_every_pair_scan(case):
    assert _outcome(hom_failure, *case) == _outcome(helpers.scanned_hom_failure, *case)


@given(mutated(TR_MAPS + RING_MAPS))
@example((np.ones(1, dtype=np.int32), zero_ring(), F2))  # S is empty; 0 -> 1
@settings(max_examples=300, deadline=None)
def test_is_additive_matches_every_pair_scan(case):
    assert _outcome(is_additive, *case) == _outcome(helpers.scanned_is_additive, *case)


def _linear(p, k, matrix):
    """The F_p-linear map of F_p^k (product_ring order) with the given
    k x k matrix, as images: additive, and a ring map only by chance."""
    comps = prod_components([p] * k)
    return prod_encode([p] * k, (np.asarray(matrix) @ comps) % p).astype(np.int32)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_additive_maps_matches_every_pair_scan(data):
    # F2-linear maps of F2^6 fixing 1: additive and unital, so only the
    # check of * on the generators can tell the ring maps among them
    cols = [data.draw(st.integers(0, 63)) for _ in range(5)]
    last = 63 ^ np.bitwise_xor.reduce(cols)
    matrix = [[(c >> (5 - i)) & 1 for c in cols + [last]] for i in range(6)]
    img = _linear(2, 6, matrix)
    assert img[F2_6.one] == F2_6.one
    assert hom_failure(img, F2_6, F2_6) == helpers.scanned_hom_failure(img, F2_6, F2_6)


def test_additive_map_that_breaks_multiplication():
    # x1 -> x0 + x1 + x2 on F2^6: additive and unital, not multiplicative
    matrix = np.eye(6, dtype=int)
    matrix[1, [0, 2]] = 1
    img = _linear(2, 6, matrix)
    assert is_additive(img, F2_6, F2_6)
    want = helpers.scanned_hom_failure(img, F2_6, F2_6)
    assert want.startswith("multiplication broken")
    assert hom_failure(img, F2_6, F2_6) == want


# G-rings of 64 and 81 elements, past SCAN_SIZE (coinductions from e, on
# F_p^k as additive groups, F4 as F2^2) with their p, and the corpus; the
# rows conjugated by a bijection L are an action again
BIG_GRINGS = {id(R): (R, p) for R, p in (
    (coinduce_gring(G, G.trivial_subgroup, trivial_gring(F, G.trivial_subgroup.as_group[0])), p)
    for G, F, p in ((C3, F4, 2), (S3, F2, 2), (C4, F3, 3), (V4, F3, 3)))}
GRINGS = [R for R, _ in BIG_GRINGS.values()] + list(corpus.GRING_CORPUS.values())
assert all(R.ring.size > SCAN_SIZE for R, _ in BIG_GRINGS.values())


@st.composite
def actions(draw):
    """The rows of a G-ring of GRINGS, unchanged, with one entry changed,
    or conjugated by a random permutation or, on F_p^k, by a random
    invertible F_p-linear map (additive, rarely multiplicative)."""
    R = draw(st.sampled_from(GRINGS))
    rows = R.action.copy()
    n = R.ring.size
    kind = draw(st.sampled_from(["none", "entry", "permutation", "linear"]))
    if kind == "entry":
        g = draw(st.integers(1, len(rows) - 1))
        rows[g, draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    elif kind == "permutation":
        L = np.array(draw(st.permutations(range(n))), dtype=np.int32)
        rows = L[rows[:, np.argsort(L)]]
    elif kind == "linear" and id(R) in BIG_GRINGS:
        p = BIG_GRINGS[id(R)][1]
        k = round(np.log(n) / np.log(p))
        # unitriangular upper times lower, rows permuted: invertible
        upper, lower = (np.eye(k, dtype=int) for _ in range(2))
        for i in range(k):
            for j in range(i + 1, k):
                upper[i, j], lower[j, i] = (draw(st.integers(0, p - 1)) for _ in range(2))
        order = draw(st.permutations(range(k)))
        L = _linear(p, k, (upper @ lower)[order] % p)
        rows = L[rows[:, np.argsort(L)]]
    return R.ring, R.group, rows


@given(actions())
@settings(max_examples=300, deadline=None)
def test_gring_matches_generator_scans(case):
    got = _outcome(lambda *a: GRing(*a).action.tolist(), *case)
    assert got == _outcome(lambda *a: helpers.scanned_gring(*a).tolist(), *case)


def test_gring_additive_generator_row_that_breaks_multiplication():
    # C2 swapping the two factors of F2^6 = Fun(C2, F2^3), conjugated by
    # a transvection: still an additive action, no longer multiplicative
    R = coinduce_gring(C2, C2.trivial_subgroup,
                       trivial_gring(product_ring([F2] * 3), C2.trivial_subgroup.as_group[0]))
    matrix = np.eye(6, dtype=int)
    matrix[2, 0] = 1
    L = _linear(2, 6, matrix)
    rows = L[R.action[:, np.argsort(L)]]
    want = "element 1 is not multiplicative"
    with pytest.raises(DefinitionError, match=want):
        helpers.scanned_gring(R.ring, C2, rows)
    with pytest.raises(DefinitionError, match=want):
        GRing(R.ring, C2, rows)


# -- * associativity on S^3 ---------------------------------------------


def _algebra(p, constants):
    """The commutative unital F_p-algebra on the basis 1, e_1, ..., e_{k-1}
    with e_i e_j = constants[i][j] (a vector, symmetric in i, j, for
    i, j >= 1): bilinear, so distributive, and associative only when the
    constants are.  Elements in product_ring order of F_p^k."""
    k = len(constants)
    C = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        C[0, i, i] = C[i, 0, i] = 1
    for i in range(1, k):
        for j in range(1, k):
            C[i, j] = constants[min(i, j)][max(i, j)]
    comps = prod_components([p] * k)  # [basis, element]
    prods = np.einsum("ix,jy,ijl->lxy", comps, comps, C) % p
    add = prod_encode([p] * k, (comps[:, :, None] + comps[:, None, :]) % p)
    return FiniteRing(add, prod_encode([p] * k, prods), 0, p ** (k - 1))


def _truncated_polynomials(p, k):
    """The structure constants of F_p[x]/(x^k): x^i x^j = x^(i+j)."""
    return [[[int(i + j == m) for m in range(k)] for j in range(k)] for i in range(k)]


@st.composite
def algebras(draw):
    """Structure constants of F_p[x]/(x^k) with at most one symmetric
    pair changed, or random ones."""
    p, k = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]))
    if draw(st.booleans()):
        constants = _truncated_polynomials(p, k)
        if draw(st.booleans()):
            i, j = sorted((draw(st.integers(1, k - 1)), draw(st.integers(1, k - 1))))
            constants[i][j] = [draw(st.integers(0, p - 1)) for _ in range(k)]
    else:
        constants = [[[draw(st.integers(0, p - 1)) for _ in range(k)] for _ in range(k)]
                     for _ in range(k)]
    return _algebra(p, constants)


@given(algebras())
@example(_algebra(2, _truncated_polynomials(2, 6)))
@settings(max_examples=200, deadline=None)
def test_validate_matches_scan_of_multiplication(R):
    assert _outcome(R.validate) == _outcome(helpers.unbuffered_validate, R)


def test_nonassociative_algebra_named_by_the_scan():
    constants = _truncated_polynomials(2, 6)
    constants[1][1] = [0, 0, 0, 0, 0, 1]  # x * x = x^5
    R = _algebra(2, constants)
    want = _outcome(helpers.unbuffered_validate, R)
    assert want[1].startswith("multiplication not associative")
    assert _outcome(R.validate) == want


# -- the norm keeps its scan ----------------------------------------------


def test_norm_multiplicative_on_generators_only_fails_contracts():
    # nm_e^C4 of the Galois F16 changed at an element that is neither a
    # generator nor a product of two: it still keeps * on S x S, which
    # proves nothing for a map that is not additive
    T = helpers.copy_functor(corpus.FP_CORPUS["F16_galois_C4"])
    e, top = C4.trivial_subgroup, C4.full_subgroup
    src, dst = T.levels[e], T.levels[top]
    S = src.additive_generators()
    products = {int(src.mul[s, t]) for s in S for t in S}
    x = min(set(range(src.size)) - set(S) - products - {src.zero, src.one})
    nm = T.nm[(e, top)].copy()
    nm[x] = (nm[x] + 1) % dst.size
    T.nm[(e, top)] = nm
    assert all(nm[src.mul[s, t]] == dst.mul[nm[s], nm[t]] for s in S for t in S)
    report = check_axioms(T)
    assert f"nm {e.elements}->{top.elements} is not multiplicative" in [
        f.description for f in report.failures if f.family == "contracts"]


# -- the generating sets ----------------------------------------------------


@st.composite
def tables(draw):
    """Ring tables with one symmetric entry of add or mul changed, or none."""
    R = draw(st.sampled_from([zn(9), F4, fq(8), F2_6, product_ring([F3, zn(4)])]))
    add, mul = R.add.copy(), R.mul.copy()
    if draw(st.booleans()):
        t = draw(st.sampled_from([add, mul]))
        i, j = draw(st.integers(1, R.size - 1)), draw(st.integers(1, R.size - 1))
        t[i, j] = t[j, i] = draw(st.integers(0, R.size - 1))
    return add, mul, R.zero, R.one


@given(tables())
@settings(max_examples=200, deadline=None)
def test_greedy_generators_match_breadth_first_search(case):
    try:
        R = FiniteRing(*case)
    except DefinitionError:  # no additive inverse left
        return
    assert R.additive_generators() == helpers.reference_additive_generators(R)


@pytest.mark.parametrize("factors", [[F2] * 9, [F4, F3], [zn(4), F2, fq(9)],
                                     [zn(8), zn(9)], [F4] * 3])
def test_product_generators_match_breadth_first_search(factors):
    P = product_ring(factors)
    assert P.additive_generators() == helpers.reference_additive_generators(P)
    assert len(P.additive_generators()) <= int(np.log2(P.size))
