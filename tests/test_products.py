"""n-ary products against left folds of binary products, product_ring
against its gather reference, and the one list of structure maps against
the tables a functor holds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
from corpus import C2, F2, F3, F4, F9, F16, S3, S3_ORDER2, Z4, Z6, Z9
from helpers import (
    assert_same_functor,
    reference_fold_product,
    reference_gring_product,
    reference_product_ring,
)
from tambara.errors import DefinitionError, GroupMismatch
from tambara.functors import (
    _functor_structure,
    fixed_point_functor,
    product,
    structure_maps,
    zero_functor,
)
from tambara.groups import subgroups
from tambara.rings import coinduce_gring, gring_product, product_ring, trivial_gring, zero_ring

# four factors per pool; the pools' products stay below 100 bottom elements
POOLS = {
    "C2_tambara": lambda: [corpus.FP_CORPUS["F2_triv_C2"], zero_functor(C2),
                           corpus.FP_CORPUS["F4_galois_C2"],
                           corpus.FP_CORPUS["F3_triv_C2"]],
    "C2_green": lambda: [fixed_point_functor(trivial_gring(F2, C2), green_only=True),
                         zero_functor(C2, has_norms=False),
                         fixed_point_functor(trivial_gring(F3, C2), green_only=True),
                         fixed_point_functor(corpus.GRING_CORPUS["F4_galois_C2"],
                                             green_only=True)],
    "S3_tambara": lambda: [corpus.COIND_CORPUS["coind_C2a_S3_constF2"],
                           zero_functor(S3), corpus.FP_CORPUS["F4_sign_S3"],
                           fixed_point_functor(trivial_gring(F3, S3))],
    "S3_green": lambda: [fixed_point_functor(corpus.GRING_CORPUS["F4_sign_S3"],
                                             green_only=True),
                         zero_functor(S3, has_norms=False),
                         fixed_point_functor(trivial_gring(F2, S3), green_only=True),
                         fixed_point_functor(trivial_gring(F3, S3), green_only=True)],
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_product_matches_binary_fold(pool, k):
    factors = POOLS[pool]()
    for fs in (factors[:k], factors[::-1][:k]):
        assert_same_functor(product(*fs), reference_fold_product(fs))
        if k > 1:
            assert_same_functor(product(*fs, label="P"),
                                 reference_fold_product(fs, label="P"))


def test_product_of_products_is_the_flat_product():
    A, B, C, D = POOLS["S3_tambara"]()
    assert_same_functor(product(product(A, B), C, D), product(A, B, C, D))


def test_one_factor_is_its_own_product():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    assert product(T) is T
    P = product(T, label="P")
    assert P.label == "P" and P.levels == T.levels
    for name, key, _, _ in structure_maps(C2, True):
        assert np.array_equal(P.table(name, key), T.table(name, key))


def test_product_mismatch_in_the_last_factor_raises():
    A, B = corpus.FP_CORPUS["F2_triv_C2"], corpus.FP_CORPUS["F3_triv_C2"]
    with pytest.raises(GroupMismatch, match="common group"):
        product(A, B, corpus.FP_CORPUS["F4_sign_S3"])
    with pytest.raises(GroupMismatch, match="norm flags"):
        product(A, B, fixed_point_functor(trivial_gring(F2, C2), green_only=True))
    with pytest.raises(DefinitionError):
        product()


PRODUCT_RINGS = [F2, F3, F4, F9, F16, Z4, Z6, Z9, zero_ring(),
                 corpus.GRING_CORPUS["F3xF3_triv_C2"].ring,
                 corpus.GRING_CORPUS["coind_C2_C4_F5"].ring]


def assert_same_ring(got, want):
    assert (got.label, got.zero, got.one, got.size) == (want.label, want.zero, want.one, want.size)
    for a, b in ((got.add, want.add), (got.mul, want.mul)):
        assert a.dtype == b.dtype == np.int32
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("factors", [
    [F4], [zero_ring()], [Z6, zero_ring()], [zero_ring(), F9, zero_ring()],
    [F2, F3], [F3, F2], [F16, F16], [F2, F3, Z4, F4], [Z9, zero_ring(), F2, F4],
    [F2] * 4, [corpus.GRING_CORPUS["coind_C2_C4_F5"].ring, Z6],
], ids=lambda fs: " x ".join(f"{f.label}:{f.size}" for f in fs))
def test_product_ring_matches_gather_reference(factors):
    assert_same_ring(product_ring(factors), reference_product_ring(factors))
    assert_same_ring(product_ring(factors, label="P"), reference_product_ring(factors, label="P"))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(PRODUCT_RINGS), min_size=1, max_size=4).filter(
    lambda fs: math.prod(f.size for f in fs) <= 4096))
def test_product_ring_matches_gather_reference_on_drawn_factors(factors):
    assert_same_ring(product_ring(factors), reference_product_ring(factors))


GRING_POOLS = {
    "C2": lambda: [corpus.GRING_CORPUS["F2_triv_C2"], corpus.GRING_CORPUS["F4_galois_C2"],
                   corpus.GRING_CORPUS["coind_e_C2_F3"], corpus.GRING_CORPUS["F3_triv_C2"]],
    "S3": lambda: [corpus.GRING_CORPUS["F4_sign_S3"], trivial_gring(F3, S3),
                   coinduce_gring(S3, S3_ORDER2, trivial_gring(F2, S3_ORDER2.as_group[0])),
                   trivial_gring(F2, S3)],
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("pool", sorted(GRING_POOLS))
def test_gring_product_matches_binary_fold(pool, k):
    rings = GRING_POOLS[pool]()[:k]
    got = gring_product(*rings)
    want = rings[0]
    for R in rings[1:]:
        want = reference_gring_product(want, R)
    assert got.group is want.group
    assert (got.ring.label, got.ring.zero, got.ring.one) == (
        want.ring.label, want.ring.zero, want.ring.one)
    for a, b in ((got.ring.add, want.ring.add), (got.ring.mul, want.ring.mul),
                 (got.action, want.action)):
        assert np.array_equal(a, b)


def test_gring_product_mismatch_in_the_last_factor_raises():
    R = corpus.GRING_CORPUS["F2_triv_C2"]
    with pytest.raises(GroupMismatch):
        gring_product(R, R, corpus.GRING_CORPUS["F4_sign_S3"])


@pytest.mark.parametrize("name", ["F4_galois_C2", "coind_C2a_S3_FPF4", "green_cex_2_F2",
                                  "FPF4_x_coindF2"])
def test_structure_maps_list_every_table_in_search_order(name):
    T = {**corpus.TAMBARA_CORPUS, **corpus.GREEN_CORPUS}[name]
    G = T.group
    listed = list(structure_maps(G, T.has_norms))
    for family in ("res", "tr", "nm", "conj"):
        keys = [key for n, key, _, _ in listed if n == family]
        tables = getattr(T, family)
        if tables is None:
            assert family == "nm" and not T.has_norms and not keys
            continue
        assert len(keys) == len(set(keys)) and set(keys) == set(tables)
    for n, key, src, dst in listed:
        t = T.table(n, key)
        assert t.shape == (T.levels[src].size,) and t.max() < T.levels[dst].size

    # the isomorphism search's unary ops, in the order written out by hand
    subs = subgroups(G)
    index = {H: i for i, H in enumerate(subs)}
    want = []
    for (K, H) in G.subgroup_pairs:
        a, b = index[K], index[H]
        want.append((f"res{b}->{a}", b, a, T.res[(K, H)].tolist()))
        want.append((f"tr{a}->{b}", a, b, T.tr[(K, H)].tolist()))
        if T.has_norms:
            want.append((f"nm{a}->{b}", a, b, T.nm[(K, H)].tolist()))
    for g in G.elements():
        for H in subs:
            want.append((f"c{g}@{index[H]}", index[H], index[H.conjugate(g)],
                          T.conj[(g, H)].tolist()))
    unary = [(op, a, b, table.tolist()) for op, a, b, table in _functor_structure(T).unary]
    assert unary == want
    assert [(index[src], index[dst]) for _, _, src, dst in listed] == [u[1:3] for u in unary]
