"""Idempotent types read off the G-set of primitive idempotents, checked
against the scans of every idempotent that they replace (helpers): the
lambda-clarified predicate, the idempotent classes and the (H, d) that
detect_coinduction slices along."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
import helpers
from corpus import C2, C4, F2
from tambara.decompose import _coinduction_idempotent, detect_coinduction
from tambara.errors import VerificationFailed
from tambara.functors import coinduce, constant_functor, product
from tambara.groups import UpwardClosedSet, subgroups, upward_closure
from tambara.rings import (
    classify_idempotent,
    idempotent_classes,
    is_clarified,
    is_lambda_clarified,
    primitive_gset,
    primitive_idempotents,
    product_ring,
    trivial_gring,
    zero_ring,
)


def _lambdas(G):
    """The empty set and the upward closure of every subgroup of G."""
    return [UpwardClosedSet(G, ())] + [upward_closure(G, H) for H in subgroups(G)]


def _assert_same_types(B):
    for lam in _lambdas(B.group):
        assert is_lambda_clarified(B, lam) == helpers.reference_lambda_clarified(B, lam)
    classes = idempotent_classes(B)
    assert [c.unit for c in classes] == helpers.reference_class_units(B)
    for c in classes:
        assert all(classify_idempotent(B, b).isotropy is c.rep for b in c.bases)
    assert _coinduction_idempotent(B) == helpers.reference_coinduction_idempotent(B)


@pytest.mark.parametrize("name", sorted(corpus.GRING_CORPUS))
def test_gring_corpus_agrees_with_the_scans(name):
    _assert_same_types(corpus.GRING_CORPUS[name])


@pytest.mark.parametrize("name", sorted(corpus.TAMBARA_CORPUS))
def test_tambara_corpus_bottoms_agree_with_the_scans(name):
    _assert_same_types(corpus.TAMBARA_CORPUS[name].bottom_gring())


@given(st.sampled_from(corpus.LATTICE_GROUPS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_assembly_bottoms_agree_with_the_scans(G, seed):
    T, _ = helpers.random_assembly(G, random.Random(seed))
    _assert_same_types(T.bottom_gring())


def test_primitive_gset_points_are_the_primitives():
    B = corpus.COIND_CORPUS["coind_C2_C4_FPF4"].bottom_gring()
    X, prims = primitive_gset(B)
    assert prims == primitive_idempotents(B.ring)
    assert X.size == len(prims)
    for g in C4.elements():
        assert [prims[X.act(g, i)] for i in range(X.size)] == [B.act(g, p) for p in prims]


def test_primitive_gset_rejects_an_image_outside_the_primitives():
    # bypasses GRing's checks: g sends the primitive (1, 0) to 1 = (1, 1)
    R = product_ring([F2, F2])
    fake = SimpleNamespace(ring=R, group=C2, action=np.array([[0, 1, 2, 3], [0, 1, 3, 3]]))
    with pytest.raises(VerificationFailed, match="orbit of a primitive idempotent left the set"):
        primitive_gset(fake)


@pytest.mark.parametrize("G", corpus.LATTICE_GROUPS, ids=lambda G: G.name)
def test_zero_gring_is_clarified_exactly_when_g_in_lambda(G):
    Z = trivial_gring(zero_ring(), G)
    X, prims = primitive_gset(Z)
    assert (X.size, prims) == (0, [])
    for lam in _lambdas(G):
        assert is_lambda_clarified(Z, lam) == (G.full_subgroup in lam)
        assert is_lambda_clarified(Z, lam) == helpers.reference_lambda_clarified(Z, lam)


def test_empty_lambda_holds_no_nonzero_ring():
    for R in (trivial_gring(F2, C2), corpus.GRING_CORPUS["F4_galois_C2"]):
        assert not is_lambda_clarified(R, UpwardClosedSet(R.group, ()))


def test_two_classes_give_the_least_common_type_and_an_unclarified_core():
    # P has a free C4-orbit and one with stabilizer C2: only C2 and C4
    # contain a conjugate of both, and the core over C2 is Coind_e F2 x F2
    H2 = C4.subgroup([0, 2])
    T = product(corpus.COIND_CORPUS["coind_e_C4_constF2"],
                coinduce(C4, H2, constant_functor(F2, H2.as_group[0])))
    H, ell, w = detect_coinduction(T)
    assert H is H2
    assert not is_clarified(ell.bottom_gring())
    assert w.is_isomorphism()
    assert _coinduction_idempotent(T.bottom_gring()) == \
        helpers.reference_coinduction_idempotent(T.bottom_gring())
