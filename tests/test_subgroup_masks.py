"""The subgroup questions answered by element mask, against definitions
over element sets.

Every subgroup question of `groups` (which subgroup has these elements,
K <= H, K cap H, g in H, subconjugacy, normalizers, conjugacy classes and
their representatives, membership in an upward closed set, a point's
stabilizer) is answered from the mask, the sum of 2**g over the elements.
Each is compared here with its definition over plain sets, on every pair of
subgroups of every corpus group.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
from helpers import subgroup_conjugacy_classes
from tambara.errors import DefinitionError
from tambara.groups import (
    UpwardClosedSet,
    is_subconjugate,
    normalizer,
    subgroups,
    upward_closure,
)
from tambara.gsets import GSet, coset_gset, disjoint_union, orbit_decomposition

GROUPS = list({id(G): G for G in corpus.SMALL_GROUPS + corpus.LATTICE_GROUPS}.values())


def _conjugate(G, g, S):
    return frozenset(G.conj(g, a) for a in S)


def _key(S):
    """The lattice order of an element set: by order, then element tuple."""
    return len(S), tuple(sorted(S))


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_pair_questions_match_element_sets(G):
    subs = subgroups(G)
    sets = {S: frozenset(S.elements) for S in subs}
    for K in subs:
        for H in subs:
            k, h = sets[K], sets[H]
            assert K.intersect(H).elements == tuple(sorted(k & h))
            assert K.is_subgroup_of(H) == (k <= h)
            assert is_subconjugate(G, K, H) == any(_conjugate(G, g, k) <= h for g in G.elements())
    for H in subs:
        assert [g for g in range(-2, G.order + 2) if g in H] == sorted(sets[H])
        want = [g for g in G.elements() if _conjugate(G, g, sets[H]) == sets[H]]
        assert normalizer(G, H).elements == tuple(want)


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_conjugacy_classes_match_element_sets(G):
    classes = {}
    for S in subgroups(G):
        cls = sorted({_conjugate(G, g, S.elements) for g in G.elements()}, key=_key)
        classes[cls[0]] = [tuple(sorted(c)) for c in cls]
    want = [classes[rep] for rep in sorted(classes, key=_key)]
    assert [[S.elements for S in cls] for cls in subgroup_conjugacy_classes(G)] == want
    for S in subgroups(G):
        rep = min((_conjugate(G, g, S.elements) for g in G.elements()), key=_key)
        assert G.conjugacy_class_rep(S).elements == tuple(sorted(rep))
        assert G.conjugacy_class_rep(S) is G.subgroup(rep)


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_subgroup_lookup_is_the_lattice_instance(G):
    for i, S in enumerate(subgroups(G)):
        assert G.subgroup(reversed(S.elements)) is S
        assert G.lattice_position(S.mask) == i


@pytest.mark.parametrize("elements", [(0, 1, 2), (0, 4), (-1, 0), (0, -3, 1), (), (1,)],
                         ids=["not-closed", "past-order", "negative", "negative-inside",
                              "empty", "no-identity"])
def test_subgroup_of_a_non_subgroup_names_it(elements):
    G = corpus.C4
    key = tuple(sorted(set(elements)))
    with pytest.raises(DefinitionError) as exc:
        G.subgroup(elements)
    assert str(exc.value) == f"{key} is not a subgroup of C4"


def test_conjugacy_class_rep_refuses_a_foreign_subgroup():
    C3 = next(S for S in subgroups(corpus.S3) if S.order == 3)
    assert C3.elements not in [S.elements for S in subgroups(corpus.C4)]
    with pytest.raises(DefinitionError, match="subgroup not of this group"):
        corpus.C4.conjugacy_class_rep(C3)


def test_upward_closed_set_messages():
    G = corpus.S3
    subs = subgroups(G)
    order2 = [S for S in subs if S.order == 2]
    with pytest.raises(DefinitionError, match="^set not closed under conjugation$"):
        UpwardClosedSet(G, (order2[0], G.full_subgroup))
    C3 = next(S for S in subs if S.order == 3)
    with pytest.raises(DefinitionError, match="^set not upward closed$"):
        UpwardClosedSet(G, (C3,))
    for H in subs:
        lam = upward_closure(G, H)
        for S in subs:
            assert (S in lam) == any(_conjugate(G, g, H.elements) <= frozenset(S.elements)
                                     for g in G.elements())


@st.composite
def actions(draw):
    """A G-set over a corpus group: a union of coset G-sets, its points
    renumbered by a drawn permutation."""
    G = draw(st.sampled_from(GROUPS))
    parts = draw(st.lists(st.sampled_from(subgroups(G)), min_size=1, max_size=3))
    X, _ = disjoint_union([coset_gset(G, K) for K in parts])
    perm = np.array(draw(st.permutations(range(X.size))))
    action = np.empty_like(X.action)
    action[:, perm] = perm[X.action]
    return GSet(G, action)


@given(actions())
@settings(max_examples=80, deadline=None)
def test_stabilizers_match_fixing_elements(X):
    G = X.group
    for x in range(X.size):
        fixing = tuple(g for g in G.elements() if X.act(g, x) == x)
        assert X.stabilizer(x).elements == fixing
        assert X.stabilizer(x) is G.subgroup(fixing)
    for o in orbit_decomposition(X):
        assert o.stabilizer is X.stabilizer(o.base)
