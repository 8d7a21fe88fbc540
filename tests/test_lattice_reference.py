"""The subgroup lattice, its pairs and the greedy generators, closed by
element mask in `groups`, against the element-tuple closure references of
`helpers`: on every corpus group, on five groups of order 24 (the group
order cap) and on random permutation groups.  Also: a set that is not a
subgroup is refused with the message naming its first defect."""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings

import corpus
from helpers import (
    dihedral_group,
    direct_product,
    permutation_groups,
    reference_generators,
    reference_subgroups,
    symmetric_group,
)
from tambara.errors import DefinitionError
from tambara.groups import FiniteGroup, Subgroup, subgroups

C2 = FiniteGroup.cyclic(2)


def _sl23():
    """SL(2,3) acting on the 8 nonzero vectors of F3^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]

    def perm(m):
        return [vecs.index(((m[0][0] * x + m[0][1] * y) % 3, (m[1][0] * x + m[1][1] * y) % 3))
                for x, y in vecs]

    return FiniteGroup.from_permutations([perm(((1, 1), (0, 1))), perm(((0, 1), (2, 0)))],
                                         name="SL23")


ORDER_24 = [symmetric_group(4), FiniteGroup.cyclic(24), dihedral_group(12),
            direct_product(C2, corpus.A4, name="C2xA4"), _sl23()]
CORPUS_GROUPS = list({id(G): G for G in corpus.SMALL_GROUPS + corpus.LATTICE_GROUPS}.values())


def assert_lattice_matches_reference(G):
    want = reference_subgroups(G)
    assert [S.elements for S in subgroups(G)] == want
    assert [(K.elements, H.elements) for K, H in G.subgroup_pairs] == [
        (k, h) for h in want for k in want if set(k) <= set(h)]
    assert G.generators == reference_generators(G)


@pytest.mark.parametrize("G", CORPUS_GROUPS + ORDER_24, ids=lambda g: g.name)
def test_lattice_matches_reference(G):
    assert_lattice_matches_reference(G)


def test_order_24_groups_are_the_named_ones():
    assert [G.order for G in ORDER_24] == [24] * 5
    assert [len(subgroups(G)) for G in ORDER_24] == [30, 8, 34, 26, 15]


@given(permutation_groups())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_lattice_matches_reference_on_permutation_groups(G):
    assert_lattice_matches_reference(G)


def _defect(G, els):
    """The message of the first defect of the set els, in the order
    identity, inverses, products; None for a subgroup."""
    if 0 not in els:
        return "subgroup must contain the identity"
    if any(G.inv(a) not in els for a in els):
        return "subgroup not closed under inverse"
    if any(G.mul(a, b) not in els for a in els for b in els):
        return "subgroup not closed under multiplication"
    return None


@pytest.mark.parametrize("G", [corpus.C4, corpus.S3, corpus.D4], ids=lambda g: g.name)
def test_subgroup_refuses_each_defect(G):
    seen = set()
    for r in range(1, G.order + 1):
        for els in combinations(G.elements(), r):
            defect = _defect(G, set(els))
            seen.add(defect)
            if defect is None:
                assert Subgroup(G, els).mask == G.subgroup(els).mask
            else:
                with pytest.raises(DefinitionError, match=f"^{defect}$"):
                    Subgroup(G, els)
    assert len(seen) == 4  # every message, and subgroups
