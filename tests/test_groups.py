import pytest
from itertools import combinations

from corpus import LATTICE_GROUPS
from helpers import reference_closure

from tambara.errors import DefinitionError
from tambara.groups import (
    GROUP_ORDER_CAP,
    FiniteGroup,
    Subgroup,
    double_cosets,
    is_subconjugate,
    normalizer,
    subgroups,
    upward_closure,
    weyl_group,
)


C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
C4 = FiniteGroup.cyclic(4)
S3 = FiniteGroup.symmetric(3)
V4 = FiniteGroup.direct_product(C2, C2)


def brute_force_subgroups(G):
    """Independent oracle: test every subset for the subgroup axioms."""
    out = []
    for r in range(1, G.order + 1):
        for sub in combinations(range(G.order), r):
            s = set(sub)
            if 0 not in s:
                continue
            if any(G.inv(a) not in s for a in s):
                continue
            if any(G.mul(a, b) not in s for a in s for b in s):
                continue
            out.append(tuple(sorted(s)))
    return sorted(out, key=lambda e: (len(e), e))


def test_table_group_validation():
    with pytest.raises(DefinitionError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(DefinitionError):
        FiniteGroup([[1, 0], [0, 1]])  # identity not at index 0


def test_from_permutations_s3():
    assert S3.order == 6
    assert S3.mul(0, 3) == 3
    # non-abelian
    assert any(S3.mul(a, b) != S3.mul(b, a) for a in range(6) for b in range(6))


def test_subgroups_c2():
    subs = subgroups(C2)
    assert [s.elements for s in subs] == [(0,), (0, 1)]


def test_subgroups_c4():
    subs = subgroups(C4)
    assert [s.order for s in subs] == [1, 2, 4]
    assert subs[1].elements == (0, 2)


def test_subgroups_s3_against_brute_force():
    subs = subgroups(S3)
    assert [s.elements for s in subs] == brute_force_subgroups(S3)
    assert len(subs) == 6
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]


def test_subgroups_v4_and_q8_against_brute_force():
    assert [s.elements for s in subgroups(V4)] == brute_force_subgroups(V4)
    Q8 = FiniteGroup.quaternion()
    assert [s.elements for s in subgroups(Q8)] == brute_force_subgroups(Q8)
    assert len(subgroups(Q8)) == 6


def test_double_cosets_trivial():
    e = C2.trivial_subgroup
    dcs = double_cosets(C2, e, e)
    assert len(dcs) == 2
    assert all(len(c) == 1 for _, c in dcs)
    assert dcs[0][0] == 0


def test_double_cosets_c4():
    H = C4.subgroup([0, 2])
    dcs = double_cosets(C4, H, H)
    assert len(dcs) == 2
    assert all(len(c) == 2 for _, c in dcs)


def test_double_cosets_s3():
    H = next(s for s in subgroups(S3) if s.order == 2)
    dcs = double_cosets(S3, H, H)
    assert sorted(len(c) for _, c in dcs) == [2, 4]
    assert dcs[0][0] == 0  # identity double coset first


@pytest.mark.parametrize("G", [C2, C4, S3, V4])
def test_double_cosets_partition(G):
    for K in subgroups(G):
        for H in subgroups(G):
            dcs = double_cosets(G, K, H)
            covered = [g for _, c in dcs for g in c]
            assert sorted(covered) == list(range(G.order))


@pytest.mark.parametrize("G", LATTICE_GROUPS + [C2, V4, FiniteGroup.cyclic(1)],
                         ids=lambda g: g.name)
def test_generators_generate_with_at_most_log2_members(G):
    S = G.generators
    assert reference_closure(G, S) == tuple(G.elements())
    assert 2 ** len(S) <= G.order
    assert list(S) == sorted(set(S)) and 0 not in S


@pytest.mark.parametrize("G", LATTICE_GROUPS, ids=lambda g: g.name)
def test_double_cosets_within_match_set_enumeration(G):
    for H in subgroups(G):
        inner = [K for K in subgroups(G) if K.is_subgroup_of(H)]
        for K in inner:
            for L in inner:
                want = {frozenset(G.mul(G.mul(k, h), l) for k in K.elements for l in L.elements)
                        for h in H.elements}
                got = double_cosets(G, K, L, within=H)
                assert {frozenset(c) for _, c in got} == want
                assert [d for d, _ in got] == sorted(min(c) for c in want)
                assert all(d == min(c) for d, c in got)


@pytest.mark.parametrize("G", LATTICE_GROUPS, ids=lambda g: g.name)
def test_conjugate_is_the_lattice_instance(G):
    subs = subgroups(G)
    for H in subs:
        for g in G.elements():
            built = {G.conj(g, a) for a in H.elements}
            assert H.conjugate(g) is next(S for S in subs if set(S.elements) == built)


@pytest.mark.parametrize("G", LATTICE_GROUPS, ids=lambda g: g.name)
def test_subgroup_caches_match_definitions(G):
    for H in subgroups(G):
        cosets = H.left_cosets()
        for g in G.elements():
            assert cosets[H.coset_index[g]] == tuple(sorted(G.mul(g, h) for h in H.elements))
        Hg, embed = H.as_group
        assert [H.local_index[x] for x in embed] == list(range(Hg.order))
        assert sorted(H.local_index) == list(H.elements)
        for S in subgroups(Hg):
            assert H.local_subgroups[H.subgroup_in_parent(S.elements)] is S
        assert set(H.local_subgroups) == {M for M in subgroups(G) if M.is_subgroup_of(H)}


def test_is_subconjugate():
    e = S3.trivial_subgroup
    subs = subgroups(S3)
    order2 = [s for s in subs if s.order == 2]
    order3 = next(s for s in subs if s.order == 3)
    assert all(is_subconjugate(S3, e, H) for H in subs)
    assert not is_subconjugate(S3, order2[0], order3)
    assert is_subconjugate(S3, order2[0], order2[1])
    assert is_subconjugate(S3, order2[1], order2[0])


@pytest.mark.parametrize("G", [C4, S3, V4])
def test_subconjugacy_partial_order(G):
    subs = subgroups(G)
    for K in subs:
        assert is_subconjugate(G, K, K)
    for K in subs:
        for H in subs:
            for L in subs:
                if is_subconjugate(G, K, H) and is_subconjugate(G, H, L):
                    assert is_subconjugate(G, K, L)
    # antisymmetry up to conjugacy
    for K in subs:
        for H in subs:
            if is_subconjugate(G, K, H) and is_subconjugate(G, H, K):
                assert any(K.conjugate(g).elements == H.elements for g in G.elements())


def test_upward_closure():
    assert [s.elements for s in upward_closure(S3, S3.full_subgroup).members] == [
        tuple(range(6))
    ]
    everything = upward_closure(S3, S3.trivial_subgroup)
    assert len(everything.members) == len(subgroups(S3))
    H = C4.subgroup([0, 2])
    up = upward_closure(C4, H)
    assert sorted(s.order for s in up.members) == [2, 4]


@pytest.mark.parametrize("G", [C2, C4, S3, V4])
def test_upward_closure_contains_g(G):
    for H in subgroups(G):
        assert G.full_subgroup in upward_closure(G, H)


def test_weyl_group():
    W, section = weyl_group(S3, S3.full_subgroup)
    assert W.order == 1 and section == (0,)
    W, section = weyl_group(S3, S3.trivial_subgroup)
    assert W.order == 6
    order3 = next(s for s in subgroups(S3) if s.order == 3)
    W, _ = weyl_group(S3, order3)
    assert W.order == 2
    # section multiplies correctly into cosets
    G = S3
    H = order3
    W, sec = weyl_group(G, H)
    for i in range(W.order):
        for j in range(W.order):
            prod = G.mul(sec[i], sec[j])
            coset = {G.mul(sec[W.mul(i, j)], h) for h in H.elements}
            assert prod in coset


def test_weyl_of_trivial_is_g():
    for G in (C2, C4, S3):
        W, sec = weyl_group(G, G.trivial_subgroup)
        assert W.order == G.order
        assert sec == tuple(range(G.order))


def test_as_group_roundtrip():
    H = next(s for s in subgroups(S3) if s.order == 3)
    K, embed = H.as_group
    assert K.order == 3
    for a in range(3):
        for b in range(3):
            assert embed[K.mul(a, b)] == S3.mul(embed[a], embed[b])
    assert H.subgroup_in_parent([0, 1, 2]).elements == H.elements


@pytest.mark.parametrize("G", LATTICE_GROUPS, ids=lambda g: g.name)
def test_subgroup_masks_name_their_subgroups(G):
    for i, S in enumerate(subgroups(G)):
        assert S.mask == sum(2 ** g for g in S.elements)
        assert G.lattice_position(S.mask) == i


def test_group_order_cap_keeps_masks_in_int64():
    # orbit_decomposition sums 2**g over a stabilizer in int64
    assert GROUP_ORDER_CAP < 63
