import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import corpus
from helpers import (
    assert_orbits_match_reference,
    diagram_points,
    identity_map,
    orbit_coset_iso,
    trivial_gset,
)
from tambara.errors import DefinitionError, SizeLimitExceeded
from tambara.functors import _coset_projection, _exponential_family
from tambara.groups import FiniteGroup, subgroups
from tambara.gsets import (
    SECTION_CAP,
    GSet,
    GSetMap,
    coset_gset,
    dependent_product,
    disjoint_union,
    equivariant_maps,
    gset_isomorphism,
    orbit_decomposition,
    pullback,
)

C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
S3 = FiniteGroup.symmetric(3)


def regular_gset(G):
    return GSet(G, [[G.mul(g, x) for x in G.elements()] for g in G.elements()])


def test_gset_validation():
    with pytest.raises(DefinitionError):
        GSet(C2, [[0, 1], [0, 0]])  # non-bijective
    with pytest.raises(DefinitionError):
        GSet(C2, [[1, 0], [0, 1]])  # identity acts nontrivially


@pytest.mark.parametrize("entry", [-1, -3, 3, 2 ** 20])
def test_out_of_range_action_entries_rejected(entry):
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    rows[1][2] = entry
    with pytest.raises(DefinitionError, match=r"^action entries must lie in 0\.\.2$"):
        GSet(C3, rows)


def test_map_validation():
    X = regular_gset(C2)
    Y = trivial_gset(C2, 2)
    # collapsing the free orbit to a fixed point is fine
    GSetMap(X, Y, (0, 0))
    Z = regular_gset(C2)
    with pytest.raises(DefinitionError):
        GSetMap(X, Z, (0, 0))  # not equivariant
    for images in [(0, 2), (-1, -1)]:
        with pytest.raises(DefinitionError, match="outside the target"):
            GSetMap(X, Y, images)


def test_orbit_decomposition_regular():
    X = regular_gset(S3)
    orbs = orbit_decomposition(X)
    assert len(orbs) == 1
    assert orbs[0].stabilizer.order == 1
    iso = orbit_coset_iso(X, orbs[0])
    assert sorted(iso.images) == list(range(6))


def test_orbit_decomposition_fixed_points():
    X = trivial_gset(C2, 2)
    orbs = orbit_decomposition(X)
    assert len(orbs) == 2
    assert all(o.stabilizer.order == 2 for o in orbs)


def test_orbit_decomposition_mixed():
    X, offs = disjoint_union([regular_gset(C2), coset_gset(C2, C2.full_subgroup)])
    orbs = orbit_decomposition(X)
    assert [o.stabilizer.order for o in orbs] == [1, 2]
    assert [len(o.points) for o in orbs] == [2, 1]


def test_pullback_identity():
    Y = coset_gset(S3, S3.full_subgroup)
    X = coset_gset(S3, S3.trivial_subgroup)
    f = GSetMap(X, Y, tuple(0 for _ in range(X.size)))
    P, p1, p2 = pullback(f, identity_map(Y))
    assert P.size == X.size
    assert sorted(p1.images) == list(range(X.size))


def test_pullback_sizes():
    # two maps C2/e -> C2/C2: pullback has 2*2/1 = 4 points over one target point
    X = regular_gset(C2)
    Y = coset_gset(C2, C2.full_subgroup)
    f = GSetMap(X, Y, (0, 0))
    P, _, _ = pullback(f, f)
    assert P.size == 4
    # S3/e and S3/<(12)> over the point: 6*3 = 18
    A = coset_gset(S3, S3.trivial_subgroup)
    H = next(s for s in subgroups(S3) if s.order == 2)
    B = coset_gset(S3, H)
    pt = coset_gset(S3, S3.full_subgroup)
    fa = GSetMap(A, pt, tuple(0 for _ in range(A.size)))
    fb = GSetMap(B, pt, tuple(0 for _ in range(B.size)))
    P, _, _ = pullback(fa, fb)
    assert P.size == 18


def test_dependent_product_identity():
    X = regular_gset(C2)
    A, _ = disjoint_union([X, X])
    p = GSetMap(A, X, (0, 1, 0, 1))
    diag = dependent_product(identity_map(X), p)
    assert diag.pi.size == A.size
    assert gset_isomorphism(diag.pi, A) is not None


def test_dependent_product_c2_norm_of_sum_shape():
    # f : C2/e -> C2/C2, A = C2/e + C2/e over C2/e
    X = regular_gset(C2)
    Y = coset_gset(C2, C2.full_subgroup)
    f = GSetMap(X, Y, (0, 0))
    A, _ = disjoint_union([X, X])
    p = GSetMap(A, X, (0, 1, 0, 1))
    diag = dependent_product(f, p)
    assert diag.pi.size == 4
    orbs = orbit_decomposition(diag.pi)
    assert sorted(len(o.points) for o in orbs) == [1, 1, 2]


def test_dependent_product_c3():
    G = C3
    X = regular_gset(G)
    Y = coset_gset(G, G.full_subgroup)
    f = GSetMap(X, Y, (0, 0, 0))
    A, _ = disjoint_union([X, X])
    p = GSetMap(A, X, (0, 1, 2, 0, 1, 2))
    diag = dependent_product(f, p)
    assert diag.pi.size == 8
    orbs = orbit_decomposition(diag.pi)
    assert sorted(len(o.points) for o in orbs) == [1, 1, 3, 3]


@pytest.mark.parametrize("G,n", [(C2, 2), (C3, 2), (C3, 3)])
def test_section_count_formula(G, n):
    # |Pi_f A| for f : G/e -> G/G and A = n copies of G/e is n^|G| * 1
    X = regular_gset(G)
    Y = coset_gset(G, G.full_subgroup)
    f = GSetMap(X, Y, tuple(0 for _ in range(X.size)))
    A, _ = disjoint_union([X] * n)
    p = GSetMap(A, X, tuple(x for _ in range(n) for x in range(X.size)))
    diag = dependent_product(f, p)
    assert diag.pi.size == n ** G.order


def test_section_cap():
    G = FiniteGroup.cyclic(8)
    X = regular_gset(G)
    Y = coset_gset(G, G.full_subgroup)
    f = GSetMap(X, Y, tuple(0 for _ in range(8)))
    A, _ = disjoint_union([X, X, X])
    p = GSetMap(A, X, tuple(x for _ in range(3) for x in range(8)))
    with pytest.raises(SizeLimitExceeded):
        dependent_product(f, p)  # 3**8 = 6561 sections


@pytest.mark.parametrize("parts, total", [(6, 2 * 3 ** 6), (7, 2 * 3 ** 7)])
def test_section_cap_counts_every_fiber_of_an_orbit(parts, total):
    # Y = C2/e: each of its two points has a fiber of `parts` free points
    # with three lifts each; only the fiber over the base is built, yet
    # both count, so 3**7 = 2187 sections over the base already trip the cap
    Y = regular_gset(C2)
    X, _ = disjoint_union([Y] * parts)
    f = GSetMap(X, Y, (0, 1) * parts)
    A, _ = disjoint_union([X] * 3)
    p = GSetMap(A, X, tuple(x for _ in range(3) for x in range(X.size)))
    if total > SECTION_CAP:
        with pytest.raises(SizeLimitExceeded, match="more than 4096 points"):
            dependent_product(f, p)
    else:
        assert dependent_product(f, p).size == total


def test_section_count_does_not_wrap():
    # 64 fixed points over one point, two lifts each: 2**64 sections, which
    # an int64 product would count as 0
    X, Y, A = trivial_gset(C2, 64), trivial_gset(C2, 1), trivial_gset(C2, 128)
    f = GSetMap(X, Y, (0,) * 64)
    p = GSetMap(A, X, tuple(a // 2 for a in range(128)))
    with pytest.raises(SizeLimitExceeded, match="more than 4096 points"):
        dependent_product(f, p)


def test_exponential_diagram_commutes():
    H = next(s for s in subgroups(S3) if s.order == 2)
    X = coset_gset(S3, H)
    Y = coset_gset(S3, S3.full_subgroup)
    f = GSetMap(X, Y, tuple(0 for _ in range(X.size)))
    A, _ = disjoint_union([X, X])
    p = GSetMap(A, X, tuple(x for _ in range(2) for x in range(X.size)))
    diag = dependent_product(f, p)
    # corner evaluation then p equals pullback projection to X
    corner = diag.pullback_corner
    P, to_x, to_pi = pullback(f, diag.projection)
    assert np.array_equal(P.action, corner.action)
    assert to_pi.images == diag.corner_projection.images
    for i in range(corner.size):
        assert diag.p(diag.evaluation(i)) == to_x(i)
    # f . (p . evaluation) == projection . corner_projection
    for i in range(corner.size):
        assert f(diag.p(diag.evaluation(i))) == diag.projection(diag.corner_projection(i))


def test_dependent_product_adjunction():
    # maps X x_Y B -> A over X <-> maps B -> Pi_f A over Y, exhaustively
    G = C2
    X = regular_gset(G)
    Y = coset_gset(G, G.full_subgroup)
    f = GSetMap(X, Y, (0, 0))
    A, _ = disjoint_union([X, X])
    p = GSetMap(A, X, (0, 1, 0, 1))
    diag = dependent_product(f, p)
    B, _ = disjoint_union([Y, X])
    to_y = GSetMap(B, Y, tuple(0 for _ in range(B.size)))
    corner, cx, cb = pullback(f, to_y)

    over_x = [q for q in equivariant_maps(corner, A)
              if all(p(q(i)) == cx(i) for i in range(corner.size))]
    over_y = [r for r in equivariant_maps(B, diag.pi)
              if all(diag.projection(r(b)) == to_y(b) for b in range(B.size))]
    assert len(over_x) == len(over_y)

    # the mate of r is (x,b) -> sigma_{r(b)}(x); it hits every map over X once
    mates = set()
    points = diagram_points(diag)
    for r in over_y:
        imgs = []
        for i in range(corner.size):
            x, b = cx(i), cb(i)
            y, sigma = points[r(b)]
            fiber = tuple(xx for xx in range(X.size) if f(xx) == y)
            imgs.append(dict(zip(fiber, sigma))[x])
        mates.add(tuple(imgs))
    assert mates == {q.images for q in over_x}


def test_orbit_decomposition_is_computed_once(monkeypatch):
    X, _ = disjoint_union([regular_gset(S3), coset_gset(S3, S3.full_subgroup)])
    stabilized = []
    stabilizer = GSet.stabilizer
    monkeypatch.setattr(GSet, "stabilizer",
                        lambda self, x: stabilized.append(x) or stabilizer(self, x))
    first = orbit_decomposition(X)
    assert orbit_decomposition(X) is first
    assert isinstance(first, tuple)
    assert stabilized == []  # the stabilizers come from one gather
    monkeypatch.undo()
    assert [o.base for o in first] == [0, 6]
    for o in first:
        assert o.stabilizer is X.stabilizer(o.base)


@st.composite
def lattice_gsets(draw):
    """A G-set over one of LATTICE_GROUPS: a union of one to three coset
    G-sets, or Pi_f A or the pullback corner of the exponential diagram of
    a coset projection f : G/K -> G/H and a union A of one or two G/L over
    G/K."""
    G = draw(st.sampled_from(corpus.LATTICE_GROUPS))
    subs = subgroups(G)
    if draw(st.booleans()):
        parts = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3))
        return disjoint_union([coset_gset(G, K) for K in parts])[0]
    K, H = draw(st.sampled_from(G.subgroup_pairs))
    f = _coset_projection(G, K, H)
    Ls = draw(st.lists(st.sampled_from([L for L in subs if L.is_subgroup_of(K)]),
                       min_size=1, max_size=2))
    projections = [_coset_projection(G, L, K) for L in Ls]
    A, _ = disjoint_union([pm.source for pm in projections])
    try:
        diag = dependent_product(f, GSetMap(A, f.source, sum((pm.images for pm in projections), ())))
    except SizeLimitExceeded:
        assume(False)
    return draw(st.sampled_from([diag.pi, diag.pullback_corner]))


@given(lattice_gsets())
@settings(max_examples=60, deadline=None)
def test_orbit_stabilizers_match_pointwise_stabilizers(X):
    for o in orbit_decomposition(X):
        assert o.stabilizer is X.stabilizer(o.base)


@pytest.mark.parametrize("G", [corpus.C2, corpus.C4, corpus.V4, corpus.S3, corpus.D4],
                         ids=lambda g: g.name)
def test_orbit_data_matches_reference_on_exponential_diagrams(G):
    for K, H in G.subgroup_pairs:
        if K == H:
            continue
        f = _coset_projection(G, K, H)
        for A, p, _ in _exponential_family(G, K, 2):
            diag = dependent_product(f, GSetMap(A, f.source, p))
            for X in (A, diag.pi, diag.pullback_corner):
                assert_orbits_match_reference(X)


def test_gset_isomorphism():
    X = regular_gset(C2)
    assert gset_isomorphism(X, X).images == (0, 1)
    assert gset_isomorphism(X, trivial_gset(C2, 2)) is None
    A, _ = disjoint_union([regular_gset(C2), coset_gset(C2, C2.full_subgroup)])
    B, _ = disjoint_union([coset_gset(C2, C2.full_subgroup), regular_gset(C2)])
    iso = gset_isomorphism(A, B)
    assert iso is not None
    assert sorted(iso.images) == [0, 1, 2]


def test_gset_isomorphism_conjugate_stabilizers():
    subs = [s for s in subgroups(S3) if s.order == 2]
    X = coset_gset(S3, subs[0])
    Y = coset_gset(S3, subs[1])
    iso = gset_isomorphism(X, Y)
    assert iso is not None


def test_gset_map_compose():
    X = regular_gset(C2)
    Y = coset_gset(C2, C2.full_subgroup)
    f = GSetMap(X, Y, (0, 0))
    comp = f.compose(identity_map(X))
    assert comp.images == f.images
    with pytest.raises(DefinitionError):
        f.compose(f)  # targets/sources do not line up
