"""Property-based tests for the invariants that quantify over choices."""

import math
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import corpus
import helpers
from corpus import C2, C3, C4, F2, F3, F4, S3, V4
from helpers import gring_isomorphism, gset_isomorphism, reference_dependent_product
from tambara.groups import subgroups
from tambara.errors import DefinitionError, SizeLimitExceeded
from tambara.functors import _corner_norm, _exponential_paths, eval_along, evaluate_gset
from tambara.gsets import (
    GSet,
    GSetMap,
    coset_gset,
    dependent_product,
    disjoint_union,
    equivariant_maps,
    orbit_decomposition,
    pullback,
)
from tambara.rings import (
    GRing,
    coinduce_gring,
    prod_components,
    trivial_gring,
)


@st.composite
def coset_rep_choices(draw):
    """A group, a subgroup, an inner ring, and a rep choice per coset."""
    G = draw(st.sampled_from([C4, S3]))
    H = draw(st.sampled_from(subgroups(G)))
    cosets = H.left_cosets()
    reps = [draw(st.sampled_from(c)) for c in cosets]
    if H.order % 2 == 0 and H.order > 1:
        S = corpus.galois_gring(F4, H.as_group[0]) if _is_c2(H) else \
            trivial_gring(F3, H.as_group[0])
    else:
        S = trivial_gring(F3, H.as_group[0])
    return G, H, S, reps


def _is_c2(H):
    return H.order == 2


@given(coset_rep_choices())
@settings(max_examples=25, deadline=None)
def test_coinduction_is_choice_independent(data):
    G, H, S, reps = data
    canonical = coinduce_gring(G, H, S)
    minimal = helpers.reference_coinduce_gring(G, H, S, [c[0] for c in H.left_cosets()])
    assert np.array_equal(minimal.action, canonical.action)
    assert np.array_equal(minimal.ring.mul, canonical.ring.mul)
    chosen = helpers.reference_coinduce_gring(G, H, S, reps)
    assert gring_isomorphism(canonical, chosen) is not None


@st.composite
def shuffled_gset(draw, G=None):
    if G is None:
        G = draw(st.sampled_from([C2, C3, S3]))
    subs = subgroups(G)
    picks = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3))
    X, _ = disjoint_union([coset_gset(G, H) for H in picks])
    perm = draw(st.permutations(list(range(X.size))))
    inv = [0] * X.size
    for i, p in enumerate(perm):
        inv[p] = i
    relabeled = GSet(G, [[perm[X.act(g, inv[x])] for x in range(X.size)]
                         for g in G.elements()])
    return G, picks, X, relabeled


@given(shuffled_gset())
@settings(max_examples=40, deadline=None)
def test_gset_isomorphism_finds_relabelings(data):
    G, picks, X, relabeled = data
    iso = gset_isomorphism(X, relabeled)
    assert iso is not None
    assert sorted(iso.images) == list(range(X.size))


@given(shuffled_gset())
@settings(max_examples=25, deadline=None)
def test_orbit_decomposition_recovers_summands(data):
    G, picks, X, relabeled = data
    orbs = orbit_decomposition(relabeled)
    got = sorted(len(o.points) for o in orbs)
    want = sorted(G.order // H.order for H in picks)
    assert got == want
    covered = sorted(p for o in orbs for p in o.points)
    assert covered == list(range(X.size))


@given(shuffled_gset())
@settings(max_examples=40, deadline=None)
def test_orbit_data_matches_transversal_reference(data):
    _, _, X, relabeled = data
    helpers.assert_orbits_match_reference(X)
    helpers.assert_orbits_match_reference(relabeled)


@st.composite
def cospans(draw):
    """Equivariant maps f : X -> Y <- Z : g between shuffled G-sets; Y has a
    fixed point, so maps into it exist."""
    G = draw(st.sampled_from([C2, C3, S3]))
    X = draw(shuffled_gset(G))[3]
    Z = draw(shuffled_gset(G))[3]
    Y, _ = disjoint_union([coset_gset(G, draw(st.sampled_from(subgroups(G)))),
                           coset_gset(G, G.full_subgroup)])
    f = draw(st.sampled_from(list(equivariant_maps(X, Y))))
    g = draw(st.sampled_from(list(equivariant_maps(Z, Y))))
    return G, f, g


@given(cospans())
@settings(max_examples=30, deadline=None)
def test_pullback_is_the_fiber_product(data):
    G, f, g = data
    X, Z = f.source, g.source
    P, p1, p2 = pullback(f, g)
    pairs = sorted((x, z) for x in range(X.size) for z in range(Z.size) if f(x) == g(z))
    assert P.size == len(pairs)
    assert p1.images == tuple(x for x, _ in pairs)
    assert p2.images == tuple(z for _, z in pairs)
    for gg in G.elements():
        for i, (x, z) in enumerate(pairs):
            assert pairs[P.act(gg, i)] == (X.act(gg, x), Z.act(gg, z))


@given(st.sampled_from([C2, C3, S3]), st.data())
@settings(max_examples=25, deadline=None)
def test_disjoint_union_shifts_rows(G, data):
    parts = [data.draw(shuffled_gset(G))[3] for _ in range(data.draw(st.integers(1, 3)))]
    U, offsets = disjoint_union(parts)
    assert [n for _, n in offsets] == [p.size for p in parts]
    assert [off for off, _ in offsets] == list(np.cumsum([0] + [p.size for p in parts])[:-1])
    for (off, n), p in zip(offsets, parts):
        assert U.action[:, off:off + n].tolist() == (p.action + off).tolist()


def _first_non_homomorphic(G, rows):
    """The definition's loop: the first (g, h, x) with A[gh][x] != A[g][A[h][x]]."""
    for g in G.elements():
        for h in G.elements():
            for x in range(len(rows[0])):
                if rows[G.mul(g, h)][x] != rows[g][rows[h][x]]:
                    return g, h, x
    return None


@given(shuffled_gset(), st.data())
@settings(max_examples=40, deadline=None)
def test_non_homomorphic_action_reports_first_failure(gs, data):
    G, _, _, X = gs
    rows = X.action.tolist()
    g0 = data.draw(st.integers(min_value=1, max_value=G.order - 1))
    rows[g0] = data.draw(st.permutations(list(range(X.size))))
    bad = _first_non_homomorphic(G, rows)
    if bad is None:
        assert GSet(G, rows).action.tolist() == rows
        return
    with pytest.raises(DefinitionError, match=re.escape("at g={}, h={}, x={}".format(*bad)) + "$"):
        GSet(G, rows)


# -- action checks at the generators against the every-element references --

ACTION_GROUPS = [C2, C3, C4, V4, S3]


def _rejection(build, *args):
    """The DefinitionError text build(*args) raises, or None."""
    try:
        build(*args)
    except DefinitionError as exc:
        return str(exc)
    return None


def _perturbed(draw, rows):
    """A copy of the action rows with at most one change: an entry set to
    anything in -2..n+1, one row replaced by another row, by a composite of
    two rows or by a random permutation, or two entries of a row swapped."""
    rows = np.array(rows)
    n = rows.shape[1]
    kind = draw(st.sampled_from(["none", "entry", "copy", "compose", "permute", "swap"]))
    g, h = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "entry":
        rows[g, x] = draw(st.integers(-2, n + 1))
    elif kind == "copy":
        rows[g] = rows[h]
    elif kind == "compose":
        rows[g] = rows[h][rows[g]]
    elif kind == "permute":
        rows[g] = draw(st.permutations(list(range(n))))
    elif kind == "swap":
        rows[g, [x, y]] = rows[g, [y, x]]
    return rows


def _twisted(draw, G, rows):
    """The action rows with one generator s of G sent to a cyclic shift P
    of the points fixed by all the other generators, and every other row
    rebuilt from words in the generators.  P commutes with the rows of the
    other generators, so in V4 the law holds at them and fails at s alone
    when P * P is not the identity."""
    rows = np.asarray(rows)
    s = draw(st.sampled_from(G.generators))
    others = [t for t in G.generators if t != s]
    fixed = np.flatnonzero((rows[others] == np.arange(rows.shape[1])).all(axis=0))
    gens = {t: rows[t] for t in others}
    gens[s] = np.arange(rows.shape[1])
    gens[s][fixed] = np.roll(fixed, draw(st.integers(0, max(len(fixed) - 1, 0))))
    built, reached = {0: rows[0]}, [0]
    for e in reached:  # grows while it is walked: breadth first
        for t in G.generators:
            if G.mul(t, e) not in built:
                built[G.mul(t, e)] = gens[t][built[e]]
                reached.append(G.mul(t, e))
    return np.array([built[e] for e in G.elements()])


def _names_generator(G, message, pattern):
    m = re.search(pattern, message or "")
    return m is None or int(m.group(1)) in G.generators


@given(st.sampled_from(ACTION_GROUPS), st.data())
@settings(max_examples=200, deadline=None)
def test_gset_check_agrees_with_all_pairs_reference(G, data):
    X = data.draw(shuffled_gset(G))[3]
    if data.draw(st.booleans()):
        rows = _perturbed(data.draw, X.action)
    else:  # with three more fixed points, so that a twist has room
        rows = _twisted(data.draw, G, np.hstack([X.action, np.tile(X.size + np.arange(3), (G.order, 1))]))
    got = _rejection(GSet, G, rows)
    assert (got is None) == (_rejection(helpers.reference_gset_validate, G, rows) is None)
    assert _names_generator(G, got, r"homomorphism at g=(\d+),")


@given(st.sampled_from(ACTION_GROUPS), st.data())
@settings(max_examples=100, deadline=None)
def test_gsetmap_check_agrees_with_every_element_reference(G, data):
    X = data.draw(shuffled_gset(G))[3]
    Y, _ = disjoint_union([data.draw(shuffled_gset(G))[3], coset_gset(G, G.full_subgroup)])
    f = data.draw(st.sampled_from(list(islice(equivariant_maps(X, Y), 30))))
    images = list(f.images)
    if data.draw(st.booleans()):
        images[data.draw(st.integers(0, X.size - 1))] = data.draw(st.integers(-1, Y.size))
    got = _rejection(GSetMap, X, Y, tuple(images))
    assert (got is None) == (_rejection(helpers.reference_gsetmap_validate, X, Y, images) is None)
    assert _names_generator(G, got, r"equivariant at g=(\d+),")


@st.composite
def grings(draw):
    """A valid G-ring of at most 256 elements over an ACTION_GROUPS group:
    one from the corpus, or a coinduction of a trivial F2 or F3 ring or of
    the Galois F4 along a subgroup."""
    corpus_rings = [R for R in corpus.GRING_CORPUS.values() if R.group in ACTION_GROUPS]
    if draw(st.booleans()):
        return draw(st.sampled_from(corpus_rings))
    G = draw(st.sampled_from(ACTION_GROUPS))
    H = draw(st.sampled_from(subgroups(G)))
    Hg = H.as_group[0]
    inner = [trivial_gring(F2, Hg), trivial_gring(F3, Hg)]
    if H.order == 2:
        inner.append(corpus.galois_gring(F4, Hg))
    index = G.order // H.order
    S = draw(st.sampled_from([S for S in inner if S.ring.size ** index <= 256]))
    return coinduce_gring(G, H, S)


@given(grings(), st.data())
@settings(max_examples=300, deadline=None)
def test_gring_check_agrees_with_every_element_reference(R, data):
    G = R.group
    if data.draw(st.booleans()):
        rows = _perturbed(data.draw, R.action)
    else:
        rows = _twisted(data.draw, G, R.action)
    got = _rejection(GRing, R.ring, G, rows)
    assert (got is None) == (_rejection(helpers.reference_gring_validate, R.ring, G, rows) is None)
    assert _names_generator(G, got, r"homomorphism at \((\d+),")
    assert _names_generator(G, got, r"^element (\d+) is not")


@given(st.integers(min_value=1, max_value=3),
       st.sampled_from([C2, C3]))
@settings(max_examples=20, deadline=None)
def test_section_count_of_dependent_product(n, G):
    X = coset_gset(G, G.trivial_subgroup)
    Y = coset_gset(G, G.full_subgroup)
    f = GSetMap(X, Y, tuple(0 for _ in range(X.size)))
    A, _ = disjoint_union([X] * n)
    p = GSetMap(A, X, tuple(x for _ in range(n) for x in range(X.size)))
    assert dependent_product(f, p).size == n ** G.order


@given(st.sampled_from(sorted(corpus.TAMBARA_CORPUS)), st.data())
@settings(max_examples=30, deadline=None)
def test_frobenius_on_random_elements(name, data):
    # spot-check Frobenius reciprocity on randomly drawn elements
    T = corpus.TAMBARA_CORPUS[name]
    pairs = [p for p in T.group.subgroup_pairs if p[0] != p[1]]
    if not pairs:
        return
    K, H = data.draw(st.sampled_from(pairs))
    rk, rh = T.levels[K], T.levels[H]
    y = data.draw(st.integers(min_value=0, max_value=rh.size - 1))
    x = data.draw(st.integers(min_value=0, max_value=rk.size - 1))
    tr, res = T.tr[(K, H)], T.res[(K, H)]
    assert tr[rk.mul[res[y], x]] == rh.mul[y, tr[x]]


@st.composite
def gset_over(draw, Y, min_parts, max_parts):
    """A random G-set X with a random equivariant map f : X -> Y: each
    summand G/K is sent to a point y with K <= Stab(y), by gK -> g.y."""
    G = Y.group
    parts, images = [], []
    for _ in range(draw(st.integers(min_value=min_parts, max_value=max_parts))):
        y = draw(st.integers(min_value=0, max_value=Y.size - 1))
        stab = Y.stabilizer(y)
        K = draw(st.sampled_from([K for K in subgroups(G) if K.is_subgroup_of(stab)]))
        parts.append(coset_gset(G, K))
        images.extend(Y.act(c[0], y) for c in K.left_cosets())
    X = disjoint_union(parts)[0] if parts else GSet(G, [[] for _ in G.elements()])
    return X, GSetMap(X, Y, tuple(images))


@st.composite
def exponential_inputs(draw):
    """f : X -> Y and p : A -> X over one of C2, C3, C4, V4, S3."""
    G = draw(st.sampled_from([C2, C3, C4, V4, S3]))
    Y, _ = draw(gset_over(coset_gset(G, G.full_subgroup), 1, 2))
    X, f = draw(gset_over(Y, 1, 2))
    _, p = draw(gset_over(X, 0, 3))
    return f, p


@given(exponential_inputs())
@settings(max_examples=80, deadline=None)
def test_dependent_product_matches_pointwise_reference(inputs):
    f, p = inputs
    try:
        want = reference_dependent_product(f, p)
    except SizeLimitExceeded:
        with pytest.raises(SizeLimitExceeded):
            dependent_product(f, p)
        return
    got = dependent_product(f, p)
    points = helpers.diagram_points(want)
    assert points == sorted(set(points))
    # the orbit records span Pi_f A: each point of orbit j is h.base_j, and
    # g.(h.base_j) = (gh).base_j and (g sigma)(g.x) = g.sigma(x) rebuild its
    # action and its section matrix point for point
    G, X, A = f.source.group, f.source, p.source
    action = np.full((G.order, got.size), -1, dtype=np.int64)
    sections = np.full((got.size, X.size), A.size, dtype=np.int64)
    for row, sigma in zip(got.moves, got.base_sections):
        action[:, row] = row[G.mul_array]
        fiber = np.flatnonzero(sigma < A.size)
        for g in G.elements():
            sections[row[g], X.action[g, fiber]] = A.action[g, sigma[fiber]]
    assert got.size == want.pi.size
    assert np.array_equal(action, want.pi.action)
    assert np.array_equal(sections, want.sections)


NORM_FUNCTORS = {G: [T for T in corpus.TAMBARA_CORPUS.values() if T.group is G]
                 for G in (C2, C3, C4, V4, S3)}


@given(exponential_inputs(), st.data())
@settings(max_examples=60, deadline=None)
def test_corner_norm_matches_corner_reference_on_any_diagram(inputs, data):
    # X need not be one orbit here: a corner orbit's least point lies over
    # the least point of an orbit of X
    f, p = inputs
    try:
        diag = dependent_product(f, p)
    except SizeLimitExceeded:
        return
    T = data.draw(st.sampled_from(NORM_FUNCTORS[f.source.group]))
    pi_val = evaluate_gset(T, reference_dependent_product(f, p).pi)
    got = _corner_norm(T, diag, evaluate_gset(T, p.source), pi_val, {})
    want = helpers.corner_norm(T, diag)
    assert [[i for i, _ in c] for c in got.plan] == [[i for i, _ in c] for c in want.plan]
    assert all(np.array_equal(a, b) for c, d in zip(got.plan, want.plan)
               for (_, a), (_, b) in zip(c, d))


@st.composite
def wide_inputs(draw):
    """f : X -> Y and p : A -> X over C2 with about SECTION_CAP points in
    Pi_f A: Y one or two parts, X four to seven parts over Y, and A two or
    three copies of X over X, so each point of X has as many lifts."""
    Y, _ = draw(gset_over(coset_gset(C2, C2.full_subgroup), 1, 2))
    X, f = draw(gset_over(Y, 4, 7))
    n = draw(st.integers(min_value=2, max_value=3))
    A, _ = disjoint_union([X] * n)
    return f, GSetMap(A, X, tuple(x for _ in range(n) for x in range(X.size)))


@given(st.one_of(exponential_inputs(), wide_inputs()), st.data())
@settings(max_examples=60, deadline=None)
def test_orbit_records_match_point_level_pi(inputs, data):
    # dependent_product reads the orbits of Pi_f A off the fibers over the
    # bases of Y's orbits: they are the orbits of the point-by-point
    # reference's pi, the cap trips exactly when the reference passes it,
    # and the second side of the formula planned from the records is the
    # corner one on every element
    f, p = inputs
    try:
        want = reference_dependent_product(f, p)
    except SizeLimitExceeded:
        with pytest.raises(SizeLimitExceeded):
            dependent_product(f, p)
        return
    diag = dependent_product(f, p)
    pi = want.pi
    assert diag.size == pi.size
    orbits = orbit_decomposition(pi)
    bases = [o.base for o in orbits]
    assert [(o.base, o.stabilizer) for o in diag.orbits] == [(o.base, o.stabilizer) for o in orbits]
    assert [o.y for o in diag.orbits] == [want.projection(b) for b in bases]
    assert diag.moves.dtype == diag.base_sections.dtype == np.int32
    assert np.array_equal(diag.moves, pi.action[:, bases].T)
    assert np.array_equal(diag.base_sections, want.sections[bases])
    for x in range(pi.size):  # the carrier of x is the least g with g.base = x
        assert int(np.argmax(diag.moves[pi.orbit_of[x]] == x)) == pi.carrier[x]
    T = data.draw(st.sampled_from(NORM_FUNCTORS[f.source.group]))
    shape = tuple(evaluate_gset(T, p.source).sizes)
    if math.prod(shape) > 4096:
        return
    got = _exponential_paths(T, eval_along(T, f, "nm"), eval_along(T, p, "tr"), diag, {})
    ref = helpers.corner_second_path(T, diag)
    assert got[0] == shape and len(got[2]) == len(ref)
    for a, b in zip(got[2], ref):
        assert np.array_equal(np.broadcast_to(a, shape), np.broadcast_to(b, shape))


APPLY_BATCH_FUNCTORS = ["burnside_C2_4", "F4_galois_C2", "burnside_C3_9", "coind_C2_C4_FPF4",
                        "coind_e_V4_constF2", "coind_C2a_S3_FPF4"]


@st.composite
def apply_batch_inputs(draw):
    """A corpus functor's name, a kind, a G-set map f : X -> Y with Y one
    or two fixed points, and up to six elements of the source of f along
    kind, as rows of components."""
    name = draw(st.sampled_from(APPLY_BATCH_FUNCTORS))
    kind = draw(st.sampled_from(["res", "tr", "nm"]))
    G = corpus.TAMBARA_CORPUS[name].group
    Y, _ = draw(gset_over(coset_gset(G, G.full_subgroup), 1, 2))
    _, f = draw(gset_over(Y, 0, 2))
    m = eval_along(corpus.TAMBARA_CORPUS[name], f, kind)
    n_rows = draw(st.integers(min_value=0, max_value=6))
    rows = [[draw(st.integers(min_value=0, max_value=n - 1)) for n in m.source.sizes]
            for _ in range(n_rows)]
    return name, kind, f, rows


def _c2_map(parts, images):
    """The map from the union of C2/K over K in parts to two fixed points."""
    Y = disjoint_union([coset_gset(C2, C2.full_subgroup)] * 2)[0]
    X = disjoint_union([coset_gset(C2, K) for K in parts])[0]
    return GSetMap(X, Y, images)


@given(apply_batch_inputs())
@example(("burnside_C2_4", "nm", _c2_map([C2.trivial_subgroup], (0, 0)),
          [[0], [1], [2], [3]]))  # one item in the first component, none in the second
@example(("burnside_C2_4", "tr", _c2_map([C2.full_subgroup, C2.trivial_subgroup], (1, 0, 0)),
          [[0, 0], [1, 3], [2, 1]]))  # one item in each component
@settings(max_examples=60, deadline=None)
def test_apply_batch_matches_apply(inputs):
    name, kind, f, rows = inputs
    m = eval_along(corpus.TAMBARA_CORPUS[name], f, kind)
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(m.source.sizes))
    out = m.apply_batch(rows)
    assert out.dtype == np.int32
    assert out.shape == (len(rows), len(m.target.sizes))
    assert [tuple(r) for r in out.tolist()] == [helpers.reference_apply(m, tuple(r))
                                                for r in rows.tolist()]


@given(apply_batch_inputs())
@settings(max_examples=60, deadline=None)
def test_fold_on_mesh_matches_apply(inputs):
    # the open mesh of the whole source, broadcast to one row per element
    # in C order, gives what the scalar reference gives on every element
    name, kind, f, _ = inputs
    m = eval_along(corpus.TAMBARA_CORPUS[name], f, kind)
    shape = tuple(m.source.sizes)
    assume(np.prod(shape) <= 4096)
    out = m.fold(np.ix_(*(np.arange(n) for n in shape)))
    assert len(out) == len(m.target.sizes)
    for c in out:
        assert c.dtype == np.int32 and np.broadcast_shapes(c.shape, shape) == shape
    elements = prod_components(shape).T.tolist()
    assert [tuple(r) for r in helpers.mesh_rows(shape, out).tolist()] == \
        [helpers.reference_apply(m, tuple(x)) for x in elements]
