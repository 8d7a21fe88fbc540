import importlib
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
from corpus import (
    C2,
    C3,
    C4,
    F2,
    F3,
    F4,
    F9,
    S3,
    V4,
    galois_gring,
)
import helpers
from helpers import (
    assert_same_functor,
    copy_functor,
    reference_apply,
    reference_coinduce,
    reference_exponential_paths,
    reference_fixed_point_functor,
)
from tambara.errors import (
    DefinitionError,
    GroupMismatch,
    NoNorms,
    SearchTimeout,
    SizeLimitExceeded,
)
from tambara.groups import FiniteGroup, is_subconjugate, subgroups
from tambara.gsets import GSetMap, coset_gset, dependent_product, disjoint_union
from tambara.functors import (
    MAX_FAILURES_PER_FAMILY,
    TambaraMorphism,
    _corner_norm,
    _conjugation_failures,
    _coset_projection,
    _exponential_family,
    _exponential_paths,
    check_axioms,
    coinduce,
    constant_functor,
    eval_along,
    evaluate_gset,
    fixed_point_functor,
    functor_isomorphism,
    green_counterexample,
    identity_morphism,
    mackey_decomposition_iso,
    map_kinds,
    product,
    restrict,
    structure_maps,
    zero_functor,
)
from tambara.rings import idempotents, trivial_gring
from tambara._burnside import burnside_mod

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


# -- fixed-point functors ---------------------------------------------------


def test_fp_trivial_action_tr_and_nm():
    T = constant_functor(F2, C2)
    e, full = C2.trivial_subgroup, C2.full_subgroup
    # tr is multiplication by |H|, nm is a -> a^|H|
    for a in range(2):
        assert T.tr[(e, full)][a] == (2 * a) % 2
        assert T.nm[(e, full)][a] == a
    T3 = constant_functor(F3, C3)
    e3, f3 = C3.trivial_subgroup, C3.full_subgroup
    for a in range(3):
        assert T3.tr[(e3, f3)][a] == (3 * a) % 3 == 0
        assert T3.nm[(e3, f3)][a] == pow(a, 3, 3)


def test_fp_f4_galois_field_norm():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    e, full = C2.trivial_subgroup, C2.full_subgroup
    assert T.levels[e].size == 4
    assert T.levels[full].size == 2  # fixed field F2
    # nm(a) = a * frobenius(a) = a^3: 1 for every nonzero a
    nm = T.nm[(e, full)]
    one_top = T.levels[full].one
    assert nm[0] == T.levels[full].zero
    assert all(nm[a] == one_top for a in range(1, 4))


def test_fp_of_coinduced_has_diagonal_top():
    T = corpus.FP_CORPUS["coind_e_C2_F3"]
    e, full = C2.trivial_subgroup, C2.full_subgroup
    assert T.levels[e].size == 9
    assert T.levels[full].size == 3  # the diagonal copy of F3
    res = T.res[(e, full)]
    assert len(set(res.tolist())) == 3  # injective


# -- Burnside functors -------------------------------------------------------


def test_burnside_lewis_c2_mod4():
    B = corpus.BURNSIDE_CORPUS["burnside_C2_4"]
    e, full = C2.trivial_subgroup, C2.full_subgroup
    bot, top = B.levels[e], B.levels[full]
    x = top.vector_to_index((1, 0))
    assert bot.index_to_vector[B.res[(e, full)][x]] == (2,)
    assert top.index_to_vector[B.tr[(e, full)][bot.vector_to_index((1,))]] == (1, 0)
    for a in range(4):
        got = top.index_to_vector[B.nm[(e, full)][bot.vector_to_index((a,))]]
        assert got == (((a * a - a) // 2) % 2, a % 4)


def test_burnside_nm_formula_c3_mod9():
    B = corpus.BURNSIDE_CORPUS["burnside_C3_9"]
    e, full = C3.trivial_subgroup, C3.full_subgroup
    top = B.levels[full]
    for a in range(9):
        got = top.index_to_vector[B.nm[(e, full)][B.levels[e].vector_to_index((a,))]]
        assert got == (((a ** 3 - a) // 3) % 3, a % 9)


def test_burnside_nm_monoid_values():
    for name, B in corpus.BURNSIDE_CORPUS.items():
        for (K, H) in B.sub_pairs():
            assert B.nm[(K, H)][B.levels[K].zero] == B.levels[H].zero
            assert B.nm[(K, H)][B.levels[K].one] == B.levels[H].one


def test_burnside_rejects_large_order():
    from tambara.errors import UnsupportedGroup

    with pytest.raises(UnsupportedGroup):
        burnside_mod(FiniteGroup.cyclic(13), 2)
    with pytest.raises(UnsupportedGroup):
        burnside_mod(C2, 1)


def test_burnside_composite_modulus():
    B = burnside_mod(C2, 6)
    assert check_axioms(B).passed
    e, full = C2.trivial_subgroup, C2.full_subgroup
    assert B.levels[e].size == 6


# -- coinduction / restriction ----------------------------------------------


def test_coinduce_full_subgroup_is_identity_like():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    full = C2.full_subgroup
    # restrict to the full subgroup, then coinduce back along it
    R = restrict(full, T)
    C = coinduce(C2, full, R)
    iso = functor_isomorphism(T, C)
    assert iso is not None


def test_restrict_full_is_identity_like():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    R = restrict(C2.full_subgroup, T)
    assert R.group.mul_table == C2.mul_table
    iso_maps = {H: np.arange(R.levels[H].size) for H in subgroups(R.group)}
    # levels literally coincide
    for H in subgroups(R.group):
        match = C2.subgroup(H.elements)
        assert R.levels[H] is T.levels[match]


def test_coinduce_bottom_is_swap():
    T = corpus.COIND_CORPUS["coind_e_C2_constF3"]
    e, full = C2.trivial_subgroup, C2.full_subgroup
    assert T.levels[e].size == 9
    assert T.levels[full].size == 3
    res = T.res[(e, full)]
    # restriction is the diagonal: injective
    assert len(set(res.tolist())) == 3
    B = T.bottom_gring()
    gen = B.action[1]
    assert not np.array_equal(gen, np.arange(9))


def test_coinduced_levels_multiply_along_double_cosets():
    T = corpus.COIND_CORPUS["coind_C2a_S3_constF2"]
    sizes = sorted(T.levels[H].size for H in subgroups(S3))
    # levels at K: product over H\S3/K of F2-levels: |H\S3/K| factors
    assert T.levels[S3.trivial_subgroup].size == 2 ** 3
    assert T.levels[S3.full_subgroup].size == 2


def test_product_levels():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    e = C2.trivial_subgroup
    assert T.levels[e].size == 4 * 4  # F4 x (F2 x F2)
    with pytest.raises(GroupMismatch):
        product(corpus.FP_CORPUS["F4_galois_C2"], corpus.GREEN_CORPUS["green_cex_2_F2"])


def test_product_of_burnside_squares_level_sizes():
    B = corpus.BURNSIDE_CORPUS["burnside_C2_4"]
    P = corpus.PRODUCT_CORPUS["burnside_sq_C2_4"]
    for H in subgroups(C2):
        assert P.levels[H].size == B.levels[H].size ** 2


def test_zero_functor_is_first_class():
    Z = zero_functor(C2)
    assert Z.is_zero()
    assert check_axioms(Z).passed
    P = product(Z, corpus.FP_CORPUS["F4_galois_C2"])
    assert [P.levels[H].size for H in subgroups(C2)] == [4, 2]


# -- eval_along ---------------------------------------------------------------


def test_eval_along_identity():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    X = coset_gset(C2, C2.trivial_subgroup)

    for kind in ("res", "tr", "nm"):
        m = eval_along(T, helpers.identity_map(X), kind)
        assert np.array_equal(m.as_table(), np.arange(4))


def test_eval_along_fold_map_gives_ring_ops():
    for T in (corpus.FP_CORPUS["F4_galois_C2"], corpus.BURNSIDE_CORPUS["burnside_C2_4"]):
        e = T.group.trivial_subgroup
        X = coset_gset(T.group, e)
        A, _ = disjoint_union([X, X])
        fold = GSetMap(A, X, tuple(list(range(X.size)) * 2))
        ring = T.levels[e]
        tr = eval_along(T, fold, "tr")
        nm = eval_along(T, fold, "nm")
        for a in range(ring.size):
            for b in range(ring.size):
                assert reference_apply(tr, (a, b)) == (int(ring.add[a, b]),)
                assert reference_apply(nm, (a, b)) == (int(ring.mul[a, b]),)


def test_eval_along_projection_is_lewis_norm():
    B = corpus.BURNSIDE_CORPUS["burnside_C2_4"]
    e, full = C2.trivial_subgroup, C2.full_subgroup
    f = GSetMap(coset_gset(C2, e), coset_gset(C2, full), (0, 0))
    nm = eval_along(B, f, "nm")
    top = B.levels[full]
    for a in range(4):
        got = top.index_to_vector[reference_apply(nm, (B.levels[e].vector_to_index((a,)),))[0]]
        assert got == (((a * a - a) // 2) % 2, a % 4)


def test_eval_along_green_norm_raises():
    GC = corpus.GREEN_CORPUS["green_cex_2_F2"]
    G = GC.group
    f = GSetMap(coset_gset(G, G.trivial_subgroup), coset_gset(G, G.full_subgroup), (0, 0))
    with pytest.raises(NoNorms):
        eval_along(GC, f, "nm")


# -- the axiom checker --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(corpus.TAMBARA_CORPUS))
def test_corpus_passes_axioms(name):
    report = check_axioms(corpus.TAMBARA_CORPUS[name])
    assert report.passed, f"{name}: {report.summary()}"


@pytest.mark.parametrize("name", sorted(corpus.GREEN_CORPUS))
def test_green_corpus_passes_axioms(name):
    report = check_axioms(corpus.GREEN_CORPUS[name])
    assert report.passed, f"{name}: {report.summary()}"


def test_axioms_on_nonabelian_order8_coinduction():
    D4 = corpus.D4
    H = next(s for s in subgroups(D4) if s.order == 2)
    T = coinduce(D4, H, constant_functor(F2, H.as_group[0]))
    assert check_axioms(T).passed


def test_axioms_at_higher_fiber_bound():
    B = corpus.BURNSIDE_CORPUS["burnside_C4_4"]
    assert check_axioms(B, fiber_bound=3).passed


@pytest.mark.parametrize("bound", [1, 0, -1])
def test_check_axioms_refuses_fiber_bound_below_2(bound):
    # a smaller bound would check fewer exponential identities, yet PASS
    with pytest.raises(DefinitionError, match="fiber bound must be at least 2"):
        check_axioms(corpus.BURNSIDE_CORPUS["burnside_C2_4"], fiber_bound=bound)


@pytest.mark.parametrize("name", sorted({**corpus.TAMBARA_CORPUS, **corpus.GREEN_CORPUS}))
def test_coinduce_matches_per_map_reference_on_corpus(name):
    T = {**corpus.TAMBARA_CORPUS, **corpus.GREEN_CORPUS}[name]
    full = T.group.full_subgroup
    assert_same_functor(coinduce(T.group, full, T), reference_coinduce(T.group, full, T))


@pytest.mark.parametrize("G", corpus.LATTICE_GROUPS, ids=lambda g: g.name)
def test_coinduce_matches_per_map_reference_on_lattice_groups(G):
    for H in subgroups(G):
        index = G.order // H.order
        if 2 ** index > 256:
            continue  # only (A4, e): a 4096-element bottom level
        Hg = H.as_group[0]
        if H.order == 2 and index <= 4:
            inner = fixed_point_functor(galois_gring(F4, Hg))
        else:
            inner = constant_functor(F3 if index <= 4 else F2, Hg)
        assert_same_functor(coinduce(G, H, inner), reference_coinduce(G, H, inner))


@pytest.mark.parametrize("G", corpus.LATTICE_GROUPS, ids=lambda g: g.name)
def test_coinduce_matches_per_map_reference_on_green_inner(G):
    # no norm tables: coinduce builds res, tr and conj only
    for H in subgroups(G):
        index = G.order // H.order
        if 2 ** index > 256:
            continue  # only (A4, e): a 4096-element bottom level
        Hg = H.as_group[0]
        R = galois_gring(F4, Hg) if H.order == 2 and index <= 4 else \
            trivial_gring(F3 if index <= 4 else F2, Hg)
        inner = fixed_point_functor(R, green_only=True)
        got = coinduce(G, H, inner)
        assert not got.has_norms and got.nm is None
        assert_same_functor(got, reference_coinduce(G, H, inner))


@pytest.mark.parametrize("G", corpus.LATTICE_GROUPS, ids=lambda g: g.name)
def test_coinduce_matches_per_map_reference_nested(G):
    # Coind_H^G Coind_K^H, as decompose builds from a slice coinduced twice
    cases = 0
    for H in subgroups(G)[1:-1]:
        Hg = H.as_group[0]
        for K in subgroups(Hg)[:-1]:
            if G.order // K.order > 8:
                continue  # a bottom level of more than 2^8 elements
            inner = constant_functor(F2, K.as_group[0])
            assert_same_functor(coinduce(G, H, coinduce(Hg, K, inner)),
                                reference_coinduce(G, H, reference_coinduce(Hg, K, inner)))
            cases += 1
    assert cases


@pytest.mark.parametrize("G", corpus.LATTICE_GROUPS, ids=lambda g: g.name)
def test_coinduce_builds_each_restricted_map_once(G, monkeypatch):
    # one GSetMap (and its equivariance check) per coset projection K1 <= K2,
    # shared by res, tr and nm, and one per conjugation iso (g, K)
    H = subgroups(G)[-2]
    inner = constant_functor(F2, H.as_group[0])
    built = []
    check = GSetMap.__post_init__
    monkeypatch.setattr(GSetMap, "__post_init__", lambda f: (built.append(f), check(f)))
    coinduce(G, H, inner)
    assert len(built) == len(G.subgroup_pairs) + G.order * len(subgroups(G))


@pytest.mark.parametrize("green_only", [False, True])
@pytest.mark.parametrize("name", sorted(corpus.GRING_CORPUS))
def test_fixed_point_functor_matches_per_map_reference(name, green_only):
    R = corpus.GRING_CORPUS[name]
    assert_same_functor(fixed_point_functor(R, green_only=green_only),
                        reference_fixed_point_functor(R, green_only=green_only))


def test_burnside_a4_order12_spot_check():
    A4 = FiniteGroup.from_permutations([[1, 2, 0, 3], [0, 2, 3, 1]], name="A4")
    B = burnside_mod(A4, 2)
    assert sorted(B.levels[H].size for H in subgroups(A4)) == [2] * 5 + [4] * 4 + [8]
    assert check_axioms(B).passed


@pytest.mark.parametrize("case", ["C2_triv", "C4_galois", "S3_triv", "S3_galois"])
def test_coinduce_commutes_with_fixed_points(case):
    # the functor-level coinduction (orbit evaluation) and the ring-level
    # coinduction (twisted action) are independent code paths; composing
    # each with fixed points must give isomorphic functors
    from tambara.rings import coinduce_gring

    if case == "C2_triv":
        G, H = C2, C2.trivial_subgroup
        S = trivial_gring(F3, H.as_group[0])
    elif case == "C4_galois":
        G, H = C4, C4.subgroup([0, 2])
        S = galois_gring(F4, H.as_group[0])
    elif case == "S3_triv":
        G, H = S3, corpus.S3_ORDER2
        S = trivial_gring(F3, H.as_group[0])
    else:
        G, H = S3, corpus.S3_ORDER2
        S = galois_gring(F4, H.as_group[0])
    lhs = coinduce(G, H, fixed_point_functor(S))
    rhs = fixed_point_functor(coinduce_gring(G, H, S))
    assert functor_isomorphism(lhs, rhs) is not None


def _failing_families(T):
    report = check_axioms(T)
    assert not report.passed
    for f in report.failures:
        assert f.description  # a concrete printed witness
    return {f.family for f in report.failures}


def test_exponential_family_propagates_internal_errors(monkeypatch):
    # an error while building a diagram is never reported as an axiom failure
    import tambara.functors as functors

    def broken(f, p):
        raise RuntimeError("bug in the dependent product")

    monkeypatch.setattr(functors, "dependent_product", broken)
    with pytest.raises(RuntimeError):
        check_axioms(corpus.FP_CORPUS["F4_galois_C2"])


def test_exponential_diagram_past_size_cap_raises(monkeypatch):
    # a diagram too large to build shows no identity failing: the check
    # raises, naming the diagram, instead of reporting a failure
    import tambara.functors as functors

    def capped(f, p):
        raise SizeLimitExceeded("dependent product would have more than 4096 points")

    monkeypatch.setattr(functors, "dependent_product", capped)
    with pytest.raises(SizeLimitExceeded, match=r"^exponential diagram .* over .*: dependent product"):
        check_axioms(corpus.FP_CORPUS["F4_galois_C2"])


def test_exponential_failure_names_plain_ints():
    T = copy_functor(corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    e, full = C2.trivial_subgroup, C2.full_subgroup
    nm = T.nm[(e, full)]
    T.nm[(e, full)] = T.levels[full].mul[nm, nm]
    failure = helpers.first_failure(check_axioms(T))
    assert failure.family == "exponential"
    assert failure.description == (
        "exponential formula fails for A = G/(0,) + G/(0,) over (0,)<=(0, 1) "
        "at element (1, 1): (0,) vs (6,)")


def _squared_norm_burnside():
    T = copy_functor(corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    e, full = C2.trivial_subgroup, C2.full_subgroup
    nm = T.nm[(e, full)]
    T.nm[(e, full)] = T.levels[full].mul[nm, nm]
    return T


# every functor with norms of the corpus and of the mutation fixtures, and
# two over D4, which the corpus lacks; grouped by group
PATH_FUNCTORS = {G.name: [] for G in (C2, C3, C4, V4, S3, corpus.D4)}
for _name, _T in [*corpus.TAMBARA_CORPUS.items(),
                  *((desc, T) for desc, T, _ in helpers.mutation_fixtures() if T.has_norms),
                  ("squared norm of Burnside(C2) mod 4", _squared_norm_burnside()),
                  ("const F3 over D4", constant_functor(F3, corpus.D4)),
                  ("Burnside(D4) mod 2", burnside_mod(corpus.D4, 2))]:
    PATH_FUNCTORS[_T.group.name].append((_name, _T))


@pytest.mark.parametrize("group", sorted(PATH_FUNCTORS))
def test_exponential_paths_match_unfused_reference(group):
    # the mesh, the fused restriction, the grouping by source component and
    # the first-step gather change no value of either side, on passing
    # functors and on broken ones alike
    assert PATH_FUNCTORS[group]
    for name, T in PATH_FUNCTORS[group]:
        G = T.group
        for K, H in G.subgroup_pairs:
            if K == H:
                continue
            f = _coset_projection(G, K, H)
            nm_f = eval_along(T, f, "nm")
            for A, p, desc in _exponential_family(G, K, 2):
                try:
                    diag = dependent_product(f, GSetMap(A, f.source, p))
                except SizeLimitExceeded:
                    continue
                shape, *got = _exponential_paths(T, nm_f, eval_along(T, diag.p, "tr"), diag, {})
                arr, *want = reference_exponential_paths(T, diag)
                assert shape == tuple(evaluate_gset(T, A).sizes)
                assert arr.shape == (int(np.prod(shape)), len(shape))
                for g, w in zip(got, want):
                    for c in g:
                        assert c.dtype == np.int32 and np.broadcast_shapes(c.shape, shape) == shape
                    assert np.array_equal(helpers.mesh_rows(shape, g), w), \
                        (name, K.elements, H.elements, desc)


def _perfbench_broken_functors():
    """The benchmark's broken definition inputs whose check fails the
    exponential family, built by its own recipes (labels of seed 1)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        wl = importlib.import_module("workloads")
    out = []
    for workload, gname, build, recipe in [
            ("burnside", "C2", lambda G, P: burnside_mod(G, 4), "mackey_norm"),
            ("lattice", "D4", lambda G, P: wl.assembly(G, P, [([(1, 2, 3, 0)], "F3")]),
             "mackey_additive"),
            ("tables", "V4", lambda G, P: wl.assembly(G, P, dict(wl.TABLES_INPUTS)["V4"]),
             "mackey_additive")]:
        P = wl.Presented(gname, random.Random(f"{workload}:1"))
        out.append((f"{workload}: {recipe} of {gname}", wl.mutate(build(wl.group_of(P), P), recipe)))
    return out


# every mutation fixture and broken benchmark input whose check fails the
# exponential family
EXPONENTIAL_FAILING = [(desc, T) for desc, T, _ in helpers.mutation_fixtures()
                       if any(f.family == "exponential" for f in check_axioms(T).failures)]
BENCHMARK_BROKEN = _perfbench_broken_functors()
EXPONENTIAL_FAILING += BENCHMARK_BROKEN


@pytest.mark.parametrize("name, T", EXPONENTIAL_FAILING, ids=[d for d, _ in EXPONENTIAL_FAILING])
def test_exponential_failure_located_as_reference(name, T):
    # the mesh finds the first failing element in C order, the row order of
    # the reference, and names it and both values alike
    want = []
    G = T.group
    for K, H in G.subgroup_pairs:
        if K == H:
            continue
        f = _coset_projection(G, K, H)
        for A, p, desc in _exponential_family(G, K, 2):
            diag = dependent_product(f, GSetMap(A, f.source, p))
            failure = helpers.reference_exponential_failure(T, diag, desc, K, H)
            if failure is not None:
                want.append(failure)
    got = [f.description for f in check_axioms(T).failures if f.family == "exponential"]
    assert got and got == want[:MAX_FAILURES_PER_FAMILY]


def _assert_corner_norm_is_reference(name, T):
    """On every diagram of T's exponential family, the norm planned orbit by
    orbit of Pi_f A (_corner_norm) has the items of the corner reference
    (helpers.corner_norm) in the same order with equal tables, and the
    second side of the formula equals the corner one on every element."""
    G = T.group
    for K, H in G.subgroup_pairs:
        if K == H:
            continue
        f = _coset_projection(G, K, H)
        nm_f = eval_along(T, f, "nm")
        for A, p, desc in _exponential_family(G, K, 2):
            try:
                diag = dependent_product(f, GSetMap(A, f.source, p))
            except SizeLimitExceeded:
                continue
            where = (name, K.elements, H.elements, desc)
            got = _corner_norm(T, diag, evaluate_gset(T, A), evaluate_gset(T, diag.pi), {})
            want = helpers.corner_norm(T, diag)
            assert [[i for i, _ in c] for c in got.plan] == [[i for i, _ in c] for c in want.plan], where
            assert all(np.array_equal(a, b) for c, d in zip(got.plan, want.plan)
                       for (_, a), (_, b) in zip(c, d)), where
            shape, _, side = _exponential_paths(T, nm_f, eval_along(T, diag.p, "tr"), diag, {})
            ref = helpers.corner_second_path(T, diag)
            assert len(side) == len(ref), where
            for a, b in zip(side, ref):
                assert np.array_equal(np.broadcast_to(a, shape), np.broadcast_to(b, shape)), where


def _moved_bottom_conjugation():
    """F4 through C4 with c_1 on the bottom level sending 0 to 3.  In its
    A = G/e + G/e diagram over e <= C4 the least g with g.base_j = pi* does
    not take the fiber point x to x0, so the norm leg must use the carrier
    of pi*, not the g that reaches pi* from (x, base_j)."""
    T = copy_functor(corpus.TAMBARA_CORPUS["F4_through_C4"])
    key = (1, T.group.trivial_subgroup)
    T.conj[key] = T.conj[key].copy()
    T.conj[key][0] = 3
    return T


CORNER_FUNCTORS = [*((name, T) for group in sorted(PATH_FUNCTORS) for name, T in PATH_FUNCTORS[group]),
                   *BENCHMARK_BROKEN,
                   ("F4 through C4, c_1 moving 0 on the bottom", _moved_bottom_conjugation())]


@pytest.mark.parametrize("name, T", CORNER_FUNCTORS, ids=[name for name, _ in CORNER_FUNCTORS])
def test_corner_norm_matches_corner_reference(name, T):
    # every corpus functor with norms, every mutation fixture with norms and
    # the benchmark's broken inputs
    _assert_corner_norm_is_reference(name, T)


def _with_corner_reference(T):
    """check_axioms(T) with the second path taken through the pullback corner."""
    import tambara.functors as functors

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functors, "_corner_norm", lambda T, diag, *_: helpers.corner_norm(T, diag))
        return check_axioms(T)


MUTANT_BASES = [*corpus.TAMBARA_CORPUS.items(), ("const F3 over D4", constant_functor(F3, corpus.D4))]


@st.composite
def one_entry_mutants(draw):
    """A corpus functor with one entry of one res, tr, nm or conj table set to
    another element of the table's target level; conj only below the top
    level, where a conjugation can move the corner orbits' bases."""
    name, T = draw(st.sampled_from(MUTANT_BASES))
    T = copy_functor(T)
    kind = draw(st.sampled_from(["res", "tr", "nm", "conj"]))
    full = T.group.full_subgroup
    keys = [key for key in getattr(T, kind) if kind != "conj" or key[1] != full]
    key = draw(st.sampled_from(keys))
    if kind == "conj":
        target = key[1].conjugate(key[0])
    else:
        target = key[0] if kind == "res" else key[1]
    table = getattr(T, kind)[key].copy()
    i = draw(st.integers(0, len(table) - 1))
    table[i] = draw(st.integers(0, T.levels[target].size - 1))
    getattr(T, kind)[key] = table
    return f"{name}: {kind} at {key} entry {i} -> {int(table[i])}", T


@given(one_entry_mutants())
@settings(max_examples=60, deadline=None)
def test_corner_norm_matches_corner_reference_on_mutants(mutant):
    name, T = mutant
    _assert_corner_norm_is_reference(name, T)
    got, want = check_axioms(T), _with_corner_reference(T)
    assert got.summary() == want.summary(), name


@pytest.mark.parametrize("name, T", EXPONENTIAL_FAILING, ids=[d for d, _ in EXPONENTIAL_FAILING])
def test_check_reports_as_with_corner_reference(name, T):
    assert check_axioms(T).summary() == _with_corner_reference(T).summary()


def test_check_never_builds_the_pullback_corner(monkeypatch):
    import tambara.gsets as gsets

    def refuse(f, g):
        raise AssertionError("check_axioms built a pullback")

    monkeypatch.setattr(gsets, "pullback", refuse)
    for name in ["coind_C2a_S3_FPF4", "burnside_C4_4", "coind_e_V4_constF2"]:
        assert check_axioms(corpus.TAMBARA_CORPUS[name]).passed
    for _, T in EXPONENTIAL_FAILING:
        assert any(f.family == "exponential" for f in check_axioms(T).failures)
    # the corner is still there to read, built by pullback on first read
    G = corpus.S3
    f = _coset_projection(G, G.trivial_subgroup, G.full_subgroup)
    A, p, _ = next(x for x in _exponential_family(G, G.trivial_subgroup, 2) if "+" in x[2])
    diag = dependent_product(f, GSetMap(A, f.source, p))
    with pytest.raises(AssertionError, match="built a pullback"):
        diag.pullback_corner


def test_check_never_builds_pi_point_by_point(monkeypatch):
    # every diagram is read off its orbit records: the point-level pi, its
    # projection and its section matrix are built on first read, which
    # check_axioms never does
    import tambara.gsets as gsets

    def refuse(diag):
        raise AssertionError("pi built point by point")

    monkeypatch.setattr(gsets.ExponentialDiagram, "_points", property(refuse))
    for name in ["coind_C2a_S3_FPF4", "burnside_C4_4", "coind_e_V4_constF2"]:
        assert check_axioms(corpus.TAMBARA_CORPUS[name]).passed
    for _, T in EXPONENTIAL_FAILING:
        assert any(f.family == "exponential" for f in check_axioms(T).failures)
    G = corpus.S3
    f = _coset_projection(G, G.trivial_subgroup, G.full_subgroup)
    A, p, _ = next(x for x in _exponential_family(G, G.trivial_subgroup, 2) if "+" in x[2])
    diag = dependent_product(f, GSetMap(A, f.source, p))
    for read in ("pi", "projection", "sections"):
        with pytest.raises(AssertionError, match="point by point"):
            getattr(diag, read)


def _swapping(monkeypatch, row, i, j):
    """Make every base-fiber action with more than i and j sections swap
    its entries i and j in the given row."""
    import tambara.gsets as gsets

    action = gsets.ExponentialDiagram._action

    def swapped(self, y):
        out = action(self, y).copy()
        if out.shape[1] > max(i, j):
            out[row, [i, j]] = out[row, [j, i]]
        return out

    monkeypatch.setattr(gsets.ExponentialDiagram, "_action", swapped)


@pytest.mark.parametrize("row, i, j, message", [
    (0, 0, 1, "identity must act trivially"),
    (1, 0, 1, r"Stab\(y\) not acting on the sections over y=0 at g=1, h=1, x=0"),
    (2, 0, 7, r"Stab\(y\) not acting on the sections over y=0 at g=1, h=1, x=0"),
])
def test_swapped_base_fiber_action_raises(monkeypatch, row, i, j, message):
    # the action self-check fires: C3 acting on the 8 sections of
    # G/e + G/e -> G/e over the one point of G/G, two entries of one row
    # swapped; the check raises rather than reporting a failure
    f = _coset_projection(C3, C3.trivial_subgroup, C3.full_subgroup)
    A, _ = disjoint_union([f.source, f.source])
    p = GSetMap(A, f.source, (0, 1, 2, 0, 1, 2))
    assert dependent_product(f, p).size == 8
    _swapping(monkeypatch, row, i, j)
    with pytest.raises(DefinitionError, match=message):
        dependent_product(f, p)
    with pytest.raises(DefinitionError, match=message):
        check_axioms(corpus.TAMBARA_CORPUS["burnside_C3_9"])


def test_eval_along_shares_one_table_per_orbit_type():
    # source orbits with the same stabilizer, target stabilizer and carrier
    # share one table, which equals the composite of the stored maps
    T = corpus.COIND_CORPUS["coind_C2a_S3_FPF4"]
    G = T.group
    K, H = G.trivial_subgroup, G.full_subgroup
    f = _coset_projection(G, K, H)
    A, p, _ = next(x for x in _exponential_family(G, K, 2) if "+" in x[2])
    diag = dependent_product(f, GSetMap(A, f.source, p))
    for g, kind in [(diag.corner_projection, "nm"), (diag.corner_projection, "tr"),
                    (diag.evaluation, "res")]:
        m = eval_along(T, g, kind)
        if kind == "res":
            items = [(i, t) for i, (_, t) in enumerate(m.plan)]
            sources, targets = m.target.orbits, m.source.orbits
        else:
            items = [item for component in m.plan for item in component]
            sources, targets = m.source.orbits, m.target.orbits
        ids = {}
        for i, t in items:
            A_, q = sources[i].stabilizer, g(sources[i].base)
            B, u = targets[g.target.orbit_of[q]].stabilizer, g.target.carrier[q]
            M = A_.conjugate(G.inv(u))
            want = (T.conj[(u, M)][T.res[(M, B)]] if kind == "res"
                    else T.table(kind, (M, B))[T.conj[(G.inv(u), A_)]])
            assert np.array_equal(t, want)
            ids.setdefault((A_, B, u), set()).add(id(t))
        assert len(items) > len(ids)
        assert all(len(s) == 1 for s in ids.values())


def test_mutation_contracts():
    T = copy_functor(corpus.FP_CORPUS["F4_galois_C2"])
    e, full = C2.trivial_subgroup, C2.full_subgroup
    nm = T.nm[(e, full)].copy()
    nm[2] = T.levels[full].zero  # kill one unit value: breaks multiplicativity
    T.nm[(e, full)] = nm
    assert "contracts" in _failing_families(T)


def test_mutation_conjugation():
    T = copy_functor(corpus.FP_CORPUS["F4_galois_C2"])
    full = C2.full_subgroup
    # 1 lies in C2, so c_1 on the top level must be the identity
    T.conj[(1, full)] = np.array([1, 0])
    assert "conjugation" in _failing_families(T)


def test_mutation_mackey_additive():
    T = copy_functor(corpus.FP_CORPUS["F4_galois_C2"])
    e, full = C2.trivial_subgroup, C2.full_subgroup
    tr = T.tr[(e, full)]
    doubled = T.levels[full].add[tr, tr]
    T.tr[(e, full)] = doubled  # 2*tr stays additive but breaks the formula
    fams = _failing_families(T)
    assert "mackey_additive" in fams or "frobenius" in fams


def test_mutation_mackey_norm():
    T = copy_functor(corpus.FP_CORPUS["F9_galois_C2"])
    e, full = C2.trivial_subgroup, C2.full_subgroup
    nm = T.nm[(e, full)]
    squared = T.levels[full].mul[nm, nm]
    T.nm[(e, full)] = squared  # nm^2 is still a monoid map
    assert "mackey_norm" in _failing_families(T)


def test_mutation_frobenius():
    T = copy_functor(corpus.GREEN_CORPUS["green_cex_2_F2"])
    G = T.group
    e, full = G.trivial_subgroup, G.full_subgroup
    # (sum, 0) -> (sum, sum): still additive, same res-comp, breaks Frobenius
    tr = T.tr[(e, full)]
    top = T.levels[full]
    vec = [divmod(int(t), 2)[0] for t in tr]  # left components over S=F2
    T.tr[(e, full)] = np.array([v * 2 + v for v in vec])
    fams = _failing_families(T)
    assert "frobenius" in fams
    assert "mackey_additive" not in fams


def test_mutation_exponential():
    T = copy_functor(corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    e, full = C2.trivial_subgroup, C2.full_subgroup
    top, bot = T.levels[full], T.levels[e]
    k = top.vector_to_index((1, 2))  # x + 2: a kernel element of res
    tr = T.tr[(e, full)].copy()
    for a in range(4):
        if a % 2 == 1:
            tr[a] = top.add[tr[a], k]
    T.tr[(e, full)] = tr
    fams = _failing_families(T)
    assert "exponential" in fams


def test_weyl_group_acts_on_levels():
    # conjugation restricted to normalizer representatives is a genuine
    # action of the Weyl group on the level, trivial on inner elements
    from tambara.groups import weyl_group
    from tambara.rings import GRing as _GRing

    T = corpus.FP_CORPUS["F4_sign_S3"]
    H = corpus.S3_ORDER3
    W, section = weyl_group(S3, H)
    assert W.order == 2
    rows = np.array([T.conj[(g, H)] for g in section])
    ring = T.levels[H]
    assert ring.size == 4  # C3 acts through even permutations: all of F4 fixed
    action = _GRing(ring, W, rows)  # validates the action axioms
    assert not np.array_equal(action.action[1], np.arange(4))


# -- Mackey decomposition ------------------------------------------------------


def _h_functors(H):
    Hg, _ = H.as_group
    out = [constant_functor(F2, Hg)]
    if H.order == 2:
        out.append(fixed_point_functor(galois_gring(F4, Hg)))
    if H.order == 3:
        out.append(constant_functor(F3, Hg))
    return out


@pytest.mark.parametrize("G", [C4, V4, S3], ids=["C4", "V4", "S3"])
def test_mackey_decomposition_all_pairs(G):
    for H in subgroups(G):
        for T in _h_functors(H):
            for K in subgroups(G):
                lhs, rhs, iso = mackey_decomposition_iso(K, H, T)
                assert iso.is_isomorphism()
                # identity double coset factor first: its level sizes match
                # the canonical first block


def test_mackey_decomposition_c2_trivial_pair():
    e = C2.trivial_subgroup
    T = constant_functor(F3, e.as_group[0])
    lhs, rhs, iso = mackey_decomposition_iso(e, e, T)
    # Res_e Coind_e T = T x T
    assert rhs.levels[rhs.group.trivial_subgroup].size == 9
    assert lhs.levels[lhs.group.trivial_subgroup].size == 9


def test_mackey_decomposition_s3_order2():
    H = corpus.S3_ORDER2
    T = constant_functor(F2, H.as_group[0])
    lhs, rhs, iso = mackey_decomposition_iso(H, H, T)
    # two double cosets: K cap K = K and K cap gKg^-1 = e
    assert lhs.levels[lhs.group.full_subgroup].size == 2 * 2
    assert iso.is_isomorphism()


# -- norm lemmas (exhaustive) -------------------------------------------------


def _additive_span(ring, gens):
    span = {ring.zero}
    frontier = [ring.zero]
    gens = set(int(g) for g in gens) | {ring.zero}
    span |= gens
    frontier = list(span)
    while frontier:
        new = []
        for a in list(span):
            for b in frontier:
                c = int(ring.add[a, b])
                if c not in span:
                    span.add(c)
                    new.append(c)
        frontier = new
    return span


def _ideal_closure(ring, gens):
    ideal = _additive_span(ring, gens)
    while True:
        extra = set()
        for a in ideal:
            row = ring.mul[a]
            for c in set(int(x) for x in row):
                if c not in ideal:
                    extra.add(c)
        if not extra:
            return ideal
        ideal = _additive_span(ring, ideal | extra)


def _proper_transfer_images(T, L):
    gens = set()
    for M in subgroups(T.group):
        if M.is_subgroup_of(L) and M.order < L.order:
            gens.update(int(x) for x in T.tr[(M, L)])
    return gens


@pytest.mark.parametrize("name", ["F4_galois_C2", "coind_e_C2_F3", "Z6_triv_C2",
                                  "burnside_C2_4", "burnside_C3_9",
                                  "coind_C2_C4_FPF4", "coind_C2a_S3_constF2"])
def test_norm_additive_up_to_proper_transfers(name):
    T = corpus.TAMBARA_CORPUS[name]
    G = T.group
    for (K, L) in T.sub_pairs():
        if K == L:
            continue
        ring = T.levels[L]
        neg = helpers.negatives(ring)
        span = _additive_span(ring, _proper_transfer_images(T, L))
        nm = T.nm[(K, L)]
        add_k = T.levels[K].add
        for a in range(T.levels[K].size):
            for b in range(T.levels[K].size):
                lhs = int(nm[add_k[a, b]])
                rhs = int(ring.add[nm[a], nm[b]])
                diff = int(ring.add[lhs, neg[rhs]])
                assert diff in span


@pytest.mark.parametrize("name", sorted(corpus.TAMBARA_CORPUS))
def test_norm_additive_on_orthogonal_fixed_idempotents(name):
    T = corpus.TAMBARA_CORPUS[name]
    B = T.bottom_gring()
    bottom = T.bottom
    fixed = [d for d in idempotents(bottom)
             if all(B.act(g, d) == d for g in T.group.elements())]
    pairs = [(a, b) for a in fixed for b in fixed
             if int(bottom.mul[a, b]) == bottom.zero]
    e = T.group.trivial_subgroup
    for H in subgroups(T.group):
        nm = T.nm[(e, H)]
        ring = T.levels[H]
        for a, b in pairs:
            s = int(bottom.add[a, b])
            assert nm[s] == ring.add[nm[a], nm[b]]


@pytest.mark.parametrize("name,Hname", [
    ("coind_e_C2_constF3", "e"),
    ("coind_e_C3_constF2", "e"),
    ("coind_C2_C4_FPF4", "C2"),
    ("coind_C2a_S3_constF2", "order2"),
    ("coind_e_V4_constF2", "e"),
])
def test_transfer_surjectivity_above_coinduction(name, Hname):
    T = corpus.TAMBARA_CORPUS[name]
    G = T.group
    H = {"e": G.trivial_subgroup, "C2": G.subgroup([0, 2]) if G.order == 4 else None,
         "order2": corpus.S3_ORDER2 if G.order == 6 else None}[Hname]
    for L in subgroups(G):
        if is_subconjugate(G, L, H):
            continue
        ring = T.levels[L]
        ideal = _ideal_closure(ring, _proper_transfer_images(T, L))
        assert ring.one in ideal, f"level {L.elements}"


# -- functor isomorphism search ----------------------------------------------


def test_functor_isomorphism_identity():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    iso = functor_isomorphism(T, T)
    assert iso is not None and iso.is_isomorphism()


def test_functor_isomorphism_coind_vs_fp():
    T1 = corpus.COIND_CORPUS["coind_e_C2_constF3"]
    T2 = corpus.FP_CORPUS["coind_e_C2_F3"]
    iso = functor_isomorphism(T1, T2)
    assert iso is not None


def test_functor_isomorphism_negative():
    T1 = corpus.COIND_CORPUS["coind_e_C2_constF3"]
    T2 = corpus.FP_CORPUS["F3xF3_triv_C2"]
    assert functor_isomorphism(T1, T2) is None


def test_functor_isomorphism_timeout():
    T = corpus.PRODUCT_CORPUS["burnside_sq_C2_4"]
    with pytest.raises(SearchTimeout):
        functor_isomorphism(T, T, budget=0)


def test_functor_isomorphism_flag_mismatch():
    with pytest.raises(GroupMismatch):
        functor_isomorphism(corpus.GREEN_CORPUS["green_cex_2_F2"],
                            corpus.FP_CORPUS["F2_triv_C2"])


# -- the Green counterexample --------------------------------------------------


def test_green_counterexample_structure():
    GC = corpus.GREEN_CORPUS["green_cex_2_F2"]
    G = GC.group
    e, full = G.trivial_subgroup, G.full_subgroup
    assert GC.levels[full].size == 4   # S x S
    assert GC.levels[e].size == 4      # F2^2
    # res tr = orbit sum through the left factor, elementwise
    res, tr = GC.res[(e, full)], GC.tr[(e, full)]
    bot = GC.levels[e]
    B = GC.bottom_gring()
    for x in range(bot.size):
        orbit_sum = bot.zero
        for g in G.elements():
            orbit_sum = int(bot.add[orbit_sum, B.act(g, x)])
        assert res[tr[x]] == orbit_sum
    # restriction has nonzero kernel (the right factor upstairs)
    assert len(set(res.tolist())) < GC.levels[full].size


def test_green_counterexample_bottom_is_coinduced():
    from tambara.rings import decompose_gring

    GC = corpus.GREEN_CORPUS["green_cex_2_F2"]
    dec = decompose_gring(GC.bottom_gring())
    assert len(dec.factors) == 1
    assert dec.factors[0][0].order == 1  # coinduced from the trivial subgroup


def test_coinduced_green_functors_have_injective_restriction():
    # every Coind_e Green functor restricts injectively; the counterexample
    # does not, so it cannot be a Green coinduction from e
    for G, R in [(C2, F3), (C3, F2)]:
        e = G.trivial_subgroup
        green = fixed_point_functor(trivial_gring(R, e.as_group[0]), green_only=True)
        T = coinduce(G, e, green)
        assert not T.has_norms
        for (K, H) in T.sub_pairs():
            assert len(set(T.res[(K, H)].tolist())) == T.levels[H].size
    GC = corpus.GREEN_CORPUS["green_cex_2_F2"]
    G = GC.group
    res = GC.res[(G.trivial_subgroup, G.full_subgroup)]
    assert len(set(res.tolist())) < GC.levels[G.full_subgroup].size


# -- the conjugation family on one stacked index ------------------------------


def _assert_conjugation_is_reference(name, T):
    """check_axioms counts the reference's identities and reports its first
    failures; the stacked check lists every failure in the loops' order."""
    count, want = helpers.reference_conjugation_failures(T)
    report = check_axioms(T)
    got = [f.description for f in report.failures if f.family == "conjugation"]
    assert report.checked["conjugation"] == count, name
    assert got == want[:MAX_FAILURES_PER_FAMILY], name
    assert list(_conjugation_failures(T, subgroups(T.group))) == want, name
    return want


CONJUGATION_CASES = [*corpus.TAMBARA_CORPUS.items(), *corpus.GREEN_CORPUS.items(),
                     ("const F3 over D4", constant_functor(F3, corpus.D4)),
                     *((desc, T) for desc, T, _ in helpers.mutation_fixtures()),
                     *BENCHMARK_BROKEN]


@pytest.mark.parametrize("name, T", CONJUGATION_CASES, ids=[name for name, _ in CONJUGATION_CASES])
def test_conjugation_family_matches_reference(name, T):
    _assert_conjugation_is_reference(name, T)


def _seeded_mutant(seed):
    """A corpus functor with one entry of one res, tr, nm or conj table set
    to a random element of the table's target level (maybe the same); the
    seed picks the kind in turn."""
    rng = random.Random(seed)
    _, T = rng.choice([*MUTANT_BASES, *corpus.GREEN_CORPUS.items()])
    T = copy_functor(T)
    kinds = ("conj", *map_kinds(T.has_norms))
    kind, key, _, dst = rng.choice([m for m in structure_maps(T.group, T.has_norms)
                                    if m[0] == kinds[seed % len(kinds)]])
    table = T.table(kind, key).copy()
    i = rng.randrange(len(table))
    table[i] = rng.randrange(T.levels[dst].size)
    getattr(T, kind)[key] = table
    return f"seed {seed}: {T.label} {kind} at {key} entry {i} -> {int(table[i])}", T


@pytest.mark.parametrize("block", range(4))
def test_conjugation_family_matches_reference_on_mutants(block):
    failing = 0
    for seed in range(50 * block, 50 * block + 50):
        failing += bool(_assert_conjugation_is_reference(*_seeded_mutant(seed)))
    assert failing >= 5  # the mutants reach the family's failures


def _with_table(T, kind, key, table):
    T = copy_functor(T)
    getattr(T, kind)[key] = np.array(table)
    return T


def _swapped(T, kind, key):
    """T with the first two entries of one table exchanged."""
    table = T.table(kind, key).copy()
    table[[0, 1]] = table[[1, 0]]
    return _with_table(T, kind, key, table)


def _many_conjugation_failures():
    """Functors failing more conjugation identities than are reported, with
    the checks their first reported failures come from."""
    F4C2, B3, S3F4 = (corpus.TAMBARA_CORPUS[name]
                      for name in ["F4_galois_C2", "burnside_C3_3", "coind_C2a_S3_FPF4"])
    e, top = S3.trivial_subgroup, S3.full_subgroup
    tr = S3F4.tr[(e, top)].copy()
    tr[1] ^= 1
    return [
        ("c_1 moves the top level of F4 over C2", _swapped(F4C2, "conj", (1, C2.full_subgroup)),
         ("identity", "intertwining", "intertwining")),
        ("c_1 cycles the bottom level of F4 over C2",
         _with_table(F4C2, "conj", (1, C2.trivial_subgroup), [1, 2, 3, 0]),
         ("composition", "intertwining", "intertwining")),
        ("c_1 moves the top level of Burnside mod 3 over C3", _swapped(B3, "conj", (1, C3.full_subgroup)),
         ("identity", "composition", "composition")),
        ("c_2 and c_1 move the middle and top levels of F16 over C4",  # level before element
         _swapped(_swapped(corpus.TAMBARA_CORPUS["F16_galois_C4"], "conj", (2, C4.subgroup([0, 2]))),
                  "conj", (1, C4.full_subgroup)),
         ("identity", "identity", "composition")),
        ("c_1 moves the bottom level over S3", _swapped(S3F4, "conj", (1, e)),
         ("composition",) * 3),
        ("one transfer entry changed over S3", _with_table(S3F4, "tr", (e, top), tr),
         ("intertwining",) * 3),
    ]


def _check_of(desc):
    """Which of the three conjugation checks a failure description is from."""
    return ("identity" if "identity" in desc else "composition" if "!=" in desc
            else "intertwining")


MANY_FAILURES = _many_conjugation_failures()


@pytest.mark.parametrize("name, T, first", MANY_FAILURES, ids=[name for name, *_ in MANY_FAILURES])
def test_conjugation_family_caps_and_orders_many_failures(name, T, first):
    want = _assert_conjugation_is_reference(name, T)
    assert len(want) > MAX_FAILURES_PER_FAMILY
    assert tuple(map(_check_of, want[:MAX_FAILURES_PER_FAMILY])) == first


def test_conjugation_family_reads_int64_tables():
    # a table set after construction keeps its own dtype
    T = copy_functor(corpus.TAMBARA_CORPUS["coind_C2a_S3_FPF4"])
    for key in T.conj:
        T.conj[key] = T.conj[key].astype(np.int64)
    _assert_conjugation_is_reference("int64 conj tables", T)
    assert check_axioms(T).passed
    e = S3.trivial_subgroup
    T.conj[(1, e)] = T.conj[(1, e)][::-1].astype(np.int64)
    _assert_conjugation_is_reference("int64 conj table moved", T)
    assert not check_axioms(T).passed


def test_conjugation_family_memory_stays_near_the_tables():
    # Coind_e^S3 F4 has a level of 4096 elements; the family holds one g's
    # gathers at a time, never |G| times the source levels
    T = coinduce(S3, S3.trivial_subgroup, constant_functor(F4, S3.trivial_subgroup.as_group[0]))
    assert max(r.size for r in T.levels.values()) == 4096
    tables = sum(T.table(name, key).nbytes for name, key, *_ in structure_maps(S3, T.has_norms))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert list(_conjugation_failures(T, subgroups(T.group))) == []
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * tables, (peak, tables)
