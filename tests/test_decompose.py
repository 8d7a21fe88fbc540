import random

import numpy as np
import pytest

import corpus
import helpers
from corpus import C2, C3, C4, F2, F3, F4, S3, V4
from tambara.errors import (
    CrossTermFound,
    DefinitionError,
    FactorizationFailed,
    NoNorms,
    NotComplete,
    NotFixed,
    NotIdempotent,
    NotOrthogonal,
    TargetNotClarified,
    ZeroFunctor,
)
from tambara.groups import subgroups, upward_closure
from tambara.functors import (
    TambaraMorphism,
    check_axioms,
    coinduce,
    constant_functor,
    fixed_point_functor,
    functor_isomorphism,
    identity_morphism,
    product,
    restrict,
)
from tambara.decompose import (
    clarify,
    detect_coinduction,
    diagonalize_automorphism,
    factor_through_clarification,
    full_decomposition,
    split_by_bottom_idempotents,
)
from tambara.rings import idempotent_classes, idempotents, is_clarified, is_lambda_clarified
from tambara import _search


LAM_G_C2 = upward_closure(C2, C2.full_subgroup)
LAM_E_C2 = upward_closure(C2, C2.trivial_subgroup)


# -- split_by_bottom_idempotents ---------------------------------------------


def test_split_trivial_family():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    factors, witness = split_by_bottom_idempotents(T, [T.bottom.one])
    assert len(factors) == 1
    assert witness.is_isomorphism()
    assert np.array_equal(witness.maps[C2.trivial_subgroup], np.arange(4))


def test_split_recovers_product_factors():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    bottom = T.bottom
    # the two product units: (1, 0) and (0, 1) in the bottom product ring
    sz2 = 4  # size of the coinduced bottom F2 x F2
    d1 = bottom.one // 1  # placeholder; compute properly below
    # bottom = F4 x (F2 x F2), C-order: index = a * 4 + b
    d1 = 1 * sz2 + 0
    d2 = 0 * sz2 + 3  # (0, (1,1))
    factors, witness = split_by_bottom_idempotents(T, [d1, d2])
    assert witness.is_isomorphism()
    f1, f2 = factors
    assert functor_isomorphism(f1, corpus.FP_CORPUS["F4_galois_C2"]) is not None
    assert functor_isomorphism(
        f2, coinduce(C2, C2.trivial_subgroup,
                     constant_functor(F2, C2.trivial_subgroup.as_group[0]))) is not None
    for f in factors:
        assert check_axioms(f).passed


def test_split_recovers_two_fp_factors():
    A = corpus.FP_CORPUS["F4_galois_C2"]
    B = constant_functor(F2, C2)
    T = product(A, B)
    d1 = 1 * 2 + 0   # (1_F4, 0)
    d2 = 0 * 2 + 1   # (0, 1_F2)
    factors, witness = split_by_bottom_idempotents(T, [d1, d2])
    assert witness.is_isomorphism()
    assert functor_isomorphism(factors[0], A) is not None
    assert functor_isomorphism(factors[1], B) is not None


def test_split_rejects_green():
    GC = corpus.GREEN_CORPUS["green_cex_2_F2"]
    with pytest.raises(NoNorms):
        split_by_bottom_idempotents(GC, [GC.bottom.one])


def test_split_error_paths():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    bottom = T.bottom
    with pytest.raises(NotIdempotent):
        split_by_bottom_idempotents(T, [2 * 4 + 0])  # (omega, 0) is not idempotent
    with pytest.raises(NotComplete):
        split_by_bottom_idempotents(T, [1 * 4 + 0])  # misses (0,1)-part
    with pytest.raises(NotOrthogonal):
        split_by_bottom_idempotents(T, [bottom.one, bottom.one])
    with pytest.raises(NotFixed):
        # (0, (1,0)) is idempotent but swapped by the action
        split_by_bottom_idempotents(
            T, [0 * 4 + 2, 1 * 4 + 0, 0 * 4 + 1])


# -- detect_coinduction --------------------------------------------------------


def test_detect_on_clarified_returns_g():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    H, ell, w = detect_coinduction(T)
    assert H.order == 2
    assert ell is T
    assert np.array_equal(w.maps[C2.trivial_subgroup], np.arange(4))


@pytest.mark.parametrize("name,expected_order", [
    ("coind_e_C2_constF3", 1),
    ("coind_e_C3_constF2", 1),
    ("coind_C2_C4_FPF4", 2),
    ("coind_e_C4_constF2", 1),
    ("coind_C2a_S3_constF2", 2),
    ("coind_C3_S3_constF3", 3),
    ("coind_e_V4_constF2", 1),
    ("coind_C2a_S3_FPF4", 2),
])
def test_detect_on_corpus_coinductions(name, expected_order):
    T = corpus.COIND_CORPUS[name]
    H, ell, w = detect_coinduction(T)
    assert H.order == expected_order
    assert w.is_isomorphism()
    assert is_clarified(ell.bottom_gring())
    assert check_axioms(ell).passed


def test_detect_recovers_inner_functor():
    T = corpus.COIND_CORPUS["coind_C2_C4_FPF4"]
    H, ell, w = detect_coinduction(T)
    original = fixed_point_functor(
        corpus.galois_gring(F4, C4.subgroup([0, 2]).as_group[0]))
    assert functor_isomorphism(ell, original) is not None


def test_detect_coinduction_minimal_class_wins():
    # Coind_e^C4(field) also has complete-orbit idempotents of type C2;
    # detection must still find the trivial subgroup
    T = corpus.COIND_CORPUS["coind_e_C4_constF2"]
    B = T.bottom_gring()
    from tambara.rings import classify_idempotent

    types = set()
    for d in idempotents(T.bottom):
        if d == T.bottom.zero:
            continue
        rep = classify_idempotent(B, d)
        if rep.type is None:
            continue
        orbit = sorted({B.act(g, d) for g in C4.elements()})
        acc = T.bottom.zero
        for p in orbit:
            acc = int(T.bottom.add[acc, p])
        if acc == T.bottom.one:
            types.add(rep.type.order)
    assert {1, 2, 4} <= types
    H, _, _ = detect_coinduction(T)
    assert H.order == 1


def test_detect_rejects_green():
    with pytest.raises(NoNorms):
        detect_coinduction(corpus.GREEN_CORPUS["green_cex_2_F2"])


def test_detect_through_nested_coinduction():
    # coinduction is transitive, so coinducing in two steps from the
    # trivial subgroup must be detected as a single coinduction from it
    H = C4.subgroup([0, 2])
    Hg, _ = H.as_group
    inner = coinduce(Hg, Hg.trivial_subgroup,
                     constant_functor(F3, Hg.trivial_subgroup.as_group[0]))
    T = coinduce(C4, H, inner)
    assert T.bottom.size == 3 ** 4
    Hdet, ell, w = detect_coinduction(T)
    assert Hdet.order == 1
    assert ell.bottom.size == 3
    assert w.is_isomorphism()
    direct = coinduce(C4, C4.trivial_subgroup,
                      constant_functor(F3, C4.trivial_subgroup.as_group[0]))
    assert functor_isomorphism(T, direct) is not None


# -- full_decomposition ----------------------------------------------------------


def test_full_decomposition_clarified_input():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    dec = full_decomposition(T)
    assert len(dec.factors) == 1
    H, ell = dec.factors[0]
    assert H.order == 2
    assert functor_isomorphism(ell, T) is not None
    assert dec.witness.is_isomorphism()


def test_full_decomposition_mixed():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    dec = full_decomposition(T)
    shapes = sorted((H.order, ell.bottom.size) for H, ell in dec.factors)
    assert shapes == [(1, 2), (2, 4)]
    assert dec.witness.is_isomorphism()
    for H, ell in dec.factors:
        assert is_clarified(ell.bottom_gring())


def test_full_decomposition_two_proper_coinductions():
    T = product(corpus.COIND_CORPUS["coind_C2_C4_FPF4"],
                corpus.COIND_CORPUS["coind_e_C4_constF2"])
    dec = full_decomposition(T)
    orders = sorted(H.order for H, _ in dec.factors)
    assert orders == [1, 2]


def test_full_decomposition_nonnormal_twisted_product():
    # two coinductions over S3 from non-conjugate subgroups, one of them
    # non-normal with a twisted core: classes and cores must both return
    T = product(corpus.COIND_CORPUS["coind_C2a_S3_FPF4"],
                corpus.COIND_CORPUS["coind_C3_S3_constF3"])
    dec = full_decomposition(T)
    assert sorted(H.order for H, _ in dec.factors) == [2, 3]
    by_order = {H.order: ell for H, ell in dec.factors}
    want2 = fixed_point_functor(corpus.galois_gring(F4, corpus.S3_ORDER2.as_group[0]))
    want3 = constant_functor(F3, corpus.S3_ORDER3.as_group[0])
    assert functor_isomorphism(by_order[2], want2) is not None
    assert functor_isomorphism(by_order[3], want3) is not None
    assert dec.witness.is_isomorphism()


def test_full_decomposition_merges_same_class():
    T = product(corpus.COIND_CORPUS["coind_e_C2_constF3"],
                coinduce(C2, C2.trivial_subgroup,
                         constant_functor(F2, C2.trivial_subgroup.as_group[0])))
    dec = full_decomposition(T)
    assert len(dec.factors) == 1
    H, ell = dec.factors[0]
    assert H.order == 1
    assert ell.bottom.size == 6


def _assert_same_decomposition(T):
    """full_decomposition gives the reference's class units, reassembled
    tables and witness maps."""
    B = T.bottom_gring()
    assert [c.unit for c in idempotent_classes(B)] == helpers.reference_class_units(B)
    dec = full_decomposition(T)
    want, want_witness = helpers.reference_decomposition(T)
    got = dec.reassembled
    assert got.label == want.label
    for H in subgroups(T.group):
        a, b = got.levels[H], want.levels[H]
        assert (a.zero, a.one) == (b.zero, b.one)
        assert np.array_equal(a.add, b.add) and np.array_equal(a.mul, b.mul)
        assert np.array_equal(dec.witness.maps[H], want_witness.maps[H])
    for name in ("res", "tr", "nm", "conj"):
        tables = getattr(got, name)
        assert tables.keys() == getattr(want, name).keys()
        for key, tbl in tables.items():
            assert np.array_equal(tbl, want.table(name, key))


@pytest.mark.parametrize("name", sorted(corpus.TAMBARA_CORPUS))
def test_full_decomposition_matches_two_step_reference(name):
    _assert_same_decomposition(corpus.TAMBARA_CORPUS[name])


def test_full_decomposition_matches_reference_on_random_assemblies():
    rng = random.Random(20261018)
    for i in range(20):
        G = corpus.SMALL_GROUPS[i % len(corpus.SMALL_GROUPS)]
        T, _ = helpers.random_assembly(G, rng)
        _assert_same_decomposition(T)


def test_full_decomposition_errors():
    from tambara.functors import zero_functor

    with pytest.raises(NoNorms):
        full_decomposition(corpus.GREEN_CORPUS["green_cex_2_F2"])
    with pytest.raises(ZeroFunctor):
        full_decomposition(zero_functor(C2))


# -- clarify ----------------------------------------------------------------------


def test_clarify_lambda_e_is_identity():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    C, proj = clarify(T, LAM_E_C2)
    assert C is T
    for H in subgroups(C2):
        assert np.array_equal(proj.maps[H], np.arange(T.levels[H].size))


def test_clarify_coinduction_to_zero():
    for G, name in [(C2, "coind_e_C2_constF3"), (C3, "coind_e_C3_constF2")]:
        T = corpus.COIND_CORPUS[name]
        lam = upward_closure(G, G.full_subgroup)
        C, proj = clarify(T, lam)
        assert C.is_zero()


def test_clarify_mixed_keeps_clarified_part():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    C, proj = clarify(T, LAM_G_C2)
    assert functor_isomorphism(C, corpus.FP_CORPUS["F4_galois_C2"]) is not None
    # projection is levelwise surjective
    for H in subgroups(C2):
        assert set(proj.maps[H].tolist()) == set(range(C.levels[H].size))


def test_clarify_idempotent():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    C1, _ = clarify(T, LAM_G_C2)
    C2_, _ = clarify(C1, LAM_G_C2)
    assert C2_ is C1 or functor_isomorphism(C1, C2_) is not None


def test_clarify_monotone():
    # Lam subset Lam' implies clarify(T, Lam') ~ clarify(clarify(T, Lam), Lam')
    T = product(corpus.COIND_CORPUS["coind_C2_C4_FPF4"],
                corpus.COIND_CORPUS["coind_e_C4_constF2"])
    lam_c2 = upward_closure(C4, C4.subgroup([0, 2]))
    lam_g = upward_closure(C4, C4.full_subgroup)
    A, _ = clarify(T, lam_g)
    B0, _ = clarify(T, lam_c2)
    B1, _ = clarify(B0, lam_g)
    if A.is_zero():
        assert B1.is_zero()
    else:
        assert functor_isomorphism(A, B1) is not None


def test_clarify_intermediate_lambda():
    T = product(corpus.COIND_CORPUS["coind_C2_C4_FPF4"],
                corpus.COIND_CORPUS["coind_e_C4_constF2"])
    lam_c2 = upward_closure(C4, C4.subgroup([0, 2]))
    C, _ = clarify(T, lam_c2)
    # only the Coind_e factor dies
    dec = full_decomposition(C)
    assert sorted(H.order for H, _ in dec.factors) == [2]


# -- factor_through_clarification ----------------------------------------------


def test_factor_through_identity_on_clarified_source():
    T = corpus.FP_CORPUS["F4_galois_C2"]
    f = identity_morphism(T)
    g = factor_through_clarification(f, LAM_G_C2)
    assert g.source is T
    for H in subgroups(C2):
        assert np.array_equal(g.maps[H], f.maps[H])


def test_factor_through_projection():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    C, proj = clarify(T, LAM_G_C2)
    g = factor_through_clarification(proj, LAM_G_C2)
    # g o proj == proj and g is an iso of the clarified part
    assert g.is_isomorphism()
    comp = g.compose(proj)
    for H in subgroups(C2):
        assert np.array_equal(comp.maps[H], proj.maps[H])


def test_factor_through_rejects_map_not_constant_on_the_kernel():
    # an unchecked map that separates two elements with the same image
    # under the clarification projection cannot factor through it
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    C, proj = clarify(T, LAM_G_C2)
    e = C2.trivial_subgroup
    maps = {H: v.copy() for H, v in proj.maps.items()}
    x = next(x for x in range(1, T.levels[e].size) if proj.maps[e][x] == proj.maps[e][0])
    maps[e][x] = (maps[e][x] + 1) % C.levels[e].size
    f = TambaraMorphism(T, C, maps, check=False)
    with pytest.raises(FactorizationFailed,
                       match=r"f does not kill the kernel of clarification at level \(0,\)"):
        factor_through_clarification(f, LAM_G_C2)


def test_factor_through_rejects_unclarified_target():
    T = corpus.COIND_CORPUS["coind_e_C2_constF3"]
    with pytest.raises(TargetNotClarified):
        factor_through_clarification(identity_morphism(T), LAM_G_C2)


def test_no_morphism_coinduced_to_clarified():
    # a morphism Coind_e(F3) -> clarified would factor through zero, and no
    # unital morphism out of a nonzero functor lands in the zero functor
    T = corpus.COIND_CORPUS["coind_e_C2_constF3"]
    S = corpus.FP_CORPUS["F4_galois_C2"]
    from tambara.functors import _functor_structure

    found = list(_search.search_homomorphisms(
        _functor_structure(T), _functor_structure(S), injective=False, limit=1))
    assert found == []


# -- diagonalize_automorphism ------------------------------------------------------


def test_diagonalize_identity():
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    dec = full_decomposition(T)
    autos = diagonalize_automorphism(identity_morphism(dec.reassembled), dec)
    assert len(autos) == 2
    for psi in autos:
        assert psi.is_isomorphism()
        for H in subgroups(C2):
            assert np.array_equal(psi.maps[H], np.arange(psi.source.levels[H].size))


def test_diagonalize_weyl_swap():
    T = corpus.COIND_CORPUS["coind_e_C2_constF3"]
    dec = full_decomposition(T)
    R = dec.reassembled
    # conjugation by the nontrivial group element is an automorphism
    maps = {H: R.conj[(1, H)] for H in subgroups(C2)}
    phi = TambaraMorphism(R, R, maps)
    autos = diagonalize_automorphism(phi, dec)
    assert len(autos) == 1
    assert not np.array_equal(autos[0].maps[C2.trivial_subgroup],
                              np.arange(R.levels[C2.trivial_subgroup].size))


def test_diagonalize_all_automorphisms():
    # exhaustively: every automorphism of the product diagonalizes
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    dec = full_decomposition(T)
    R = dec.reassembled
    from tambara.functors import _functor_structure

    struct = _functor_structure(R)
    count = 0
    for image in _search.search_homomorphisms(struct, struct, injective=True,
                                              limit=64):
        maps = {H: image[i] for i, H in enumerate(subgroups(C2))}
        phi = TambaraMorphism(R, R, maps)
        autos = diagonalize_automorphism(phi, dec)
        assert len(autos) == 2
        count += 1
    assert count >= 1


def test_cross_term_morphisms_do_not_exist():
    # artificially mixing the two factors breaks the morphism axioms
    T = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    dec = full_decomposition(T)
    R = dec.reassembled
    e = C2.trivial_subgroup
    maps = {H: np.arange(R.levels[H].size) for H in subgroups(C2)}
    n = R.levels[e].size
    swapped = np.array([(i % 4) * 4 + i // 4 for i in range(n)])
    maps[e] = swapped
    with pytest.raises(DefinitionError):
        TambaraMorphism(R, R, maps)


# -- structural invariants ----------------------------------------------------------


@pytest.mark.parametrize("name,Horder", [
    ("coind_e_C2_constF3", 1),
    ("coind_C2_C4_FPF4", 2),
    ("coind_C2a_S3_constF2", 2),
    ("coind_C3_S3_constF3", 3),
])
def test_coinduced_is_lambda_l_clarified(name, Horder):
    T = corpus.COIND_CORPUS[name]
    G = T.group
    L = next(s for s in subgroups(G) if s.order == Horder)
    lam = upward_closure(G, L)
    assert is_lambda_clarified(T.bottom_gring(), lam)


@pytest.mark.parametrize("name", ["FPF4_x_coindF2", "coind_C2_C4_FPF4",
                                  "coind_e_C4_constF2", "F4_galois_C2",
                                  "burnside_C2_4", "coind_C2a_S3_FPF4"])
def test_lambda_clarified_iff_factors_in_lambda(name):
    # the bottom-level idempotent scan and the decomposition shape agree:
    # T is lam-clarified exactly when every factor's subgroup lies in lam
    T = corpus.TAMBARA_CORPUS[name]
    G = T.group
    dec = full_decomposition(T)
    for H in subgroups(G):
        lam = upward_closure(G, H)
        scan = is_lambda_clarified(T.bottom_gring(), lam)
        shape = all(Hf in lam for Hf, _ in dec.factors)
        assert scan == shape, (name, H.elements)


def test_every_upward_closed_set_is_realized():
    # products of coinduced rings realize each upward closure as the exact
    # set of idempotent types
    from tambara.rings import classify_idempotent, coinduce_gring, trivial_gring

    for G in (C4, S3):
        for L in subgroups(G):
            lam = upward_closure(G, L)
            R = coinduce_gring(G, L, trivial_gring(F2, L.as_group[0]))
            realized = set()
            for d in idempotents(R.ring):
                if d == R.ring.zero:
                    continue
                rep = classify_idempotent(R, d)
                if rep.type is not None:
                    realized.add(rep.type.elements)
            want = {H.elements for H in lam.members}
            assert realized == want, (G.name, L.elements)


def _is_product_of_fields(ring):
    # finite commutative: product of fields iff no nonzero nilpotents
    for x in range(ring.size):
        y = x
        for _ in range(ring.size):
            y = int(ring.mul[y, y])
        if y == ring.zero and x != ring.zero:
            return False
    return True


@pytest.mark.parametrize("name", ["coind_e_C2_constF3", "coind_e_C3_constF2",
                                  "coind_C2_C4_FPF4", "F4_galois_C2",
                                  "F9_galois_C2"])
def test_field_like_surrogate_decomposes_to_single_field_coinduction(name):
    T = corpus.TAMBARA_CORPUS[name]
    # surrogate check: all restrictions injective, bottom a product of fields
    for (K, H) in T.sub_pairs():
        assert len(set(T.res[(K, H)].tolist())) == T.levels[H].size
    assert _is_product_of_fields(T.bottom)
    dec = full_decomposition(T)
    assert len(dec.factors) == 1
    H, ell = dec.factors[0]
    assert _is_product_of_fields(ell.bottom)
    # the core's bottom level is a field: its only idempotents are 0 and 1
    assert len(idempotents(ell.bottom)) == 2
