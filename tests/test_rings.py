import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
import helpers
from helpers import gring_homomorphisms, gring_isomorphism, ring_isomorphism, subring_on_idempotent
from tambara.errors import (
    DefinitionError,
    NotIdempotent,
    SearchTimeout,
    ZeroRing,
)
from tambara.functors import fixed_point_functor, mackey_decomposition_iso
from tambara.groups import FiniteGroup, is_subconjugate, subgroups, upward_closure
from tambara.rings import (
    _IRREDUCIBLE,
    FiniteRing,
    GRing,
    RingHom,
    classify_idempotent,
    coinduce_gring,
    decompose_gring,
    fq,
    frobenius,
    gring_product,
    gring_restrict,
    idempotents,
    is_clarified,
    is_lambda_clarified,
    op_failure,
    primitive_idempotents,
    prod_components,
    prod_encode,
    product_ring,
    trivial_gring,
    zero_ring,
    zn,
)

C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
C4 = FiniteGroup.cyclic(4)
S3 = FiniteGroup.symmetric(3)

F2 = fq(2)
F3 = fq(3)
F4 = fq(4)
F5 = fq(5)
F9 = fq(9)
Z4 = zn(4)
Z6 = zn(6)


def galois_gring(field, G):
    """Field with cyclic G acting by powers of Frobenius."""
    fr = frobenius(field)
    rows = [np.arange(field.size)]
    for _ in range(G.order - 1):
        rows.append(fr[rows[-1]])
    return GRing(field, G, np.array(rows))


def swap_gring_c2(field):
    return coinduce_gring(C2, C2.trivial_subgroup,
                          trivial_gring(field, C2.trivial_subgroup.as_group[0]))


@pytest.mark.parametrize("R", [F2, F3, F4, F5, F9, fq(8), fq(27), Z4, Z6, zn(9)])
def test_ring_axioms(R):
    R.validate()


@pytest.mark.parametrize("p,k", sorted(_IRREDUCIBLE))
def test_fq_matches_pair_by_pair_reference(p, k):
    R = fq(p ** k)
    add, mul = helpers.reference_fq(p, k)
    assert np.array_equal(R.add, add)
    assert np.array_equal(R.mul, mul)
    assert (R.zero, R.one, R.label) == (0, 1, f"F{p ** k}")


def test_field_inverses():
    for R in (F4, F9, fq(8)):
        for x in range(1, R.size):
            assert R.one in R.mul[x]


def test_zero_ring():
    Z = zero_ring()
    assert Z.is_zero_ring()
    assert Z.zero == Z.one
    with pytest.raises(ZeroRing):
        primitive_idempotents(Z)


def test_bad_tables():
    with pytest.raises(DefinitionError):
        # non-commutative "addition"
        a = [[0, 1], [0, 1]]
        from tambara.rings import FiniteRing
        FiniteRing(a, a, 0, 1)


# small rings whose perturbed tables validate() and the row-by-row
# reference must judge alike; each has elements outside {0, 1} to perturb
PERTURBED_RINGS = [Z4, Z6, zn(9), F4, fq(8), F9, product_ring([F2] * 3),
                   product_ring([Z4, F2]), product_ring([F4, F3])]


@st.composite
def perturbed_tables(draw, rings=PERTURBED_RINGS):
    """Tables of a ring in rings with one or two symmetric entries of add
    or mul changed, away from the 0 and 1 rows."""
    R = draw(st.sampled_from(rings))
    tables = {"add": R.add.copy(), "mul": R.mul.copy()}
    free = [x for x in range(R.size) if x not in (R.zero, R.one)]
    for _ in range(draw(st.integers(1, 2))):
        t = tables[draw(st.sampled_from(["add", "mul"]))]
        i, j = draw(st.sampled_from(free)), draw(st.sampled_from(free))
        t[i, j] = t[j, i] = draw(st.integers(0, R.size - 1))
    return tables["add"], tables["mul"], R.zero, R.one


@given(perturbed_tables())
@settings(max_examples=400, deadline=None)
def test_validate_agrees_with_row_reference(case):
    try:
        R = FiniteRing(*case)
    except DefinitionError:  # a perturbed add may leave an element without inverse
        return
    try:
        helpers.reference_validate(R)
    except DefinitionError:
        with pytest.raises(DefinitionError):
            R.validate()
    else:
        R.validate()


def _nonassociative_f2_algebra():
    """The commutative unital F2-algebra on 1, a, b with aa = b, ab = 1,
    bb = 0: bilinear, hence distributive, but (aa)b = 0 != a = a(ab).
    Elements are bit masks over the basis (1, a, b) = (1, 2, 4)."""
    basis = [[1, 2, 4], [2, 4, 1], [4, 1, 0]]

    def times(x, y):
        out = 0
        for i in range(3):
            for j in range(3):
                if (x >> i) & 1 and (y >> j) & 1:
                    out ^= basis[i][j]
        return out

    idx = np.arange(8)
    return FiniteRing(idx[:, None] ^ idx[None, :],
                      [[times(x, y) for y in range(8)] for x in range(8)], 0, 1)


@pytest.mark.parametrize("R, family", [
    # Z/4 with 2 + 3 = 0
    (FiniteRing([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 0], [3, 0, 0, 2]], Z4.mul, 0, 1),
     "addition not associative"),
    # Z/4's addition with the multiplication of F2 x F2 on 0, 1 and the
    # orthogonal idempotents 2, 3: associative but not distributive
    (FiniteRing(Z4.add, [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 0], [0, 3, 0, 3]], 0, 1),
     "distributivity fails"),
    (_nonassociative_f2_algebra(), "multiplication not associative"),
], ids=["add", "distributivity", "mul"])
def test_validate_failure_families(R, family):
    with pytest.raises(DefinitionError, match=family):
        helpers.reference_validate(R)
    with pytest.raises(DefinitionError, match=family):
        R.validate()
    assert _outcome(R.validate) == _outcome(helpers.unbuffered_validate, R)


def _outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# the level rings of the corpus with an element outside {0, 1}, and its
# unital ring maps: every restriction between levels
CORPUS_RINGS = list({id(R): R for T in corpus.TAMBARA_CORPUS.values()
                     for R in T.levels.values() if R.size > 2}.values())
CORPUS_RING_MAPS = [(T.res[(K, H)], T.levels[H], T.levels[K])
                    for T in corpus.TAMBARA_CORPUS.values() for K, H in T.group.subgroup_pairs]


@given(perturbed_tables(PERTURBED_RINGS + CORPUS_RINGS))
@settings(max_examples=300, deadline=None)
def test_buffered_validate_matches_unbuffered(case):
    # the same verdict and message, broken associativity or
    # distributivity included
    try:
        R = FiniteRing(*case)
    except DefinitionError:
        return
    assert _outcome(R.validate) == _outcome(helpers.unbuffered_validate, R)


@given(st.sampled_from(CORPUS_RING_MAPS), st.data())
@settings(max_examples=300, deadline=None)
def test_op_failure_matches_unbuffered(ring_map, data):
    # a ring map with one image entry changed, to -1, into the target or
    # past it: the same first failing pair or the same IndexError, and an
    # entry past the target always raises, never read as another entry
    img, src, dst = ring_map
    img = img.copy()
    img[data.draw(st.integers(0, len(img) - 1))] = data.draw(st.integers(-1, dst.size + 1))
    for s_op, d_op in ((src.add, dst.add), (src.mul, dst.mul)):
        got = _outcome(op_failure, img, s_op, d_op)
        assert got == _outcome(helpers.unbuffered_op_failure, img, s_op, d_op)
        if img.max() >= dst.size:
            assert got[0] is IndexError


# the rings of these tests and the level rings of the functor corpus
VALID_RINGS = ([zero_ring(), F2, F3, F4, F5, F9, fq(8), fq(27), Z4, Z6, zn(9), zn(256),
                product_ring([F2] * 9), product_ring([F4] * 4)] + PERTURBED_RINGS
               + [T.levels[H] for T in corpus.TAMBARA_CORPUS.values() for H in subgroups(T.group)])


@pytest.mark.parametrize("R", VALID_RINGS, ids=lambda R: f"{R.label}:{R.size}")
def test_additive_generators_span_within_log_bound(R):
    gens = R.additive_generators()
    assert len(gens) <= int(np.log2(R.size))
    assert helpers.additive_span(R, gens) == set(range(R.size))
    R.validate()


def test_additive_generators_examples():
    assert zn(9).additive_generators() == [1]
    assert len(F9.additive_generators()) == 2
    assert product_ring([F2] * 9).additive_generators() == [1 << k for k in range(9)]


def test_idempotents():
    assert idempotents(F4) == [0, 1]
    P = product_ring([F3, F3])
    assert len(idempotents(P)) == 4
    assert idempotents(Z6) == [0, 1, 3, 4]


def test_primitive_idempotents():
    assert primitive_idempotents(F9) == [1]
    P = product_ring([F3, F3])
    prims = primitive_idempotents(P)
    assert len(prims) == 2
    assert sorted(prims) == sorted([P.mul.shape[0] // 3 * 0 + 3, 1])  # (1,0)=3, (0,1)=1
    assert primitive_idempotents(Z6) == [3, 4]


def test_classify_idempotent():
    R = galois_gring(F4, C2)
    rep = classify_idempotent(R, R.ring.one)
    assert rep.type is not None and rep.type.order == 2
    with pytest.raises(NotIdempotent):
        classify_idempotent(R, 2)  # a generator of F4* is not idempotent

    S = swap_gring_c2(F3)
    d = 3  # (1,0) in C-order over sizes (3,3)
    rep = classify_idempotent(S, d)
    assert rep.isotropy.order == 1
    assert rep.orthogonal_orbit
    assert rep.type.order == 1

    T = trivial_gring(Z6, C2)
    rep = classify_idempotent(T, 3)
    assert rep.type is not None and rep.type.order == 2


def test_is_clarified():
    assert is_clarified(galois_gring(F4, C2))
    assert not is_clarified(swap_gring_c2(F3))
    assert is_clarified(trivial_gring(product_ring([F3, F3]), C2))
    lam_e = upward_closure(C2, C2.trivial_subgroup)
    assert is_lambda_clarified(swap_gring_c2(F3), lam_e)


def test_gring_action_law_names_first_failing_pair():
    # every row of [id, id, id, Frobenius] is an automorphism of F4, but C4
    # is not acting: A[gh] != A[g][A[h]] at (1, 2), (1, 3), (2, 1), ...
    # and (1, 2) comes first with g varying slowest
    ident = np.arange(4)
    with pytest.raises(DefinitionError, match=r"^action not a homomorphism at \(1,2\)$"):
        GRing(F4, C4, [ident, ident, ident, frobenius(F4)])


@pytest.mark.parametrize("entry", [-1, -4, 4, 2 ** 20])
def test_out_of_range_gring_action_entries_rejected(entry):
    rows = [np.arange(4), frobenius(F4)]
    rows[1][3] = entry
    with pytest.raises(DefinitionError, match=r"^action entries must lie in 0\.\.3$"):
        GRing(F4, C2, rows)


def test_coinduce_full_subgroup_identity():
    S = galois_gring(F4, C2)
    # Coind_G^G along the full subgroup: same ring up to relabeling
    full = C2.full_subgroup
    Sg = GRing(S.ring, full.as_group[0], S.action)
    R = coinduce_gring(C2, full, Sg)
    assert R.ring.size == S.ring.size
    assert np.array_equal(R.action, S.action)


def test_coinduce_trivial_from_e_is_swap():
    R = swap_gring_c2(F3)
    assert R.ring.size == 9
    # the generator swaps coordinates: (a,b) -> (b,a)
    gen = R.action[1]
    for a in range(3):
        for b in range(3):
            assert gen[a * 3 + b] == b * 3 + a


def test_coinduce_c4_from_c2():
    H = C4.subgroup([0, 2])
    Hg, _ = H.as_group
    S = trivial_gring(F5, Hg)
    R = coinduce_gring(C4, H, S)
    assert R.ring.size == 25
    gen = R.action[1]
    for a in range(5):
        for b in range(5):
            assert gen[a * 5 + b] == b * 5 + a
    # the order-2 element acts trivially (twists land in the trivial action)
    assert np.array_equal(R.action[2], np.arange(25))


def test_coinduce_s3_nonabelian_action_is_consistent():
    # construction itself validates the action is a homomorphism by ring autos
    H = next(s for s in subgroups(S3) if s.order == 2)
    Hg, _ = H.as_group
    S = galois_gring(F4, Hg)
    R = coinduce_gring(S3, H, S)
    assert R.ring.size == 64


def test_gring_restrict():
    R = swap_gring_c2(F3)
    Re = gring_restrict(C2.trivial_subgroup, R)
    assert Re.group.order == 1
    assert np.array_equal(Re.action[0], np.arange(9))


def test_gring_product_idempotents():
    R = gring_product(trivial_gring(F2, C2), trivial_gring(F3, C2))
    assert len(idempotents(R.ring)) == 4


def test_subring_on_idempotent():
    P = product_ring([F3, F3])
    S, inc = subring_on_idempotent(P, 3)  # e = (1,0)
    assert S.size == 3
    assert S.one == list(inc).index(3)


def test_decompose_field_single_factor():
    R = galois_gring(F4, C2)
    dec = decompose_gring(R)
    assert len(dec.factors) == 1
    H, S = dec.factors[0]
    assert H.order == 2
    assert S.ring.size == 4
    assert is_clarified(S)
    assert dec.witness.is_bijective()


def test_decompose_coinduced_round_trip():
    R = swap_gring_c2(F3)
    dec = decompose_gring(R)
    assert len(dec.factors) == 1
    H, S = dec.factors[0]
    assert H.order == 1
    assert S.ring.size == 3
    assert helpers.is_equivariant(dec.witness, dec.reassembled, R)


def test_decompose_mixed():
    R = gring_product(galois_gring(F4, C2), swap_gring_c2(F3))
    dec = decompose_gring(R)
    orders = sorted(h.order for h, _ in dec.factors)
    assert orders == [1, 2]
    by_order = {h.order: s for h, s in dec.factors}
    assert by_order[1].ring.size == 3
    assert by_order[2].ring.size == 4
    assert dec.witness.is_bijective()


def test_decompose_merges_conjugacy_classes():
    # two coinductions from the same class merge into one factor
    R = gring_product(swap_gring_c2(F3), swap_gring_c2(F2))
    dec = decompose_gring(R)
    assert len(dec.factors) == 1
    H, S = dec.factors[0]
    assert H.order == 1
    assert S.ring.size == 6
    assert is_clarified(S)


def test_decompose_zero_ring():
    with pytest.raises(ZeroRing):
        decompose_gring(trivial_gring(zero_ring(), C2))


def _coind_s3(H, field):
    return coinduce_gring(S3, H, trivial_gring(field, H.as_group[0]))


_S3_ORDER2 = [H for H in subgroups(S3) if H.order == 2]

DECOMPOSE_CASES = {
    **corpus.GRING_CORPUS,
    "galois_F4_C2": galois_gring(F4, C2),
    "swap_F3_C2": swap_gring_c2(F3),
    "galois_F4_x_swap_F3_C2": gring_product(galois_gring(F4, C2), swap_gring_c2(F3)),
    "swap_F3_x_swap_F2_C2": gring_product(swap_gring_c2(F3), swap_gring_c2(F2)),
    "sign_F4_x_coind_e_F2_S3": gring_product(corpus.sign_gring(F4, S3, corpus.s3_parity),
                                             _coind_s3(S3.trivial_subgroup, F2)),
    # two orbits whose stabilizers are distinct conjugates merge into one class
    "coind_C2a_F2_x_coind_C2b_F3_S3": gring_product(_coind_s3(_S3_ORDER2[0], F2),
                                                    _coind_s3(_S3_ORDER2[1], F3)),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_CASES))
def test_decompose_gring_matches_elementwise_reference(name):
    R = DECOMPOSE_CASES[name]
    dec, ref = decompose_gring(R), helpers.reference_decompose_gring(R)
    assert [H for H, _ in dec.factors] == [H for H, _ in ref.factors]
    for (_, S), (_, S_ref) in zip(dec.factors, ref.factors):
        assert is_clarified(S)
        assert gring_isomorphism(S, S_ref) is not None
    assert gring_isomorphism(dec.reassembled, ref.reassembled) is not None
    for d in (dec, ref):
        assert d.witness.is_bijective()
        assert helpers.is_equivariant(d.witness, d.reassembled, R)


def _assert_mackey_gring_iso(K, H, S):
    """The Mackey isomorphism of FP(S), read at the bottom level, is a
    K-equivariant ring isomorphism Res_K Coind_H S -> the product over
    K\\G/H of the coinduced restricted conjugates."""
    lhs, rhs, iso = mackey_decomposition_iso(K, H, fixed_point_functor(S))
    e = lhs.group.trivial_subgroup
    hom = RingHom(lhs.bottom, rhs.bottom, tuple(iso.maps[e].tolist()))
    assert hom.is_bijective()
    assert helpers.is_equivariant(hom, lhs.bottom_gring(), rhs.bottom_gring())


@pytest.mark.parametrize("G,R", [(C4, F3), (S3, F3),
                                 (FiniteGroup.direct_product(C2, C2), F3),
                                 (FiniteGroup.dihedral(4), F2)])
def test_mackey_gring_iso_all_pairs(G, R):
    for H in subgroups(G):
        Hg, _ = H.as_group
        S = galois_gring(F4, Hg) if H.order == 2 else trivial_gring(R, Hg)
        for K in subgroups(G):
            _assert_mackey_gring_iso(K, H, S)


def test_mackey_gring_iso_with_galois_action():
    H = next(s for s in subgroups(S3) if s.order == 2)
    Hg, _ = H.as_group
    S = galois_gring(F4, Hg)
    for K in subgroups(S3):
        _assert_mackey_gring_iso(K, H, S)


def test_ring_size_caps():
    from tambara.errors import SizeLimitExceeded

    with pytest.raises(SizeLimitExceeded):
        product_ring([fq(16)] * 4)  # 65536 > cap
    from tambara._burnside import burnside_mod

    with pytest.raises(SizeLimitExceeded):
        burnside_mod(FiniteGroup.dihedral(4), 4)  # 4^8 top level


def test_op_failure_names_first_failing_pair():
    # against the pair-by-pair scan in row-major order, on maps that are
    # homomorphisms, maps that are not, and maps into a smaller ring
    rng = np.random.default_rng(7)
    cases = [(F4, F4), (Z6, Z6), (product_ring([F3, F3]), F3), (F2, Z6)]
    for src, dst in cases:
        maps = [rng.integers(0, dst.size, src.size) for _ in range(4)]
        if src is dst:
            maps.append(np.arange(src.size))
        for img in maps:
            img = img.astype(np.int32)
            for s_op, d_op in ((src.add, dst.add), (src.mul, dst.mul)):
                want = next(((a, b) for a in range(src.size) for b in range(src.size)
                             if img[s_op[a, b]] != d_op[img[a], img[b]]), None)
                assert op_failure(img, s_op, d_op) == want


def test_ring_hom_compose_and_inverse():
    P = product_ring([F2, F3])
    iso = ring_isomorphism(Z6, P)
    back = iso.inverse()
    ident = back.compose(iso)
    assert list(ident.images) == list(range(6))


def test_ring_isomorphism_search():
    assert ring_isomorphism(Z6, product_ring([F2, F3])) is not None
    assert ring_isomorphism(Z4, product_ring([F2, F2])) is None
    assert ring_isomorphism(F4, Z4) is None
    h = ring_isomorphism(F9, F9)
    assert h is not None and h.is_bijective()


def test_gring_isomorphism_search():
    A = swap_gring_c2(F3)
    B = trivial_gring(product_ring([F3, F3]), C2)
    assert gring_isomorphism(A, A) is not None
    assert gring_isomorphism(A, B) is None


def test_search_timeout():
    A = trivial_gring(product_ring([F3, F3, F3]), C2)
    with pytest.raises(SearchTimeout):
        gring_isomorphism(A, A, budget=3)


def test_no_maps_down():
    # no G-ring maps Coind_H (clarified) -> Coind_K (clarified nonzero)
    # unless K is subconjugate to H
    A = swap_gring_c2(F3)           # Coind_e(F3)
    B = trivial_gring(F3, C2)       # Coind_{C2}(F3), clarified
    assert list(gring_homomorphisms(B, A, limit=1)) != []  # down to bigger H=e: fine
    assert list(gring_homomorphisms(A, B, limit=1)) == []  # e up to C2: none


def test_hom_image_of_typed_idempotent():
    # the image of a type-H idempotent under any equivariant map is 0 or type H
    A = swap_gring_c2(F3)
    targets = [A, gring_product(A, trivial_gring(F3, C2)),
               trivial_gring(F3, C2), swap_gring_c2(F2)]
    d = 3  # (1,0): type e in A
    for B in targets:
        for hom in gring_homomorphisms(A, B, limit=50):
            img = hom(d)
            if img == B.ring.zero:
                continue
            rep = classify_idempotent(B, img)
            assert rep.type is not None
            assert rep.type.order == 1


def test_typed_idempotents_upward_closed():
    # a type-H idempotent forces type-K ones for H subconjugate to K
    cases = [
        swap_gring_c2(F3),
        trivial_gring(Z6, C2),
        gring_product(swap_gring_c2(F3), trivial_gring(F2, C2)),
    ]
    for R in cases:
        G = R.group
        types = set()
        for d in idempotents(R.ring):
            rep = classify_idempotent(R, d)
            if rep.type is not None and d != R.ring.zero:
                types.add(rep.type.elements)
        for t in list(types):
            tsub = G.subgroup(t)
            for K in subgroups(G):
                if is_subconjugate(G, tsub, K):
                    assert any(
                        G.subgroup(u).order == K.order and is_subconjugate(G, G.subgroup(u), K)
                        and is_subconjugate(G, K, G.subgroup(u))
                        for u in types
                    )


@pytest.mark.parametrize("sizes", [[], [5], [2, 3], [4, 1, 3], [3, 3, 2, 2]])
def test_mixed_radix_codec_round_trip(sizes):
    n = int(np.prod(sizes, dtype=np.int64))
    rows = prod_components(sizes)
    assert rows.shape == (len(sizes), n)
    cols = rows.T
    # ints: every element's components are in range and encode back
    for idx in range(n):
        comps = tuple(int(c) for c in cols[idx])
        assert all(0 <= c < s for c, s in zip(comps, sizes))
        assert prod_encode(sizes, comps) == idx
    # arrays: a list of component arrays, and the (k, n) component array
    assert np.array_equal(prod_encode(sizes, rows), np.arange(n))
    if sizes:
        assert np.array_equal(prod_encode(sizes, list(rows)), np.arange(n))
        # C order: the last factor varies fastest
        assert prod_encode(sizes, [0] * (len(sizes) - 1) + [1]) == 1
