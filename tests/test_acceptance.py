"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact: the entire system is integer tables.
"""

import json
import random

import numpy as np

import corpus
import helpers
from corpus import C2, C3, C4, F2, F3, F4, S3, V4
from tambara.errors import NoNorms
from tambara.groups import FiniteGroup, is_subconjugate, subgroups, upward_closure
from tambara.functors import (
    check_axioms,
    coinduce,
    constant_functor,
    fixed_point_functor,
    functor_isomorphism,
    identity_morphism,
    mackey_decomposition_iso,
    product,
    restrict,
)
from tambara.decompose import (
    clarify,
    detect_coinduction,
    factor_through_clarification,
    full_decomposition,
)
from tambara.rings import decompose_gring, idempotents, trivial_gring
from tambara._burnside import burnside_mod
from tambara import serialize
from tambara.cli import main as cli_main


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_axiom_soundness():
    ok = True
    # fixed-point functors over >= 10 G-rings
    assert len(corpus.GRING_CORPUS) >= 10
    targets = dict(corpus.FP_CORPUS)
    # burnside_mod grid
    for G in (C2, C3, C4):
        for N in (2, 3, 4, 9):
            targets[f"burnside_{G.name}_{N}"] = burnside_mod(G, N)
    # products, coinductions, restrictions
    targets.update(corpus.PRODUCT_CORPUS)
    targets.update(corpus.COIND_CORPUS)
    targets["res_C2_of_C4coind"] = restrict(C4.subgroup([0, 2]),
                                            corpus.COIND_CORPUS["coind_C2_C4_FPF4"])
    targets["res_C3_of_S3coind"] = restrict(corpus.S3_ORDER3,
                                            corpus.COIND_CORPUS["coind_C2a_S3_constF2"])
    targets["res_e_of_V4coind"] = restrict(V4.trivial_subgroup,
                                           corpus.COIND_CORPUS["coind_e_V4_constF2"])
    for name, T in sorted(targets.items()):
        rep = check_axioms(T)
        if not rep.passed:
            print(f"  {name}: {rep.summary()}")
            ok = False
    # every axiom family has a mutation fixture failing with a witness
    seen_families = set()
    for desc, broken, family in helpers.mutation_fixtures():
        rep = check_axioms(broken)
        fams = {f.family for f in rep.failures}
        if rep.passed or family not in fams:
            print(f"  mutation {desc!r} did not fail at {family}: got {fams}")
            ok = False
        if not all(f.description for f in rep.failures):
            ok = False
        seen_families.add(family)
    if seen_families != {"contracts", "conjugation", "mackey_additive",
                         "mackey_norm", "frobenius", "exponential"}:
        ok = False
    _report(1, "axiom soundness + mutation fixtures", ok)


def test_criterion_2_burnside_lewis_diagram():
    ok = True
    for p in (2, 3):
        N = p * p
        G = FiniteGroup.cyclic(p)
        B = burnside_mod(G, N)
        e, full = G.trivial_subgroup, G.full_subgroup
        bot, top = B.levels[e], B.levels[full]
        x = top.vector_to_index((1, 0))
        one_bot = bot.vector_to_index((1,))
        if bot.index_to_vector[B.res[(e, full)][x]] != (p,):
            ok = False
        if top.index_to_vector[B.tr[(e, full)][one_bot]] != (1, 0):
            ok = False
        for a in range(N):
            want_x = ((a ** p - a) // p) % p   # x-coefficient, reduced in A/N
            want_c = a % N
            got = top.index_to_vector[B.nm[(e, full)][bot.vector_to_index((a,))]]
            if got != (want_x, want_c):
                print(f"  p={p}: nm({a}) = {got}, expected ({want_x},{want_c})")
                ok = False
    _report(2, "Burnside Lewis diagram for p in {2,3}, N = p^2", ok)


def _h_functors(H):
    Hg, _ = H.as_group
    out = [constant_functor(F2, Hg)]
    if H.order == 2:
        out.append(fixed_point_functor(corpus.galois_gring(F4, Hg)))
    elif H.order == 3:
        out.append(constant_functor(F3, Hg))
    return out


def test_criterion_3_mackey_decomposition():
    ok = True
    checked = 0
    for G in (C4, V4, S3):
        for H in subgroups(G):
            for T in _h_functors(H):
                for K in subgroups(G):
                    lhs, rhs, iso = mackey_decomposition_iso(K, H, T)
                    if not iso.is_isomorphism():
                        ok = False
                    checked += 1
    _report(3, f"Mackey decomposition ({checked} triples)", ok)


def test_criterion_4_norm_lemmas():
    ok = True
    # (a) norm additivity up to proper transfers, over the whole corpus
    for name in sorted(corpus.TAMBARA_CORPUS):
        T = corpus.TAMBARA_CORPUS[name]
        for (K, L) in T.group.subgroup_pairs:
            if K == L:
                continue
            ring = T.levels[L]
            span = helpers.additive_span(ring, helpers.proper_transfer_images(T, L))
            nm = T.nm[(K, L)]
            add_k = T.levels[K].add
            neg = helpers.negatives(ring)
            for a in range(T.levels[K].size):
                for b in range(T.levels[K].size):
                    diff = ring.add[nm[add_k[a, b]],
                                    neg[ring.add[nm[a], nm[b]]]]
                    if int(diff) not in span:
                        print(f"  (a) fails in {name} at {K.elements}<={L.elements}")
                        ok = False
                        break
                else:
                    continue
                break
    # (b) exact additivity on orthogonal fixed bottom idempotents
    for name, T in sorted(corpus.TAMBARA_CORPUS.items()):
        B = T.bottom_gring()
        bottom = T.bottom
        fixed = [d for d in idempotents(bottom)
                 if all(B.act(g, d) == d for g in T.group.elements())]
        e = T.group.trivial_subgroup
        for H in subgroups(T.group):
            nm, ring = T.nm[(e, H)], T.levels[H]
            for a in fixed:
                for b in fixed:
                    if int(bottom.mul[a, b]) != bottom.zero:
                        continue
                    if nm[bottom.add[a, b]] != ring.add[nm[a], nm[b]]:
                        print(f"  (b) fails in {name}")
                        ok = False
    # (c) transfer surjectivity at levels not subconjugate to H
    coinduced = [("coind_e_C2_constF3", C2.trivial_subgroup),
                 ("coind_e_C3_constF2", C3.trivial_subgroup),
                 ("coind_C2_C4_FPF4", C4.subgroup([0, 2])),
                 ("coind_e_C4_constF2", C4.trivial_subgroup),
                 ("coind_C2a_S3_constF2", corpus.S3_ORDER2),
                 ("coind_C3_S3_constF3", corpus.S3_ORDER3),
                 ("coind_e_V4_constF2", V4.trivial_subgroup)]
    for name, H in coinduced:
        T = corpus.TAMBARA_CORPUS[name]
        G = T.group
        for L in subgroups(G):
            if is_subconjugate(G, L, H):
                continue
            ring = T.levels[L]
            ideal = helpers.ideal_closure(ring, helpers.proper_transfer_images(T, L))
            if ring.one not in ideal:
                print(f"  (c) fails in {name} at level {L.elements}")
                ok = False
    _report(4, "norm lemmas (transfer span, idempotent additivity, surjectivity)", ok)


def test_criterion_5_decomposition_round_trip():
    ok = True
    rng = random.Random(20260810)
    count = 0
    for G in corpus.SMALL_GROUPS:
        for _ in range(5):
            T, expected = helpers.random_assembly(G, rng)
            dec = full_decomposition(T)
            got = sorted((H.order, tuple(H.elements)) for H, _ in dec.factors)
            want = sorted((H.order, tuple(H.elements)) for H, _ in expected)
            if got != want:
                print(f"  {G.name}: classes {got} != {want}")
                ok = False
                continue
            for (H, ell_want) in expected:
                ell_got = next(ell for h2, ell in dec.factors
                               if h2.elements == H.elements)
                if functor_isomorphism(ell_want, ell_got) is None:
                    print(f"  {G.name}: factor at {H.elements} not isomorphic")
                    ok = False
            if not dec.witness.is_isomorphism():
                ok = False
            if count % 10 == 0:
                # recovered factors are themselves valid Tambara functors
                for _, ell in dec.factors:
                    if not check_axioms(ell).passed:
                        print(f"  {G.name}: recovered factor fails axioms")
                        ok = False
            count += 1
    if count < 50:
        print(f"  only {count} assemblies")
        ok = False
    _report(5, f"decomposition round-trip ({count} randomized assemblies)", ok)


def test_criterion_6_coinduction_detection():
    ok = True
    cases = [
        ("coind_e_C2_constF3", C2.trivial_subgroup,
         constant_functor(F3, C2.trivial_subgroup.as_group[0])),
        ("coind_e_C3_constF2", C3.trivial_subgroup,
         constant_functor(F2, C3.trivial_subgroup.as_group[0])),
        ("coind_C2_C4_FPF4", C4.subgroup([0, 2]),
         fixed_point_functor(corpus.galois_gring(F4, C4.subgroup([0, 2]).as_group[0]))),
        ("coind_e_C4_constF2", C4.trivial_subgroup,
         constant_functor(F2, C4.trivial_subgroup.as_group[0])),
        ("coind_C2a_S3_constF2", corpus.S3_ORDER2,
         constant_functor(F2, corpus.S3_ORDER2.as_group[0])),
        ("coind_C3_S3_constF3", corpus.S3_ORDER3,
         constant_functor(F3, corpus.S3_ORDER3.as_group[0])),
        ("coind_e_V4_constF2", V4.trivial_subgroup,
         constant_functor(F2, V4.trivial_subgroup.as_group[0])),
        ("coind_C2a_S3_FPF4", corpus.S3_ORDER2,
         fixed_point_functor(corpus.galois_gring(F4, corpus.S3_ORDER2.as_group[0]))),
    ]
    for name, H, ell in cases:
        T = corpus.COIND_CORPUS[name]
        G = T.group
        Hdet, ell_det, w = detect_coinduction(T)
        conj_ok = is_subconjugate(G, Hdet, H) and is_subconjugate(G, H, Hdet)
        if not conj_ok:
            print(f"  {name}: detected {Hdet.elements}, wanted class of {H.elements}")
            ok = False
            continue
        if functor_isomorphism(ell, ell_det) is None:
            print(f"  {name}: inner functor not isomorphic")
            ok = False
        if not w.is_isomorphism():
            ok = False
    _report(6, "coinduction detection on corpus coinductions", ok)


def test_criterion_7_green_counterexample():
    ok = True
    GC = corpus.GREEN_CORPUS["green_cex_2_F2"]
    G = GC.group
    if not check_axioms(GC).passed:
        ok = False
    dec = decompose_gring(GC.bottom_gring())
    if not (len(dec.factors) == 1 and dec.factors[0][0].order == 1):
        ok = False  # the bottom G-ring is coinduced from the trivial subgroup
    try:
        detect_coinduction(GC)
        ok = False
    except NoNorms:
        pass
    # the functor itself cannot be a Green coinduction from e: its
    # restriction has a kernel, unlike every Coind_e Green functor
    res = GC.res[(G.trivial_subgroup, G.full_subgroup)]
    if len(set(res.tolist())) == GC.levels[G.full_subgroup].size:
        ok = False
    for Gother, R in ((C2, F3), (C3, F2), (C2, corpus.Z4)):
        e = Gother.trivial_subgroup
        green = fixed_point_functor(trivial_gring(R, e.as_group[0]), green_only=True)
        T = coinduce(Gother, e, green)
        for (K, H) in T.group.subgroup_pairs:
            if len(set(T.res[(K, H)].tolist())) != T.levels[H].size:
                print("  a coinduced Green functor has non-injective restriction")
                ok = False
    _report(7, "Green counterexample behaves as stated", ok)


def test_criterion_8_clarification_localization():
    ok = True
    # idempotence and monotonicity
    T = product(corpus.COIND_CORPUS["coind_C2_C4_FPF4"],
                corpus.COIND_CORPUS["coind_e_C4_constF2"])
    lam_c2 = upward_closure(C4, C4.subgroup([0, 2]))
    lam_g = upward_closure(C4, C4.full_subgroup)
    C1, _ = clarify(T, lam_c2)
    C2_, _ = clarify(C1, lam_c2)
    if not (C2_ is C1 or functor_isomorphism(C1, C2_) is not None):
        ok = False
    A, _ = clarify(T, lam_g)
    B, _ = clarify(C1, lam_g)
    if A.is_zero() != B.is_zero():
        ok = False
    if not A.is_zero() and functor_isomorphism(A, B) is None:
        ok = False
    # unique factorization of corpus morphisms into clarified targets:
    # identities, clarification projections, and every morphism found by
    # exhaustive search from a product into a clarified target
    from tambara.functors import TambaraMorphism, _functor_structure
    from tambara import _search

    T2 = corpus.PRODUCT_CORPUS["FPF4_x_coindF2"]
    lam2 = upward_closure(C2, C2.full_subgroup)
    Ccl, proj = clarify(T2, lam2)
    morphisms = [identity_morphism(corpus.FP_CORPUS["F4_galois_C2"]), proj]
    target = corpus.FP_CORPUS["F4_galois_C2"]
    for image in _search.search_homomorphisms(
            _functor_structure(T2), _functor_structure(target),
            injective=False, limit=8):
        maps = {H: image[i] for i, H in enumerate(subgroups(C2))}
        morphisms.append(TambaraMorphism(T2, target, maps))
    if len(morphisms) < 3:
        ok = False  # the search must find at least one projection-like map
    for f in morphisms:
        g = factor_through_clarification(f, lam2)
        comp = g.compose(clarify(f.source, lam2)[1])
        for H in subgroups(C2):
            if not np.array_equal(comp.maps[H], f.maps[H]):
                ok = False
        # uniqueness: the projection is levelwise surjective
        _, p2 = clarify(f.source, lam2)
        for H in subgroups(C2):
            if set(p2.maps[H].tolist()) != set(range(g.source.levels[H].size)):
                ok = False
    # clarify(Coind_e^G(field), Lambda_G) is the zero functor for G in {C2, C3}
    for G, name in ((C2, "coind_e_C2_constF3"), (C3, "coind_e_C3_constF2")):
        Z, _ = clarify(corpus.COIND_CORPUS[name], upward_closure(G, G.full_subgroup))
        if not Z.is_zero():
            ok = False
    _report(8, "clarification is an idempotent monotone localization", ok)


def test_criterion_9_serialization_closure(tmp_path):
    ok = True
    artifacts = []
    src = tmp_path / "src.json"
    serialize.dump_functor(corpus.COIND_CORPUS["coind_C2_C4_FPF4"], str(src))
    artifacts.append(str(src))
    for run in (1, 2):
        out = tmp_path / f"dec{run}.json"
        if cli_main(["decompose", str(src), "--out", str(out)]) != 0:
            ok = False
        artifacts.append(str(out))
    if (tmp_path / "dec1.json").read_bytes() != (tmp_path / "dec2.json").read_bytes():
        print("  decompose output is not byte-stable")
        ok = False
    # restrict and coinduce through the CLI; both outputs must re-ingest
    res_out = tmp_path / "res.json"
    if cli_main(["restrict", str(src), "--to", "C2", "--out", str(res_out)]) != 0:
        ok = False
    artifacts.append(str(res_out))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps(
        {"schema": 1, "group": serialize.group_to_json(C2),
         "fp": {"ring": {"kind": "Fq", "q": 3}, "action": [[0, 1, 2]]}}))
    coind_out = tmp_path / "coind.json"
    if cli_main(["coinduce", str(inner), "--from", "e", "--out", str(coind_out)]) != 0:
        ok = False
    artifacts.append(str(coind_out))
    for path in artifacts:
        if cli_main(["check", path]) != 0:
            print(f"  emitted artifact fails check: {path}")
            ok = False
    # byte stability of plain serialization across two loads
    t1 = serialize.dumps_functor(serialize.load_functor(str(src)))
    t2 = serialize.dumps_functor(serialize.load_functor(str(src)))
    if t1 != t2:
        ok = False
    _report(9, "serialization closure and byte stability", ok)
