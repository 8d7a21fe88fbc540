"""The isomorphism search: its array closure against the pair-loop
reference, its per-depth replay against the replay from scratch, and the
node budgets that pin its search path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpus
from helpers import (
    _gring_structure,
    gring_homomorphisms,
    gring_isomorphism,
    reference_build_steps,
    reference_search_homomorphisms,
    relabel_functor,
    relabel_gring,
    ring_isomorphism,
)
from tambara._search import OpStructure, _Budget, _build_steps, search_homomorphisms
from tambara.errors import SearchTimeout
from tambara.functors import _functor_structure, functor_isomorphism
from tambara.groups import Subgroup
from tambara.rings import (
    gring_product,
    product_ring,
    trivial_gring,
    zero_ring,
)


def listed(A):
    """A with every table as nested Python lists, the form the reference
    closure was written for."""
    return OpStructure(
        sorts=dict(A.sorts), constants=list(A.constants),
        unary=[(name, a, b, np.asarray(t).tolist()) for name, a, b, t in A.unary],
        binary=[(name, s, np.asarray(t).tolist()) for name, s, t in A.binary])


def assert_same_closure(A):
    steps, gens = _build_steps(A)
    want_steps, want_gens = reference_build_steps(listed(A))
    got = [(s.kind, s.sort, s.index, s.op, s.args) for s in steps]
    assert got == [(s.kind, s.sort, s.index, s.op, s.args) for s in want_steps]
    assert gens == want_gens
    assert all(type(s.index) is int for s in steps)
    # every element of every sort is produced exactly once
    assert sorted((s.sort, s.index) for s in steps) == sorted(
        (sort, i) for sort, n in A.sorts.items() for i in range(n))


@pytest.mark.parametrize("name", sorted({**corpus.TAMBARA_CORPUS, **corpus.GREEN_CORPUS}))
def test_closure_matches_reference_on_functors(name):
    assert_same_closure(_functor_structure({**corpus.TAMBARA_CORPUS,
                                            **corpus.GREEN_CORPUS}[name]))


@pytest.mark.parametrize("name", sorted(corpus.GRING_CORPUS))
def test_closure_matches_reference_on_grings(name):
    assert_same_closure(_gring_structure(corpus.GRING_CORPUS[name]))


@st.composite
def op_structures(draw):
    """1-3 sorts of at most 12 elements, constants, unary ops within and
    across sorts and binary ops, each table's values below a drawn bound so
    that closures stall and need generators; optionally one more sort that
    no op reaches."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    names = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    sorts = {s: draw(st.integers(1, 12)) for s in names}
    if draw(st.booleans()):
        sorts["free"] = draw(st.integers(1, 12))

    def values(sort, shape):
        return rng.integers(0, draw(st.integers(1, sorts[sort])), shape).astype(np.int32)

    constants = [(f"k{j}", s, draw(st.integers(0, sorts[s] - 1)))
                 for j, s in enumerate(draw(st.lists(st.sampled_from(list(sorts)), max_size=3)))]
    unary = [(f"u{j}", a, b, values(b, sorts[a]))
             for j, (a, b) in enumerate(draw(st.lists(
                 st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=4)))]
    binary = [(f"b{j}", s, values(s, (sorts[s], sorts[s])))
              for j, s in enumerate(draw(st.lists(st.sampled_from(names), max_size=3)))]
    return OpStructure(sorts=sorts, constants=constants, unary=unary, binary=binary)


@given(op_structures())
@settings(max_examples=300, deadline=None)
def test_closure_matches_reference_on_random_structures(A):
    assert_same_closure(A)


def searched(search, A, B, **kw):
    """The maps a search yields until it ends or runs out of budget, whether
    it ran out, and the number of _Budget.spend calls it made."""
    spend, nodes = _Budget.spend, []

    def counted(self):
        nodes.append(None)
        spend(self)

    maps, timed_out = [], False
    _Budget.spend = counted
    try:
        for image in search(A, B, **kw):
            maps.append(image)
    except SearchTimeout:
        timed_out = True
    finally:
        _Budget.spend = spend
    return maps, timed_out, len(nodes)


def assert_same_search(A, B, budget=10 ** 6):
    """The search yields the reference's maps in the reference's order and
    spends as many nodes, injective or not, with limit 1 and None."""
    for injective in (True, False):
        for limit in (1, None):
            kw = dict(injective=injective, budget=budget, limit=limit)
            got = searched(search_homomorphisms, A, B, **kw)
            assert got == searched(reference_search_homomorphisms, A, B, **kw), kw


@pytest.mark.parametrize("name", sorted({**corpus.TAMBARA_CORPUS, **corpus.GREEN_CORPUS}))
def test_search_matches_reference_on_functors(name):
    T = {**corpus.TAMBARA_CORPUS, **corpus.GREEN_CORPUS}[name]
    assert_same_search(_functor_structure(T), _functor_structure(relabel_functor(T, 0)))


@pytest.mark.parametrize("name", sorted(corpus.GRING_CORPUS))
def test_search_matches_reference_on_grings(name):
    R = corpus.GRING_CORPUS[name]
    A = _gring_structure(R)
    assert_same_search(A, _gring_structure(relabel_gring(R, 0)))
    assert_same_search(A, _gring_structure(gring_product(R, relabel_gring(R, 1))))


@st.composite
def op_structure_pairs(draw):
    """A from op_structures, and B either A with every sort relabelled or a
    structure of the same signature with drawn sizes, constants and tables,
    whose constants often coincide where A's differ."""
    A = draw(op_structures())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        perm = {s: rng.permutation(n) for s, n in A.sorts.items()}
        inv = {s: np.argsort(p) for s, p in perm.items()}
        B = OpStructure(
            sorts=dict(A.sorts),
            constants=[(name, s, int(perm[s][i])) for name, s, i in A.constants],
            unary=[(name, a, b, perm[b][t[inv[a]]]) for name, a, b, t in A.unary],
            binary=[(name, s, perm[s][t[np.ix_(inv[s], inv[s])]])
                    for name, s, t in A.binary])
    else:
        sizes = {s: draw(st.integers(1, 12)) for s in A.sorts}
        B = OpStructure(
            sorts=sizes,
            constants=[(name, s, draw(st.integers(0, sizes[s] - 1)))
                       for name, s, _ in A.constants],
            unary=[(name, a, b, rng.integers(0, sizes[b], sizes[a]))
                   for name, a, b, _ in A.unary],
            binary=[(name, s, rng.integers(0, sizes[s], (sizes[s], sizes[s])))
                    for name, s, _ in A.binary])
    return A, B


@given(op_structure_pairs())
@settings(max_examples=200, deadline=None)
def test_search_matches_reference_on_random_pairs(pair):
    assert_same_search(*pair, budget=300)


@pytest.mark.parametrize("sizes", [{"r": 3}, {"r": 3, "free": 2}])
def test_search_matches_reference_when_constants_conflict(sizes):
    """Two distinct constants of A with one image in B: every injective
    candidate fails on the constants, which depth 0 replays once per
    candidate, and a search without generators spends nothing."""
    succ = np.array([1, 2, 0])
    A = OpStructure(sorts=dict(sizes), constants=[("a", "r", 0), ("b", "r", 1)],
                    unary=[("succ", "r", "r", succ)])
    B = OpStructure(sorts=dict(sizes), constants=[("a", "r", 0), ("b", "r", 0)],
                    unary=[("succ", "r", "r", succ)])
    maps, timed_out, nodes = searched(search_homomorphisms, A, B, injective=True)
    assert (maps, timed_out, nodes) == ([], False, 2 if "free" in sizes else 0)
    assert_same_search(A, B)

def test_coinciding_source_constants_need_one_image():
    """Two constants of A on one element with two images in B: the replay
    produces the element once, from the first constant, so only the full
    check can refuse the map.  In the zero ring 0 = 1, so no unital map
    goes from it to F2, and the search yields none (RingHom refused the
    map 0 -> 0 it yielded before)."""
    succ = np.array([1, 2, 0])
    A = OpStructure(sorts={"r": 3}, constants=[("a", "r", 0), ("b", "r", 0)],
                    unary=[("succ", "r", "r", succ)])
    B = OpStructure(sorts={"r": 3}, constants=[("a", "r", 0), ("b", "r", 1)],
                    unary=[("succ", "r", "r", succ)])
    for injective in (True, False):
        assert searched(search_homomorphisms, A, B, injective=injective) == ([], False, 0)
    assert_same_search(A, B)
    zero = trivial_gring(zero_ring(), corpus.C2)
    assert list(gring_homomorphisms(zero, trivial_gring(corpus.F2, corpus.C2))) == []
    assert [h.images for h in gring_homomorphisms(zero, zero)] == [(0,)]


# The smallest budgets that end without SearchTimeout, taken from the
# pair-loop closure before it was rewritten: the closure fixes the order in
# which generators are tried, so these pin the search path node for node.
BUDGET_PINS = [
    ("coind_C2a_S3_FPF4 vs relabelled", 814, True, lambda b: functor_isomorphism(
        corpus.COIND_CORPUS["coind_C2a_S3_FPF4"],
        relabel_functor(corpus.COIND_CORPUS["coind_C2a_S3_FPF4"], 0), budget=b)),
    ("F2xF2 vs Z4", 4, False, lambda b: ring_isomorphism(
        product_ring([corpus.F2, corpus.F2]), corpus.Z4, budget=b)),
    ("F9_galois_C2 vs relabelled", 7, True, lambda b: gring_isomorphism(
        corpus.GRING_CORPUS["F9_galois_C2"],
        relabel_gring(corpus.GRING_CORPUS["F9_galois_C2"], 0), budget=b)),
]


@pytest.mark.parametrize("pin", BUDGET_PINS, ids=[p[0] for p in BUDGET_PINS])
def test_minimal_budget_is_pinned(pin):
    _, budget, isomorphic, search = pin
    with pytest.raises(SearchTimeout):
        search(budget - 1)
    assert (search(budget) is not None) == isomorphic


def test_relabelled_functor_is_isomorphic_and_differs():
    T = corpus.COIND_CORPUS["coind_C2a_S3_FPF4"]
    U = relabel_functor(T, 0)
    iso = functor_isomorphism(T, U)
    assert iso is not None and iso.is_isomorphism()
    assert any(not np.array_equal(T.levels[H].add, U.levels[H].add)
               for H in T.levels if T.levels[H].size > 2)


def test_equal_subgroups_built_apart_are_one_key():
    G = corpus.C4
    a, b = Subgroup(G, (0, 2)), Subgroup(G, (0, 2))
    assert a is not b and a == b and hash(a) == hash(b)
    keys = {a: "first"}
    keys[b] = "second"
    assert keys == {G.subgroup([0, 2]): "second"}
    assert hash(a) == hash((G, (0, 2)))
