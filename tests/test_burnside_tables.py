"""Golden tables of the mod-N Burnside functor.

Each digest is the SHA-256 of every table ``burnside_mod`` builds for one
(G, N): per level (in lattice order) the add and mul tables, zero, one and
``index_to_vector``; then res, tr and nm per pair K <= H and conj per
(g, H).  The quotient fixpoint and table fill may be rewritten freely, but
every digest here must hold.  To pin a deliberate change of the tables,
rerun ``_digest`` for the affected cases and update the table.

The vector codec of each level (``vector_to_index``) is tested against
``index_to_vector`` and the ideal it quotients by.
"""

import hashlib
from itertools import product as iproduct

import numpy as np
import pytest

import corpus
from tambara.errors import DefinitionError
from tambara.groups import FiniteGroup, subgroups
from tambara._burnside import burnside_mod

A4 = FiniteGroup.from_permutations([[1, 2, 0, 3], [0, 2, 3, 1]], name="A4")
D6 = FiniteGroup.dihedral(6)

GROUPS = {"C2": corpus.C2, "C3": corpus.C3, "C4": corpus.C4, "C5": corpus.C5,
          "C6": corpus.C6, "V4": corpus.V4, "S3": corpus.S3, "Q8": corpus.Q8,
          "D4": corpus.D4, "A4": A4, "D6": D6}


def _digest(B) -> str:
    h = hashlib.sha256()

    def put(tag, arr):
        h.update(f"{tag}\n".encode())
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())

    G = B.group
    for H in subgroups(G):
        R = B.levels[H]
        put("add", R.add)
        put("mul", R.mul)
        put("zero-one", [R.zero, R.one])
        put("vectors", R.index_to_vector)
    for K, H in G.subgroup_pairs:
        put("res", B.res[(K, H)])
        put("tr", B.tr[(K, H)])
        put("nm", B.nm[(K, H)])
    for g in G.elements():
        for H in subgroups(G):
            put("conj", B.conj[(g, H)])
    return h.hexdigest()


GOLDEN = {
    ("C2", 2): "6122c916f25d2f92d19ea133e9f84363c2349f07567739a7d74c9c4630f22272",
    ("C3", 2): "7720afc346b33fbb51db145cd79acfab31ae00f78d4e39d400321c92f9966e81",
    ("C4", 2): "86aee6404b8b8ddba321ff726bd38c82e0104849ef868b62c8c9cb8d9784f582",
    ("C5", 2): "8dd642cc0c6dd15e15ec94e5b123390c3f54718abde77f978d15d8ae602ada60",
    ("C6", 2): "e81fe3566b9b03746a71ca708514663a0902d66ce5875f61158a0e1b51d8ef8a",
    ("V4", 2): "7dcc4ebf6efa39550b64b1b4ccb66d8f59f8209bd88d6c384c3eda38e936ee8c",
    ("S3", 2): "dcb2b4824fc50b9d39399d902f4a61348106e9a4c94a629902b6792c712d7e50",
    ("Q8", 2): "92dbe39a2f19fec5cf8af4e5bfb57dabebd55af01b1a7d1e91c384dac22473bc",
    ("D4", 2): "114866b8cd3a7dcfa6cf588429aeea70c0fe1fce136c07646d36f53caea2da1c",
    ("A4", 2): "2d4e9066a1f18550451d464fca4fcaaf9ec409bbaf7a886c2aae2facdd6e7528",
    ("D6", 2): "5923f4dce9cc872a8d2545a4154b23f44feeabf9dcf493b06a06a3c172b09859",
    # near the level cap of 4096 coefficient vectors
    ("C2", 64): "9b13364f76bf3864a0b198e3b6c906b4b22999843f4046ab6f9d3df9a33650f9",
    ("C4", 16): "9411c3b70a643405e15e8152eb24708f0b991e1428033372c540f82efa86eaf1",
    ("S3", 8): "fc52481c375018ad0ea076a4c93c860a406e1a78eea41361d06ba28c07493df0",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}_mod{c[1]}")
def test_burnside_tables_are_pinned(case):
    name, N = case
    assert _digest(burnside_mod(GROUPS[name], N)) == GOLDEN[case]


@pytest.mark.parametrize("case", [("C2", 4), ("C3", 9), ("C4", 4), ("V4", 3), ("S3", 4)],
                         ids=lambda c: f"{c[0]}_mod{c[1]}")
def test_vector_to_index_reads_classes(case):
    name, N = case
    B = burnside_mod(GROUPS[name], N)
    for H, R in B.levels.items():
        k = len(R.basis_classes)
        assert [R.vector_to_index(v) for v in R.index_to_vector] == list(range(R.size))
        vectors = list(iproduct(range(N), repeat=k))
        index = {v: R.vector_to_index(v) for v in vectors}
        # the codec is additive, so a vector plus any ideal member (a vector
        # of the zero class) reads as the same class
        ideal = [m for m in vectors if index[m] == R.zero]
        for v in vectors:
            for m in ideal:
                assert R.vector_to_index(tuple(a + b for a, b in zip(v, m))) == index[v]
        for v, w in zip(vectors, reversed(vectors)):
            plus = tuple(a + b for a, b in zip(v, w))
            assert R.vector_to_index(plus) == R.add[index[v], index[w]]
            assert R.vector_to_index(tuple(a - N for a in v)) == index[v]
        for bad in ((0,) * (k + 1), (0,) * (k - 1), ((0,) * k,) * 2):
            with pytest.raises(DefinitionError):
                R.vector_to_index(bad)


def test_vector_to_index_x_plus_2_mod_4():
    # over C2 mod 4 the top ideal is {0, 2x}, so x + 2 and 3x + 2 are one class
    C2 = corpus.C2
    top = burnside_mod(C2, 4).levels[C2.full_subgroup]
    assert top.vector_to_index((2, 0)) == top.zero
    assert top.vector_to_index((3, 2)) == top.vector_to_index((1, 2)) != top.zero
    assert top.index_to_vector[top.vector_to_index((3, 2))] == (1, 2)
