"""The document writer: tables written from their arrays, big ring tables
packed with their base64 text in blocks, give the text of one json.dumps
of the document with every array listed and every packed table's bytes
encoded in one piece."""

import base64
import json
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import corpus
from helpers import reference_dumps_document, unpacked
from tambara import serialize
from tambara.cli import main
from tambara.decompose import full_decomposition
from tambara.groups import subgroups

INT32 = st.one_of(st.integers(0, 40), st.integers(-2 ** 31, 2 ** 31 - 1))


@given(arrays(np.int32, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
              elements=INT32),
       st.lists(st.integers(-5, 5), max_size=4))
@example(np.zeros((0,), np.int32), [])
@example(np.zeros((0, 3), np.int32), [1])
@example(np.zeros((3, 0), np.int32), [])
@example(np.array([[2 ** 31 - 1, 0], [7, 1]], np.int32), [])
@example(np.array([[3, -1], [0, 2]], np.int32), [-1])
@settings(max_examples=300, deadline=None)
def test_table_text_is_json_dumps(A, k):
    doc = {"t": A, "k": k}
    assert serialize.dumps_document(doc) == reference_dumps_document(doc)


def test_negative_entry_is_not_looked_up():
    doc = {"t": np.array([[0, 1], [-1, 1]], np.int32)}
    assert serialize.dumps_document(doc) == '{"t":[[0,1],[-1,1]]}\n'


@pytest.mark.parametrize("name", sorted(corpus.TAMBARA_CORPUS))
def test_functor_text_is_json_dumps(name):
    T = corpus.TAMBARA_CORPUS[name]
    doc = serialize.functor_doc(T)
    text = serialize.dumps_functor(T)
    assert text == reference_dumps_document(doc)
    assert text == reference_dumps_document(serialize.functor_to_json(T))


@given(arrays(np.int32, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=48),
              elements=st.integers(0, 2 ** 16 - 1)))
@example(np.arange(1023, dtype=np.int32).reshape(31, 33))
@example(np.arange(1024, dtype=np.int32).reshape(32, 32))
@example(np.full((1, 1023), 2 ** 16 - 1, np.int32))
@example(np.full((1, 1024), 2 ** 16 - 1, np.int32))
@settings(max_examples=200, deadline=None)
def test_ring_table_is_packed_from_1024_entries(A):
    doc = {"add": serialize._packed(A)}
    text = serialize.dumps_document(doc)
    assert text == reference_dumps_document(doc)
    written = json.loads(text)["add"]
    assert isinstance(written, dict) == (A.size >= serialize.PACK_MIN_ENTRIES)
    assert unpacked(written) == A.tolist()


@pytest.mark.parametrize("n", [1, 2, 32, 200, 1000])
def test_packed_text_comes_in_unpadded_blocks(n):
    A = np.arange(n * n, dtype=np.int32).reshape(n, n) % 20000
    blocks = list(serialize._b64_chunks(A))
    assert "".join(blocks) == base64.b64encode(A.astype("<u2").tobytes()).decode("ascii")
    assert all(len(b) % 4 == 0 and "=" not in b for b in blocks[:-1])
    assert len(blocks) == (1 if n < 500 else -(-n // (3 * (2 ** 17 // n))))


def test_functor_to_json_is_plain_lists():
    body = serialize.functor_to_json(corpus.TAMBARA_CORPUS["FPF4_x_coindF2"])["functor"]
    assert isinstance(body["res"]["H0<H1"], list)
    assert isinstance(body["levels"]["H0"]["add"][0], list)


def test_decompose_document_text_is_json_dumps(tmp_path, capsys):
    T = corpus.TAMBARA_CORPUS["FPF4_x_coindF2"]
    G = T.group
    dec = full_decomposition(T)
    doc = serialize.functor_doc(dec.reassembled)
    doc["witness"] = {serialize.subgroup_id(G, K): dec.witness.maps[K] for K in subgroups(G)}
    doc["factors"] = [serialize.subgroup_id(G, H) for H, _ in dec.factors]
    text = serialize.dumps_document(doc)
    assert text == reference_dumps_document(doc)
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    serialize.dump_functor(T, str(src))
    assert main(["decompose", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == text


class _NoTolist(np.ndarray):
    def tolist(self):
        raise AssertionError("a packed table was listed")


def test_writer_lists_no_packed_table():
    T = corpus.TAMBARA_CORPUS["coind_C2a_S3_FPF4"]  # its bottom level has 64 elements
    doc = serialize.functor_doc(T)
    packed = [level[op]["b64"] for level in doc["functor"]["levels"].values()
              for op in ("add", "mul") if isinstance(level[op], dict)]
    assert len(packed) == 2
    for b64 in packed:
        b64.table = b64.table.view(_NoTolist)
    assert serialize.dumps_document(doc) == serialize.dumps_functor(T)


def test_dump_document_streams(tmp_path, monkeypatch):
    """The file gets the text in chunks, never whole."""
    T = corpus.TAMBARA_CORPUS["burnside_C2_4"]
    text = serialize.dumps_functor(T)
    sizes, real_open = [], open

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            for chunk in chunks:
                sizes.append(len(chunk))
                self.fh.write(chunk)

    monkeypatch.setattr(serialize, "open", lambda *a, **kw: Recording(real_open(*a, **kw)),
                        raising=False)
    out = tmp_path / "out.json"
    serialize.dump_functor(T, str(out))
    assert out.read_text() == text
    assert max(sizes) < len(text) // 4


def test_dump_document_writes_through_a_symlink(tmp_path):
    T = corpus.TAMBARA_CORPUS["burnside_C2_4"]
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n")
    link.symlink_to(real)
    serialize.dump_functor(T, str(link))
    assert link.is_symlink()
    assert real.read_text() == serialize.dumps_functor(T)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_dump_document_writes_a_pipe_in_place(tmp_path):
    """A path that is not a regular file is written, not replaced."""
    T = corpus.TAMBARA_CORPUS["burnside_C2_4"]
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
    reader.start()
    serialize.dump_functor(T, str(fifo))
    reader.join(timeout=30)
    assert got == [serialize.dumps_functor(T)]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
