"""Packed ring tables at the trust boundary.

A ring's add or mul table may be given as {"b64", "dtype": "<u2",
"shape": [n, n]}.  The loader checks the dtype, the shape, n against the
ring size cap and the base64 text before it decodes anything, then the
decoded length; the ring then gets the checks a listed one gets.  Every
defect exits 1 with a message and no traceback."""

import base64
import copy
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corpus
from corpus import F2
from helpers import packed_block, unpacked
from tambara import serialize
from tambara.cli import main
from tambara.rings import RING_SIZE_CAP, product_ring, zn


def _valid_doc():
    """F4 with its Galois action over C2, every level's tables packed."""
    doc = serialize.functor_to_json(corpus.TAMBARA_CORPUS["F4_galois_C2"])
    for level in doc["functor"]["levels"].values():
        level["add"], level["mul"] = packed_block(level["add"]), packed_block(level["mul"])
    return doc


def _valid_doc_with_h0(**tables):
    doc = _valid_doc()
    doc["functor"]["levels"]["H0"].update(tables)
    return doc


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


F4_ADD = np.array(unpacked(_valid_doc()["functor"]["levels"]["H0"]["add"]))


def _entry_past_n(block):
    A = F4_ADD.copy()
    A[3, 3] = 4
    block.update(packed_block(A))


DTYPE = "error: packed {op} table needs dtype '<u2'"
SHAPE = "error: packed {op} table needs a shape [n, n] with n > 0"
NOT_STR = "error: packed {op} table needs its bytes as a base64 string"
BAD_B64 = "error: packed {op} table: bad base64: "
OVER_CAP = f"error: ring size {RING_SIZE_CAP + 1} exceeds cap {RING_SIZE_CAP}"

# each defect, applied to a packed table of the 4-element level H0 (32
# bytes), with the start of the message it exits 1 with
DEFECTS = {
    "dtype_i4": (DTYPE, lambda b: b.update(dtype="<i4")),
    "dtype_big_endian": (DTYPE, lambda b: b.update(dtype=">u2")),
    "dtype_missing": (DTYPE, lambda b: b.pop("dtype")),
    "shape_missing": (SHAPE, lambda b: b.pop("shape")),
    "shape_not_a_list": (SHAPE, lambda b: b.update(shape="4x4")),
    "shape_one_int": (SHAPE, lambda b: b.update(shape=[16])),
    "shape_three_ints": (SHAPE, lambda b: b.update(shape=[4, 4, 1])),
    "shape_unequal": (SHAPE, lambda b: b.update(shape=[2, 8])),
    "shape_floats": (SHAPE, lambda b: b.update(shape=[4.0, 4.0])),
    "shape_bools": (SHAPE, lambda b: b.update(shape=[True, True])),
    "shape_zero": (SHAPE, lambda b: b.update(shape=[0, 0], b64="")),
    "shape_negative": (SHAPE, lambda b: b.update(shape=[-4, -4])),
    "shape_over_cap": (OVER_CAP, lambda b: b.update(shape=[RING_SIZE_CAP + 1] * 2)),
    "b64_missing": (NOT_STR, lambda b: b.pop("b64")),
    "b64_not_a_string": (NOT_STR, lambda b: b.update(b64=[0] * 16)),
    "b64_newline": (BAD_B64, lambda b: b.update(b64=b["b64"][:20] + "\n" + b["b64"][20:])),
    "b64_bad_character": (BAD_B64, lambda b: b.update(b64="*" + b["b64"][1:])),
    "b64_no_padding": (BAD_B64, lambda b: b.update(b64=b["b64"].rstrip("="))),
    "b64_non_ascii": (BAD_B64, lambda b: b.update(b64="é" + b["b64"][1:])),
    "bytes_short": ("error: packed {op} table has 30 bytes, not 2n^2 = 32",
                    lambda b: b.update(b64=_b64(base64.b64decode(b["b64"])[:30]))),
    "bytes_long": ("error: packed {op} table has 34 bytes, not 2n^2 = 32",
                   lambda b: b.update(b64=_b64(base64.b64decode(b["b64"]) + b"\0\0"))),
    "entry_past_n": ("error: table entries out of range", _entry_past_n),
}


def test_valid_packed_tables_pass(tmp_path, capsys):
    p = tmp_path / "packed.json"
    p.write_text(json.dumps(_valid_doc()))
    assert main(["check", str(p)]) == 0
    assert "axiom check: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_packed_table_defect_exits_1(tmp_path, capsys, defect, op):
    doc = _valid_doc()
    message, mutate = DEFECTS[defect]
    mutate(doc["functor"]["levels"]["H0"][op])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(message.format(op=op)) and err == ""


def test_packed_level_of_another_size_exits_1(tmp_path, capsys):
    # F2's tables in the 4-element level: its res and tr tables do not fit
    level = _valid_doc_with_h0(add=packed_block(F2.add), mul=packed_block(F2.mul))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(level))
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().out == "error: res table missing/misshaped for (0,)<=(0,)\n"


def test_over_cap_shape_is_refused_before_decoding(tmp_path, capsys, monkeypatch):
    def b64decode(*args, **kwargs):
        raise AssertionError("the base64 text was decoded")

    monkeypatch.setattr(serialize.base64, "b64decode", b64decode)
    doc = _valid_doc()
    doc["functor"]["levels"]["H0"]["add"] = {"b64": "AAAA" * 10 ** 6, "dtype": "<u2",
                                             "shape": [RING_SIZE_CAP + 1] * 2}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().out == OVER_CAP + "\n"


def test_bad_base64_exits_1_without_traceback(tmp_path):
    from test_serialize_cli import _cli_env

    doc = _valid_doc()
    DEFECTS["b64_bad_character"][1](doc["functor"]["levels"]["H0"]["mul"])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "tambara.cli", "check", str(p)],
                          capture_output=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.startswith(b"error: packed mul table: bad base64")
    assert proc.stderr == b""


def test_packed_form_is_for_ring_tables_only(tmp_path, capsys):
    doc = _valid_doc()
    doc["functor"]["res"]["H0<H1"] = packed_block([[0, 1]])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().out.startswith("error: ")


_CORPUS_RINGS = list({id(R): R for T in corpus.TAMBARA_CORPUS.values()
                      for R in T.levels.values()}.values())


@given(st.sampled_from(_CORPUS_RINGS))
@example(zn(31))  # 961 entries: listed
@example(product_ring([F2] * 5))  # 1024 entries: packed
@settings(max_examples=60, deadline=None)
def test_ring_round_trips_list_packed_list(R):
    listed = {"kind": "tables", "zero": int(R.zero), "one": int(R.one),
              "add": R.add.tolist(), "mul": R.mul.tolist()}
    packed = dict(listed, add=packed_block(R.add), mul=packed_block(R.mul))
    written = json.loads(serialize.dumps_document(serialize.ring_to_json(R)))
    assert isinstance(written["add"], dict) == (R.size ** 2 >= serialize.PACK_MIN_ENTRIES)
    assert unpacked(written) == dict(listed, label=R.label)
    for block in (packed, written, copy.deepcopy(listed)):
        S = serialize.parse_ring(block)
        assert S.add.tolist() == listed["add"] and S.mul.tolist() == listed["mul"]
        assert (S.zero, S.one) == (R.zero, R.one)
