import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus
import helpers
from corpus import C2, C4, F2, F3, S3
from tambara import serialize
from tambara.cli import main
from tambara.errors import DefinitionError
from tambara.groups import Subgroup, subgroups
from tambara.functors import _over_subgroup, constant_functor, functor_isomorphism
from tambara.rings import FiniteRing, product_ring

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def test_group_roundtrip():
    doc = serialize.group_to_json(S3)
    G = serialize.parse_group(doc)
    assert G.mul_table == S3.mul_table
    G2 = serialize.parse_group({"permutations": [[1, 0, 2], [1, 2, 0]]})
    assert G2.order == 6


def test_ring_parse_kinds():
    assert serialize.parse_ring({"kind": "Zn", "n": 6}).size == 6
    assert serialize.parse_ring({"kind": "Fq", "q": 9}).size == 9
    assert serialize.parse_ring({"kind": "zero"}).size == 1
    P = serialize.parse_ring({"kind": "product",
                              "factors": [{"kind": "Fq", "q": 2}, {"kind": "Zn", "n": 3}]})
    assert P.size == 6
    R = serialize.parse_ring(serialize.ring_to_json(F3))
    assert R.size == 3
    with pytest.raises(DefinitionError):
        serialize.parse_ring({"kind": "nope"})
    with pytest.raises(DefinitionError):
        # broken tables are rejected by validation
        serialize.parse_ring({"kind": "tables", "add": [[0, 1], [1, 1]],
                              "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1})


def test_subgroup_id_is_the_lattice_position():
    for G in corpus.SMALL_GROUPS + corpus.LATTICE_GROUPS:
        for i, H in enumerate(subgroups(G)):
            assert serialize.subgroup_id(G, H) == f"H{i}"
            assert serialize.resolve_subgroup(G, f"H{i}") is H
    assert serialize.subgroup_id(C4, Subgroup(C4, (2, 0))) == "H1"  # unsorted elements
    with pytest.raises(DefinitionError):
        serialize.subgroup_id(S3, C4.subgroup([0, 2]))  # (0, 2) is not closed in S3


def test_resolve_subgroup_aliases():
    assert serialize.resolve_subgroup(C4, "e").order == 1
    assert serialize.resolve_subgroup(C4, "G").order == 4
    assert serialize.resolve_subgroup(C4, "H1").order == 2
    assert serialize.resolve_subgroup(C4, "C2").order == 2
    with pytest.raises(DefinitionError):
        serialize.resolve_subgroup(S3, "C2")  # three conjugate order-2 subgroups
    with pytest.raises(DefinitionError):
        serialize.resolve_subgroup(C4, "H9")


@pytest.mark.parametrize("name", ["F4_galois_C2", "burnside_C2_4",
                                  "coind_C2a_S3_constF2", "FPF4_x_coindF2"])
def test_functor_roundtrip(name):
    T = corpus.TAMBARA_CORPUS[name]
    doc = serialize.functor_to_json(T)
    T2 = serialize.parse_functor_body(doc, serialize.parse_group(doc["group"]))
    assert T2.has_norms == T.has_norms
    for H2 in subgroups(T2.group):
        H = T.group.subgroup(H2.elements)
        assert T2.levels[H2].size == T.levels[H].size
        assert np.array_equal(T2.res[(H2, T2.group.full_subgroup)],
                              T.res[(H, T.group.full_subgroup)])


def test_ambiguous_definition_rejected():
    doc = {"schema": 1, "group": serialize.group_to_json(C2),
           "fp": {"ring": {"kind": "Fq", "q": 3}, "action": [[0, 1, 2], [0, 1, 2]]},
           "burnside": {"mod": 2}}
    with pytest.raises(DefinitionError):
        serialize.parse_functor_body(doc, serialize.parse_group(doc["group"]))


def test_flat_explicit_form_accepted():
    T = corpus.FP_CORPUS["F2_triv_C2"]
    doc = serialize.functor_to_json(T)
    flat = {"schema": 1, "group": doc["group"], **doc["functor"]}
    T2 = serialize.parse_functor_body(flat, serialize.parse_group(doc["group"]))
    assert T2.has_norms and T2.bottom.size == 2


def test_green_functor_roundtrip():
    T = corpus.GREEN_CORPUS["green_cex_2_F2"]
    doc = serialize.functor_to_json(T)
    assert "nm" not in doc["functor"]
    T2 = serialize.parse_functor_body(doc, serialize.parse_group(doc["group"]))
    assert not T2.has_norms


def test_dump_is_deterministic(tmp_path):
    T = corpus.TAMBARA_CORPUS["burnside_C2_4"]
    s1 = serialize.dumps_functor(T)
    p = tmp_path / "b.json"
    serialize.dump_functor(T, str(p))
    T2 = serialize.load_functor(str(p))
    s2 = serialize.dumps_functor(T2)
    assert s1 == s2


def _write_fixture(tmp_path, name, T):
    p = tmp_path / name
    serialize.dump_functor(T, str(p))
    return str(p)


def test_cmd_check_pass(tmp_path, capsys):
    p = _write_fixture(tmp_path, "fp_f4_c2.json", corpus.FP_CORPUS["F4_galois_C2"])
    assert main(["check", p]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cmd_check_axiom_failure(tmp_path, capsys):
    broken = helpers.mutation_fixtures()[2][1]  # doubled transfer
    p = _write_fixture(tmp_path, "broken.json", broken)
    assert main(["check", p]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "mackey" in out or "frobenius" in out


def test_cmd_check_malformed(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["check", str(p)]) == 1
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"schema": 99}))
    assert main(["check", str(p2)]) == 1


def test_cmd_decompose_coinduction(tmp_path, capsys):
    p = _write_fixture(tmp_path, "coind.json",
                       corpus.COIND_CORPUS["coind_e_C2_constF3"])
    out_path = str(tmp_path / "out.json")
    assert main(["decompose", p, "--out", out_path]) == 0
    out = capsys.readouterr().out
    assert "factor: H=H0" in out
    # emitted file re-ingests and passes check
    assert main(["check", out_path]) == 0


def test_cmd_decompose_green_exit3(tmp_path, capsys):
    p = _write_fixture(tmp_path, "green.json", corpus.GREEN_CORPUS["green_cex_2_F2"])
    assert main(["decompose", p]) == 3
    assert "Green" in capsys.readouterr().out


def test_cmd_decompose_lambda_keeps_clarified(tmp_path, capsys):
    p = _write_fixture(tmp_path, "fp4.json", corpus.FP_CORPUS["F4_galois_C2"])
    out_path = str(tmp_path / "cl.json")
    assert main(["decompose", p, "--lambda", "C2", "--out", out_path]) == 0
    T2 = serialize.load_functor(out_path)
    assert functor_isomorphism(corpus.FP_CORPUS["F4_galois_C2"],
                               _over_subgroup(C2.full_subgroup, T2)) is not None


def test_cmd_decompose_lambda_to_zero(tmp_path, capsys):
    p = _write_fixture(tmp_path, "coind.json", corpus.COIND_CORPUS["coind_e_C2_constF3"])
    out_path = str(tmp_path / "zero.json")
    assert main(["decompose", p, "--lambda", "G", "--out", out_path]) == 0
    capsys.readouterr()
    Z = serialize.load_functor(out_path)
    assert Z.is_zero()
    assert main(["check", out_path]) == 0


def test_cmd_lewis_burnside(tmp_path, capsys):
    p = _write_fixture(tmp_path, "b24.json", corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    assert main(["lewis", p]) == 0
    out = capsys.readouterr().out
    assert "level H1" in out and "level H0" in out
    assert "nm" in out and "tr" in out and "res" in out


def test_cmd_lewis_two_level(tmp_path, capsys):
    p = _write_fixture(tmp_path, "fp4.json", corpus.FP_CORPUS["F4_galois_C2"])
    assert main(["lewis", p]) == 0
    assert capsys.readouterr().out.count("level H") == 2


def test_cmd_lewis_nonchain_exit4(tmp_path, capsys):
    p = _write_fixture(tmp_path, "s3.json", corpus.COIND_CORPUS["coind_C2a_S3_constF2"])
    assert main(["lewis", p]) == 4
    capsys.readouterr()
    # an explicit chain makes it printable
    assert main(["lewis", p, "--chain", "H0,H1,H5"]) == 0


def test_cmd_coinduce(tmp_path, capsys):
    doc = {"schema": 1,
           "group": {"name": "C2", "table": [[0, 1], [1, 0]]},
           "fp": {"ring": {"kind": "Fq", "q": 3}, "action": [[0, 1, 2]]}}
    p = tmp_path / "inner.json"
    p.write_text(json.dumps(doc))
    out_path = str(tmp_path / "coind.json")
    assert main(["coinduce", str(p), "--from", "e", "--out", out_path]) == 0
    capsys.readouterr()
    assert main(["check", out_path]) == 0
    T = serialize.load_functor(out_path)
    assert T.bottom.size == 9


def test_out_of_memory_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    # stand in for a coinduction too large for memory with a raising
    # ring_to_json
    p = tmp_path / "burnside.json"
    C4_table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    p.write_text(json.dumps({"schema": 1, "group": {"name": "C4", "table": C4_table},
                             "burnside": {"mod": 3}}))
    out_path = tmp_path / "coind.json"

    def out_of_memory(R):
        raise MemoryError

    monkeypatch.setattr(serialize, "ring_to_json", out_of_memory)
    assert main(["coinduce", str(p), "--from", "e", "--out", str(out_path)]) == 1
    assert capsys.readouterr().out.startswith("error: out of memory")
    assert not out_path.exists()


def test_failed_write_keeps_the_old_out_file(tmp_path, capsys, monkeypatch):
    """A write that fails part way leaves the --out file as it was and no
    temporary file behind."""
    p = tmp_path / "burnside.json"
    C4_table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    p.write_text(json.dumps({"schema": 1, "group": {"name": "C4", "table": C4_table},
                             "burnside": {"mod": 3}}))
    out_path = tmp_path / "coind.json"
    out_path.write_text("old\n")
    b64_chunks = serialize._b64_chunks

    def out_of_memory_after_one_chunk(A):  # the 81-element bottom ring's tables are packed
        yield next(b64_chunks(A))
        raise MemoryError

    monkeypatch.setattr(serialize, "_b64_chunks", out_of_memory_after_one_chunk)
    assert main(["coinduce", str(p), "--from", "e", "--out", str(out_path)]) == 1
    assert capsys.readouterr().out.startswith("error: out of memory")
    assert out_path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["burnside.json", "coind.json"]

def test_cmd_restrict(tmp_path, capsys):
    p = _write_fixture(tmp_path, "c4.json", corpus.COIND_CORPUS["coind_C2_C4_FPF4"])
    out_path = str(tmp_path / "res.json")
    assert main(["restrict", p, "--to", "C2", "--out", out_path]) == 0
    capsys.readouterr()
    assert main(["check", out_path]) == 0


def test_cmd_iso(tmp_path, capsys):
    p1 = _write_fixture(tmp_path, "a.json", corpus.COIND_CORPUS["coind_e_C2_constF3"])
    p2 = _write_fixture(tmp_path, "b.json", corpus.FP_CORPUS["coind_e_C2_F3"])
    p3 = _write_fixture(tmp_path, "c.json", corpus.FP_CORPUS["F3xF3_triv_C2"])
    assert main(["iso", p1, p1]) == 0
    assert "isomorphic" in capsys.readouterr().out
    assert main(["iso", p1, p2]) == 0
    assert "isomorphic" in capsys.readouterr().out
    assert main(["iso", p1, p3]) == 0
    assert "not isomorphic" in capsys.readouterr().out


@pytest.mark.parametrize("first, second", [
    ("coind_e_C4_constF2", "coind_e_V4_constF2"),  # equal order, other table
    ("coind_e_C2_constF3", "coind_e_C4_constF2"),  # other order
])
def test_cmd_iso_over_different_groups_exit1(tmp_path, capsys, first, second):
    p1 = _write_fixture(tmp_path, "a.json", corpus.TAMBARA_CORPUS[first])
    p2 = _write_fixture(tmp_path, "b.json", corpus.TAMBARA_CORPUS[second])
    assert main(["iso", p1, p2]) == 1
    assert capsys.readouterr().out == "error: functors live over different groups\n"


def test_cmd_iso_timeout(tmp_path, capsys):
    p = _write_fixture(tmp_path, "b.json", corpus.PRODUCT_CORPUS["burnside_sq_C2_4"])
    assert main(["--budget", "0", "iso", p, p]) == 5
    assert "timeout" in capsys.readouterr().out


def test_cmd_iso_refuses_negative_budget(tmp_path, capsys):
    # a usage error, not a search that ran out of nodes (exit 5)
    T = corpus.PRODUCT_CORPUS["burnside_sq_C2_4"]
    p = _write_fixture(tmp_path, "b.json", T)
    assert main(["--budget", "-3", "iso", p, p]) == 1
    assert capsys.readouterr().out == "error: search budget must be at least 0, got -3\n"
    with pytest.raises(DefinitionError, match="at least 0, got -1"):
        functor_isomorphism(T, T, budget=-1)


def test_cmd_iso_refuses_negative_budget_before_comparing_norm_flags(tmp_path, capsys):
    # only the first file has norms, which alone answers "not isomorphic"
    p1 = _write_fixture(tmp_path, "a.json", corpus.FP_CORPUS["F4_galois_C2"])
    p2 = _write_fixture(tmp_path, "b.json", corpus.GREEN_CORPUS["green_cex_2_F2"])
    assert main(["--budget", "-3", "iso", p1, p2]) == 1
    assert capsys.readouterr().out == "error: search budget must be at least 0, got -3\n"
    assert main(["iso", p1, p2]) == 0
    assert capsys.readouterr().out == "not isomorphic (norm flags differ)\n"


def test_cmd_unknown_subgroup_exit1(tmp_path, capsys):
    p = _write_fixture(tmp_path, "c4.json", corpus.COIND_CORPUS["coind_C2_C4_FPF4"])
    assert main(["restrict", p, "--to", "H9"]) == 1
    capsys.readouterr()
    doc = {"schema": 1, "group": {"name": "C2", "table": [[0, 1], [1, 0]]},
           "fp": {"ring": {"kind": "Fq", "q": 3}, "action": [[0, 1, 2]]}}
    p2 = tmp_path / "inner.json"
    p2.write_text(json.dumps(doc))
    assert main(["coinduce", str(p2), "--from", "H7"]) == 1


_C2_GROUP = {"name": "C2", "table": [[0, 1], [1, 0]]}
MALFORMED = {
    "toplevel_list": [1, 2],
    "zn_without_n": {"schema": 1, "group": _C2_GROUP,
                     "fp": {"ring": {"kind": "Zn"}, "action": [[0, 1], [0, 1]]}},
    "burnside_mod_text": {"schema": 1, "group": _C2_GROUP, "burnside": {"mod": "x"}},
    "burnside_mod_1": {"schema": 1, "group": _C2_GROUP, "burnside": {"mod": 1}},
    "coind_without_functor": {"schema": 1, "group": _C2_GROUP, "coind": {"from": "e"}},
    "fp_action_past_int32": {"schema": 1, "group": _C2_GROUP,
                             "fp": {"ring": {"kind": "Zn", "n": 2}, "action": [[0, 1], [1, 2 ** 40]]}},
    "res_not_an_object": {"schema": 1, "group": _C2_GROUP,
                          "functor": {"levels": {"H0": {"kind": "zero"}, "H1": {"kind": "zero"}},
                                      "res": []}},
}


@pytest.mark.parametrize("command", [["check"], ["decompose"], ["restrict", "--to", "e"],
                                     ["coinduce", "--from", "e"], ["lewis"], ["iso"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1(tmp_path, capsys, command, case):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(MALFORMED[case]))
    paths = [str(p), str(p)] if command[0] == "iso" else [str(p)]
    assert main([command[0], *paths, *command[1:]]) == 1
    assert capsys.readouterr().out.startswith("error:")


# one table of the constant F2 functor over C2 pointing outside its target
# level (the nm entry does not fit in int32)
OUT_OF_RANGE = {"res": ("H0<H1", [7, 7]), "tr": ("H0<H1", [9, 9]), "conj": ("g1|H0", [-1, 0]),
                "nm": ("H0<H1", [2 ** 40, 0])}


@pytest.mark.parametrize("command", [["check"], ["decompose"], ["lewis"], ["restrict", "--to", "e"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("table", sorted(OUT_OF_RANGE))
def test_out_of_range_table_exits_1(tmp_path, capsys, command, table):
    doc = serialize.functor_to_json(constant_functor(F2, C2))
    key, entries = OUT_OF_RANGE[table]
    doc["functor"][table][key] = entries
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main([command[0], str(p), *command[1:]]) == 1
    assert capsys.readouterr().out.startswith("error: ")


def test_cmd_check_fiber_bound_flag(tmp_path, capsys):
    p = _write_fixture(tmp_path, "b.json", corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    assert main(["--fiber-bound", "3", "check", p]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("bound", ["1", "0", "-1"])
def test_cmd_check_refuses_fiber_bound_below_2(tmp_path, capsys, bound):
    p = _write_fixture(tmp_path, "b.json", corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    assert main([f"--fiber-bound={bound}", "check", p]) == 1
    out = capsys.readouterr().out
    assert out == f"error: fiber bound must be at least 2, got {bound}\n"


def test_fiber_bound_past_diagram_cap_exits_1(tmp_path, capsys):
    # over D4 a fiber bound of 3 asks for a dependent product of 3^8 points
    p = _write_fixture(tmp_path, "constD4.json", constant_functor(F2, corpus.D4))
    assert main(["--fiber-bound", "3", "check", p]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: exponential diagram A = ")
    assert "more than 4096 points" in out


def _cli_env():
    """The environment for running `python -m tambara.cli` on this source tree."""
    src = os.path.dirname(os.path.dirname(serialize.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_deeply_nested_json_exits_1_without_traceback(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text('{"schema":1,"group":' + "[" * 100000 + "]" * 100000 + "}")
    env = _cli_env()
    proc = subprocess.run([sys.executable, "-m", "tambara.cli", "check", str(p)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.startswith(b"error: invalid JSON: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["check"], ["--fiber-bound", "abc", "check", "x.json"],
                                  ["nosuch", "x.json"]],
                         ids=["no-path", "non-integer-fiber-bound", "unknown-command"])
def test_usage_errors_exit_1(capsys, argv):
    # 2 is the axiom-failure code, so argparse's own exit code is not used
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tambara") and "error: " in err


def test_threads_env_is_accepted(tmp_path, capsys, monkeypatch):
    p = _write_fixture(tmp_path, "fp.json", corpus.FP_CORPUS["F2_triv_C2"])
    monkeypatch.setenv("TAMBARA_THREADS", "4")
    assert main(["check", p]) == 0
    monkeypatch.setenv("TAMBARA_THREADS", "not-a-number")
    assert main(["check", p]) == 0


def test_serialization_closure_byte_stable(tmp_path, capsys):
    # every CLI-emitted artifact re-ingests, passes check, and is stable
    src = _write_fixture(tmp_path, "src.json", corpus.COIND_CORPUS["coind_C2_C4_FPF4"])
    d1 = str(tmp_path / "d1.json")
    d2 = str(tmp_path / "d2.json")
    assert main(["decompose", src, "--out", d1]) == 0
    assert main(["decompose", src, "--out", d2]) == 0
    capsys.readouterr()
    assert Path(d1).read_bytes() == Path(d2).read_bytes()
    assert main(["check", d1]) == 0


@pytest.mark.parametrize("command", ["check", "decompose", "lewis"])
def test_large_broken_ring_exits_1(tmp_path, capsys, command):
    # F2^9 (512 elements) with one symmetric product changed, 3 * 5 = 7
    # instead of 1: a ring read from tables is checked whatever its size
    R = product_ring([F2] * 9)
    mul = R.mul.copy()
    mul[3, 5] = mul[5, 3] = 7
    ring = {"kind": "tables", "add": R.add.tolist(), "mul": mul.tolist(),
            "zero": R.zero, "one": R.one}
    doc = {"schema": 1, "group": _C2_GROUP,
           "fp": {"ring": ring, "action": [list(range(R.size))] * 2}}
    p = tmp_path / "broken512.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p)]) == 1
    assert capsys.readouterr().out.startswith("error: distributivity fails")


def _count_validate(monkeypatch):
    """The messages FiniteRing.validate raises, one entry per call (None
    when it passes)."""
    calls = []
    real = FiniteRing.validate

    def counted(R):
        calls.append(None)
        try:
            real(R)
        except DefinitionError as exc:
            calls[-1] = str(exc)
            raise

    monkeypatch.setattr(FiniteRing, "validate", counted)
    return calls


def _distinct_rings(levels):
    return {(R.size, R.zero, R.one, R.add.tobytes(), R.mul.tobytes()) for R in levels}


def test_table_rings_are_validated_once_at_the_loader(tmp_path, capsys, monkeypatch):
    # one proof per distinct ring per command, so `iso p p` proves as many
    # as one load (F4_sign_S3 has 6 levels and 2 distinct rings); the rings
    # decompose and iso build from the levels are rings by construction
    # and not proven again
    calls = _count_validate(monkeypatch)
    for name in ("FPF4_x_coindF2", "F4_sign_S3"):
        T = corpus.TAMBARA_CORPUS[name]
        p = _write_fixture(tmp_path, f"{name}.json", T)
        distinct = len(_distinct_rings(T.levels.values()))
        for argv in (["check", p], ["decompose", p, "--out", str(tmp_path / "d.json")],
                     ["decompose", p, "--lambda", "G", "--out", str(tmp_path / "l.json")],
                     ["iso", p, p]):
            calls.clear()
            assert main(argv) == 0
            assert calls == [None] * distinct
    capsys.readouterr()


def test_rings_with_equal_add_are_proven_apart_unless_all_equal(monkeypatch):
    # F4 and F2[x]/x^2 (a + bx at index a + 2b) share +, 0 and 1; F4's
    # tables with another 0 or 1 are no ring; each is proven, and only a
    # repeat of F4 itself takes over the earlier proof
    F4 = corpus.F4
    dual = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]
    assert np.array_equal(F4.add, np.bitwise_xor.outer(np.arange(4), np.arange(4)))
    block = {"kind": "tables", "add": F4.add.tolist(), "mul": F4.mul.tolist(), "zero": 0, "one": 1}
    calls = _count_validate(monkeypatch)
    proven = {}
    first = serialize.parse_ring(block, proven)
    serialize.parse_ring({**block, "mul": dual}, proven)
    for change, message in (({"zero": 1}, "zero is not an additive identity"),
                            ({"one": 2}, "one is not a multiplicative identity")):
        with pytest.raises(DefinitionError, match=message):
            serialize.parse_ring({**block, **change}, proven)
    assert calls == [None, None, "zero is not an additive identity",
                     "one is not a multiplicative identity"]
    again = serialize.parse_ring({**block, "label": "again"}, proven)
    assert len(calls) == 4
    assert again is not first and (again.label, first.label) == ("again", "R")
    assert again.additive_generators() == first.additive_generators()


def _loaded_levels(paths_and_over):
    """The levels of the files, loaded through one record of proofs, and
    the number of validate() calls that took."""
    proven, levels = {}, []
    for path, over in paths_and_over:
        levels += serialize.load_document(path, over=over, proven=proven)[2].levels.values()
    return levels, sum(map(len, proven.values()))


def _assert_each_level_is_a_ring(levels, proofs):
    # some levels were proven and some took over a proof or were built by
    # construction; each passes a fresh proof, and its additive generators
    # are the ones a fresh search finds
    assert 0 < proofs <= len(_distinct_rings(levels)) < len(levels)
    for R in levels:
        fresh = FiniteRing(R.add, R.mul, R.zero, R.one)
        fresh.validate()
        assert R.additive_generators() == fresh.additive_generators()


def test_levels_loaded_from_the_corpus_are_rings(tmp_path):
    found = []
    for name, T in {**corpus.TAMBARA_CORPUS, **corpus.GREEN_CORPUS}.items():
        found.append((_write_fixture(tmp_path, f"{name}.json", T), None))
    _assert_each_level_is_a_ring(*_loaded_levels(found))


@pytest.mark.parametrize("workload", ["burnside", "lattice", "tables"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_levels_loaded_from_benchmark_inputs_are_rings(tmp_path, workload, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        wl = importlib.import_module("workloads")
    _, commands = wl.generate(workload, seed, str(tmp_path))
    found = []
    for cmd in commands:  # the input files, read as their commands read them
        over = cmd.argv[3] if cmd.kind == "coinduce" else None
        paths = cmd.argv[1:3] if cmd.kind == "iso" else cmd.argv[1:2]
        found += [(path, over) for path in paths if os.path.exists(path)]
    _assert_each_level_is_a_ring(*_loaded_levels(dict.fromkeys(found)))


# Z/4 or Z/3 tables with one structural fault each, and the message
# validate() gives it, as the constructor gave it before
_Z4_ADD = [[(a + b) % 4 for b in range(4)] for a in range(4)]
_Z4_MUL = [[a * b % 4 for b in range(4)] for a in range(4)]
_STRUCTURAL_FAULTS = {
    "entry_out_of_range": ({"add": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 4], [3, 0, 4, 2]]},
                           "table entries out of range"),
    "add_not_commutative": ({"add": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 2, 2]]},
                            "addition is not commutative"),
    "mul_not_commutative": ({"mul": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 0, 1]]},
                            "multiplication is not commutative"),
    "zero_not_identity": ({"zero": 2}, "zero is not an additive identity"),
    "one_not_identity": ({"one": 2}, "one is not a multiplicative identity"),
    "zero_is_one": ({"add": [[0, 1], [1, 0]], "mul": [[0, 1], [1, 1]], "one": 0},
                    "0 == 1 in a ring with more than one element"),
    "no_negative": ({"add": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                     "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 1]]},
                    "some element has no additive inverse"),
}


@pytest.mark.parametrize("fault", sorted(_STRUCTURAL_FAULTS))
def test_structural_fault_raises_from_validate(tmp_path, capsys, monkeypatch, fault):
    change, message = _STRUCTURAL_FAULTS[fault]
    ring = {"kind": "tables", "add": _Z4_ADD, "mul": _Z4_MUL, "zero": 0, "one": 1, **change}
    n = len(ring["add"])
    doc = {"schema": 1, "group": _C2_GROUP,
           "fp": {"ring": ring, "action": [list(range(n))] * 2}}
    p = tmp_path / "fault.json"
    p.write_text(json.dumps(doc))
    calls = _count_validate(monkeypatch)
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().out == f"error: {message}\n"
    assert calls == [message]


@pytest.mark.parametrize("fault", sorted(_STRUCTURAL_FAULTS))
def test_repeated_broken_ring_exits_1_with_its_message(tmp_path, capsys, monkeypatch, fault):
    # the broken ring at both levels of one file, and as the second file
    # of iso after a file whose levels are the ring it breaks
    change, message = _STRUCTURAL_FAULTS[fault]
    good = serialize.functor_to_json(constant_functor(corpus.Z4, C2))
    bad = json.loads(json.dumps(good))
    for block in bad["functor"]["levels"].values():
        block.update(change)
    pg, pb = tmp_path / "good.json", tmp_path / "bad.json"
    pg.write_text(json.dumps(good))
    pb.write_text(json.dumps(bad))
    calls = _count_validate(monkeypatch)
    for argv, proofs in ((["check", str(pb)], [message]),
                         (["iso", str(pg), str(pb)], [None, message]),
                         (["iso", str(pb), str(pg)], [message])):
        calls.clear()
        assert main(argv) == 1
        assert capsys.readouterr().out == f"error: {message}\n"
        assert calls == proofs


@pytest.mark.parametrize("ring", [{"kind": "Zn", "n": 30000}, {"kind": "Fq", "q": 1000000007}],
                         ids=["Zn", "Fq"])
def test_oversized_ring_block_exits_1_fast(tmp_path, ring):
    # refused before the n x n tables are allocated or q is factored
    doc = {"schema": 1, "group": _C2_GROUP, "fp": {"ring": ring, "action": [[0], [0]]}}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    env = _cli_env()
    proc = subprocess.run([sys.executable, "-m", "tambara.cli", "check", str(p)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.startswith(b"error: ring size ")
    assert proc.stderr == b""


def _c2_power_table(k):
    """The multiplication table of C2^k, elements as bit masks."""
    return [[a ^ b for b in range(2 ** k)] for a in range(2 ** k)]


# groups above the order cap: C2^6 as a table with a fixed-point functor
# (its lattice alone has 2825 subgroups), and S6 as permutations with a
# Burnside shorthand (720^3 associativity steps before burnside_mod's own
# order check)
OVERSIZE_GROUPS = {
    "C2^6_table": {"schema": 1, "group": {"name": "C2^6", "table": _c2_power_table(6)},
                   "fp": {"ring": {"kind": "Zn", "n": 2}, "action": [[0, 1]] * 64}},
    "S6_permutations": {"schema": 1,
                        "group": {"permutations": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]},
                        "burnside": {"mod": 2}},
}


@pytest.mark.parametrize("case", sorted(OVERSIZE_GROUPS))
def test_oversize_group_exits_1_fast(tmp_path, case):
    # refused before the group is validated or its lattice built; a
    # regression shows as a timeout here instead of a hung suite
    p = tmp_path / "big.json"
    p.write_text(json.dumps(OVERSIZE_GROUPS[case]))
    proc = subprocess.run([sys.executable, "-m", "tambara.cli", "check", str(p)],
                          capture_output=True, env=_cli_env(), timeout=30)
    assert proc.returncode == 1
    assert proc.stdout.startswith(b"error: ")
    assert b"group order cap 24" in proc.stdout
    assert proc.stderr == b""


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, buffered):
    # buffered, the broken pipe shows when stdout is flushed; unbuffered,
    # in the first print
    p = _write_fixture(tmp_path, "b24.json", corpus.BURNSIDE_CORPUS["burnside_C2_4"])
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        proc = subprocess.run([sys.executable, "-m", "tambara.cli", "lewis", p],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _constant_doc(ring, edit):
    """The constant functor of ring over C2 as a document, edited in place."""
    doc = serialize.functor_to_json(constant_functor(ring, C2))
    edit(doc)
    return doc


def _on_levels(key, value):
    def edit(doc):
        for block in doc["functor"]["levels"].values():
            block[key] = value
    return edit


def _set(path, value):
    def edit(doc):
        *head, last = path
        for k in head:
            doc = doc[k]
        doc[last] = value
    return edit


# files whose bad entry a reader could take for a good one: a unit outside
# the ring (numpy reads a negative index from the end of a table), a
# non-integer entry that would truncate or parse, a boolean among integers
# that numpy would read as 0 or 1, a green_only that bool() would read as
# true
BAD_ENTRIES = {
    "one_minus_1": (F2, _on_levels("one", -1), "one -1 is not an element of 0..1"),
    "zero_minus_3": (F3, _on_levels("zero", -3), "zero -3 is not an element of 0..2"),
    "res_floats": (F2, _set(["functor", "res", "H0<H1"], [0.7, 1.2]),
                   "res table H0<H1: expected integers"),
    "res_strings": (F2, _set(["functor", "res", "H0<H1"], ["0", "1"]),
                    "res table H0<H1: expected integers"),
    "add_float": (F2, _set(["functor", "levels", "H0", "add", 1, 0], 1.9),
                  "add table: expected integers"),
    "group_float": (F2, _set(["group", "table", 0, 1], 1.0), "group table: expected integers"),
    "res_bool": (F2, _set(["functor", "res", "H0<H1"], [0, True]),
                 "res table H0<H1: expected integers, found a boolean"),
    "conj_bool": (F2, _set(["functor", "conj", "g1|H0"], [False, 1]),
                  "conj table g1|H0: expected integers, found a boolean"),
    "mul_bool": (F2, _set(["functor", "levels", "H1", "mul", 1, 1], True),
                 "mul table: expected integers, found a boolean"),
    "group_bool": (F2, _set(["group", "table", 1, 1], False),
                   "group table: expected integers, found a boolean"),
    "green_only_text": (F2, _set(["functor", "green_only"], "false"),
                        "green_only must be true or false"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
def test_bad_entries_exit_1_before_any_check(tmp_path, capsys, case):
    ring, edit, message = BAD_ENTRIES[case]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_constant_doc(ring, edit)))
    assert main(["check", str(p)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and message in out
    assert "axiom check" not in out


@pytest.mark.parametrize("ring", [F2, F3], ids=lambda R: R.label)
def test_unedited_constant_file_passes(tmp_path, capsys, ring):
    # so each file above fails for its one bad entry
    p = tmp_path / "good.json"
    p.write_text(json.dumps(_constant_doc(ring, lambda doc: None)))
    assert main(["check", str(p)]) == 0
    assert "axiom check: PASS" in capsys.readouterr().out


def _dual_numbers_green_doc():
    """A Green functor over C2 whose conjugation is additive but not a ring
    map: bottom F2[x]/x^2 (a + bx has index a + 2b), top F2, res the
    inclusion, tr a + bx -> b, and g1 acting on the bottom by x <-> 1 + x,
    so that c(x)^2 = 1 while c(x^2) = 0.  Every other map is the identity."""
    dual = {"kind": "tables", "zero": 0, "one": 1,
            "add": [[a ^ b for b in range(4)] for a in range(4)],
            "mul": [[(a & 1) * (b & 1) + 2 * ((a & 1) * (b >> 1) ^ (a >> 1) * (b & 1))
                     for b in range(4)] for a in range(4)]}
    return {"schema": 1, "group": {"name": "C2", "table": [[0, 1], [1, 0]]},
            "functor": {"green_only": True,
                        "levels": {"H0": dual, "H1": {"kind": "Fq", "q": 2}},
                        "res": {"H0<H0": [0, 1, 2, 3], "H0<H1": [0, 1], "H1<H1": [0, 1]},
                        "tr": {"H0<H0": [0, 1, 2, 3], "H0<H1": [0, 0, 1, 1], "H1<H1": [0, 1]},
                        "conj": {"g0|H0": [0, 1, 2, 3], "g1|H0": [0, 1, 3, 2],
                                 "g0|H1": [0, 1], "g1|H1": [0, 1]}}}


@pytest.mark.xfail(strict=True, reason="check_axioms does not check that conj is a ring map")
def test_conjugation_that_is_no_ring_map_fails_check(tmp_path, capsys):
    p = tmp_path / "conj.json"
    p.write_text(json.dumps(_dual_numbers_green_doc()))
    assert main(["check", str(p)]) == 1
    assert "axiom check: FAIL" in capsys.readouterr().out
