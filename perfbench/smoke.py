"""Smoke test of the benchmark at reduced size (the ``smoke`` workload).

    python3 perfbench/smoke.py

Checks that
  * both kinds of run print every metric named in BENCHMARK.json, with its
    unit, in the readable report and in the JSON result, plus fail_frac;
  * a deliberately wrong expected answer counts as a failed command;
  * a command that raises, or exits through argparse, counts as failed
    and the pass goes on to the next command.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402

PROBLEMS = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        PROBLEMS.append(what)


def check_report(trace: int, declared) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"trace {trace}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"trace {trace}: not correct: {lines[:-1]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"trace {trace}: metrics {got} differ from BENCHMARK.json {want}")
    for name, unit in want.items():
        expect(any(line.startswith(f"smoke {name} ") and line.endswith(f" {unit}")
                   for line in lines), f"trace {trace}: {name} not printed with {unit}")
    expect(any(line.startswith("smoke fail_frac 0 ratio") for line in lines),
           f"trace {trace}: fail_frac not printed")
    expect(any(line.startswith("provenance: ") for line in lines),
           f"trace {trace}: no provenance block")


def check_failures() -> None:
    import tambara.cli
    from oracle import Oracle
    from workloads import generate

    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK)
    try:
        _, commands = generate("smoke", 3, workdir)
        times, _, failed = run.run_pass(commands, Oracle(), tambara.cli.main)
        expect(failed == 0, f"smoke pass failed {failed} commands")

        iso = next(c for c in commands if c.kind == "iso" and c.expect["iso"])
        iso.expect["iso"] = False   # a wrong expectation must count
        failures = []
        _, _, failed = run.run_pass(commands, Oracle(), tambara.cli.main,
                                    failures=failures)
        expect(failed == 1 and "not isomorphic" in failures[0],
               f"wrong expected answer: {failed} failed, {failures}")
        iso.expect["iso"] = True

        def raising(argv):
            if argv[0] == "lewis":
                raise RuntimeError("injected")
            return tambara.cli.main(argv)

        commands.append(run.Command("check", ["check", "--no-such-flag"], {}))
        failures = []
        times, _, failed = run.run_pass(commands, Oracle(), raising, failures=failures)
        expect(failed == 2 and len(times) == len(commands),
               f"raising commands: {failed} failed of {len(times)} run, {failures}")
        expect(any("RuntimeError" in f for f in failures), "raise not reported")
        expect(any("SystemExit" in f for f in failures), "argparse exit not reported")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_report(0, bench["end_to_end"])
    check_report(1, bench["per_layer"])
    check_failures()
    for p in PROBLEMS:
        print(f"FAIL {p}")
    print("smoke: ok" if not PROBLEMS else f"smoke: {len(PROBLEMS)} problems")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
