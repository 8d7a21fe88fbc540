"""Benchmark of the ``tambara`` CLI: one closed-loop caller per workload.

    python3 perfbench/run.py --workload {burnside,lattice,tables} --seed N \
        --seconds S --trace {0,1}

(``--workload smoke`` is a reduced-size list for ``smoke.py``.)

Set-up runs ``generate.py`` seven times, each in a fresh process that
imports ``tambara`` and writes the workload's definition files from the
seed; ``setup_s`` is the median of their import-plus-generation times,
each scaled to the reference speed of ``speed.py`` by probes taken in
that process.
The measuring process then drives ``tambara.cli.main(argv)`` in-process,
one command at a time, each command re-reading its own files.  It repeats
the workload's command list while another pass fits in ``--seconds``
(at least one pass), and checks every answer between commands, outside the
timed calls.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the whole
command list) and the summed ``check_s``, ``decompose_s`` and ``iso_s``,
plus ``peak_rss_mb`` of this process after the first pass.  Each time is
a sum over commands of the command's median time across passes, scaled to
the reference speed: the probe of ``speed.py`` runs before, during and
after every command.  Command times follow such a probe closely
(correlation 0.87 of their logarithms on ``burnside``), and the scaling cut
the run-to-run spread of ``decompose_s`` there from 0.29 to about 0.05.
The probe has to run in the process it scales: probed from the measuring
process, a set-up process's time followed it only weakly (correlation
0.36; 0.81 on ``lattice`` when probed in the set-up process itself).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` (median over traced passes, in raw
seconds), the tracing overhead (traced minus untraced ``wall_s``, both
scaled; traced commands are probed only before and after, so that no
probe lands in a span) and the share of traced wall time that the spans'
self times account for; the spans are written to
``.perfbench_work/trace-<workload>-<seed>.jsonl``.

Before the result, stdout carries a readable report: every metric with its
unit, ``fail_frac`` (failed over attempted commands) and a provenance
block.  The last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from speed import Ticker, probe_s, scaled
from workloads import WORKLOADS, Command

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 7

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("check_s", "s"),
              ("decompose_s", "s"), ("iso_s", "s"), ("peak_rss_mb", "MiB")]
TIMED_KINDS = {"check": "check_s", "decompose": "decompose_s", "iso": "iso_s"}


# -- set-up ---------------------------------------------------------------


def _generate(workload: str, seed: int, workdir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "generate.py"), workload, str(seed), workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"generate.py failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup(workload: str, seed: int, workdir: str):
    """Generate the inputs SETUP_REPEATS times; return the median set-up
    time, the commands and inputs of the first generation, whether every
    generation wrote the same bytes, and the median unscaled set-up time."""
    runs, digests = [], []
    for i in range(SETUP_REPEATS):
        run = _generate(workload, seed, os.path.join(workdir, f"gen{i}"))
        runs.append(run)
        digests.append({name: _sha256(path) for name, path in run["files"].items()})
    for i in range(1, SETUP_REPEATS):
        shutil.rmtree(os.path.join(workdir, f"gen{i}"))
    first = runs[0]
    commands = []
    for c in first["commands"]:
        expect = c["expect"]
        if "classes" in expect:
            expect["classes"] = [frozenset(map(frozenset, cls)) for cls in expect["classes"]]
        commands.append(Command(c["kind"], c["argv"], expect))
    inputs = {name: {"sha256": digests[0][name], "bytes": os.path.getsize(path)}
              for name, path in sorted(first["files"].items())}
    same = all(d == digests[0] for d in digests)
    return statistics.median(r["setup_s"] for r in runs), commands, inputs, same, \
        statistics.median(r["raw_setup_s"] for r in runs)


# -- the closed loop --------------------------------------------------------


def run_command(main, argv, ticker=None):
    """One timed call of the CLI: (seconds, exit code, stdout, error).
    With a ticker, the seconds leave out the time its probes took."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    if ticker is not None:
        ticker.start()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r}): {err.getvalue().strip()}"
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        if ticker is not None:
            ticker.stop()
    seconds = perf_counter() - start - (ticker.spent if ticker is not None else 0.0)
    return seconds, rc, out.getvalue(), error


def run_pass(commands, oracle, main, tracer=None, failures=None):
    """Run every command once; return each command's seconds, the same
    scaled to the reference speed, and the number that failed.  Failures
    are appended to ``failures``.

    A full collection runs before each command, outside the timed call, so
    that every command starts with the same collector state whatever ran
    before it (without it, the first pass ran checks up to 25% faster than
    the later ones).  Then the probe runs, so each command is timed
    between two probes; untraced commands are also probed while they run
    (``Ticker``), while traced ones are not, so that no probe lands in a
    span's self time."""
    times, probes, during, failed = [], [], [], 0
    ticker = Ticker() if tracer is None else None
    for cmd in commands:
        gc.collect()
        probes.append(probe_s())
        if tracer is not None:
            tracer.begin_command()
            tracer.recording = True
        seconds, rc, stdout, error = run_command(main, cmd.argv, ticker)
        if tracer is not None:
            tracer.recording = False
        times.append(seconds)
        during.append(ticker.samples if ticker is not None else [])
        reason = error or oracle.verify(cmd, rc, stdout)
        if reason is not None:
            failed += 1
            if failures is not None:
                failures.append(f"{' '.join(cmd.argv)}: {reason}")
    gc.collect()
    probes.append(probe_s())
    return times, [scaled(t, [probes[i], *during[i], probes[i + 1]])
                   for i, t in enumerate(times)], failed


def timing_metrics(commands, passes) -> dict:
    """wall_s and the per-kind sums, each over every command's median time
    across passes."""
    per_command = [statistics.median(times[i] for times in passes)
                   for i in range(len(commands))]
    out = {"wall_s": sum(per_command)}
    for kind, metric in TIMED_KINDS.items():
        out[metric] = sum(t for cmd, t in zip(commands, per_command) if cmd.kind == kind)
    return out


def loop(commands, oracle, main, seconds, tracer=None, failures=None):
    """Passes while the next one is expected to end within ``seconds`` (at
    least one).  With a tracer, each untraced pass is followed by a traced
    one, so that both kinds see the same drift in machine speed.  Returns
    the untraced passes' (times, scaled times), the traced passes' (times,
    scaled times, per-layer metrics), the numbers of commands attempted and
    failed, and the peak RSS at the end of the first pass: later passes
    only add heap growth that varies from run to run (71.5 to 75 MiB on
    lattice), while one pass holds every command's peak."""
    start = perf_counter()
    untraced, traced = [], []
    attempted = failed = 0
    while True:
        begin = perf_counter()
        times, scaled_times, n_failed = run_pass(commands, oracle, main, failures=failures)
        untraced.append((times, scaled_times))
        if len(untraced) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed = attempted + len(commands), failed + n_failed
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                times, scaled_times, n_failed = run_pass(commands, oracle, main,
                                                         tracer, failures)
            finally:
                tracer.uninstall()
            traced.append((times, scaled_times, tracer.metrics()))
            attempted, failed = attempted + len(commands), failed + n_failed
        now = perf_counter()
        if now - start + (now - begin) > seconds:
            break
    return untraced, traced, attempted, failed, peak_rss_mb


# -- reporting ------------------------------------------------------------


def _git_sha() -> str:
    """HEAD's commit, read from the checkout's own .git ("unknown" when the
    checkout is not a repository); nothing above the checkout is read."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, load_at_start, inputs) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
    }


def measure(args, workdir: str) -> None:
    """Set up, run the closed loop, and print the report and the result."""
    import oracle as oracle_mod
    import spans
    import tambara.cli

    load_at_start = os.getloadavg()[0]
    setup_s, commands, inputs, reproducible, raw_setup_s = setup(args.workload, args.seed, workdir)
    failures: list = []
    if not reproducible:
        failures.append("set-up: the same seed wrote different input bytes")

    def main(argv):  # looked up per call, so the traced run reaches the span
        return tambara.cli.main(argv)

    tracer = spans.Tracer() if args.trace else None
    untraced, traced, attempted, failed, peak_rss_mb = loop(commands, oracle_mod.Oracle(), main,
                                               args.seconds, tracer, failures)
    timing = timing_metrics(commands, [s for _, s in untraced])
    if not args.trace:
        metrics = {"setup_s": setup_s, **timing}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = dict(END_TO_END)
        report = {"passes": len(untraced), "raw_setup_s": round(raw_setup_s, 4),
                  "pass_wall_s": [round(sum(times), 4) for times, _ in untraced],
                  "pass_scaled_wall_s": [round(sum(s), 4) for _, s in untraced]}
    else:
        layer = [m for _, _, m in traced]
        metrics = {name: statistics.median(m[name] for m in layer) for name, _ in spans.METRICS}
        traced_wall = timing_metrics(commands, [s for _, s, _ in traced])["wall_s"]
        metrics["trace.overhead_s"] = traced_wall - timing["wall_s"]
        metrics["trace.self_share"] = statistics.median(
            sum(m[f"{name}.self_s"] for name in spans.LAYERS) / sum(times)
            for times, _, m in traced)
        units = dict(spans.METRICS)
        units.update({"trace.overhead_s": "s", "trace.self_share": "ratio"})
        span_file = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(span_file)
        report = {"passes": len(traced), "untraced_wall_s": round(timing["wall_s"], 4),
                  "traced_wall_s": round(traced_wall, 4), "spans": len(tracer.spans),
                  "span_file": os.path.relpath(span_file, ROOT)}

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} fail_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} commands)")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print("run: " + json.dumps(report, sort_keys=True))
    print("provenance: " + json.dumps(provenance(args, load_at_start, inputs), sort_keys=True))
    result = {
        "correct": failed == 0 and reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tambara", "__init__.py")):
        print(f"error: no tambara package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
