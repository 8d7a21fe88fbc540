"""Write one workload's definition files and command list.

    python3 perfbench/generate.py WORKLOAD SEED DIR

Run as its own process, so that the set-up time it prints covers the
cold import of ``tambara``, and so that the memory generation
takes stays out of the measuring process's peak RSS.  Prints one JSON
object: ``setup_s`` (import plus generation, scaled to the reference
speed of ``speed.py`` by probes taken in this process before, during and
after), ``raw_setup_s`` (the same unscaled) and the command list, with
each expected conjugacy class as a list of element lists.
"""

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import speed  # noqa: E402  (pure Python: imports nothing that is timed)

before = speed.probe_s()
ticker = speed.Ticker()
ticker.start()
t0 = perf_counter()

import tambara.cli  # noqa: E402,F401  (the import a CLI user pays)

import workloads  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    try:
        os.makedirs(workdir, exist_ok=True)
        files, commands = workloads.generate(workload, seed, workdir)
    finally:
        ticker.stop()
    raw_setup_s = perf_counter() - t0 - ticker.spent
    setup_s = speed.scaled(raw_setup_s, [before, *ticker.samples, speed.probe_s()])
    out = []
    for c in commands:
        expect = dict(c.expect)
        if "classes" in expect:
            expect["classes"] = [sorted(map(sorted, cls)) for cls in expect["classes"]]
        out.append({"kind": c.kind, "argv": c.argv, "expect": expect})
    print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s,
                      "files": files, "commands": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
