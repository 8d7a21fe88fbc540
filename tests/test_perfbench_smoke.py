"""The benchmark's smoke check (perfbench/smoke.py) runs the runner at
reduced size and checks its report against BENCHMARK.json; a change to the
package that breaks the benchmark must fail here, not in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
