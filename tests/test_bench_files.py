"""Every committed BENCH_<n>.json reports medians of the benchmark's own
workloads and end-to-end metrics, as numbers."""

import glob
import json
import numbers
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]} | {"fail_frac"}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_medians(path):
    with open(path, encoding="utf-8") as fh:
        medians = json.load(fh)["medians"]
    assert medians
    for workload, metrics in medians.items():
        assert workload in WORKLOADS
        for metric, values in metrics.items():
            assert metric in METRICS, (workload, metric)
            for side in ("parent", "change"):
                value = values[side]
                assert isinstance(value, numbers.Real) and not isinstance(value, bool), \
                    (workload, metric, side)
