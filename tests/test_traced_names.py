"""The benchmark's tracer (perfbench/spans.py) rebinds tambara functions by
name; a refactor that deletes or renames one must fail here, not in a
traced benchmark run."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _traced():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)  # spans imports workloads as a top-level module
        return importlib.import_module("spans").TRACED


TRACED = _traced()


@pytest.mark.parametrize("span, module, attr", TRACED, ids=[span for span, _, _ in TRACED])
def test_traced_name_resolves(span, module, attr):
    mod = importlib.import_module(f"tambara.{module}")
    owner, _, name = attr.rpartition(".")
    if owner:
        # the tracer rebinds methods on the class itself
        assert name in vars(getattr(mod, owner))
    else:
        assert callable(getattr(mod, name))
