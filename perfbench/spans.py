"""Outside-in spans around the public functions of each ``tambara`` module.

Nothing in the package is edited: ``Tracer.install`` rebinds each traced
name to a timing wrapper, in its defining module, in every ``tambara``
module that imported it by name (``cli.check_axioms``,
``decompose.coinduce``, ...), and on the class for methods and
constructors.  ``uninstall`` puts the originals back.

A span is ``(id, name, start, end, parent id, command id)``; its self time
is its duration minus the time covered by its direct child spans.  Spans
are kept in memory and written out once, by ``write_jsonl``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from workloads import FAMILIES

# (span name, module, attribute); "Class.method" rebinds a method, and a
# bare class name times its constructor (``__init__``).
TRACED: List[Tuple[str, str, str]] = [
    ("groups.FiniteGroup", "groups", "FiniteGroup.__init__"),
    ("groups.subgroups", "groups", "subgroups"),
    ("groups.double_cosets", "groups", "double_cosets"),
    ("groups.upward_closure", "groups", "upward_closure"),
    ("groups.is_subconjugate", "groups", "is_subconjugate"),
    ("groups.weyl_group", "groups", "weyl_group"),
    ("gsets.GSet", "gsets", "GSet.__init__"),
    ("gsets.GSetMap", "gsets", "GSetMap.__init__"),
    ("gsets.coset_gset", "gsets", "coset_gset"),
    ("gsets.pullback", "gsets", "pullback"),
    ("gsets.dependent_product", "gsets", "dependent_product"),
    ("gsets.orbit_decomposition", "gsets", "orbit_decomposition"),
    ("gsets.disjoint_union", "gsets", "disjoint_union"),
    ("rings.FiniteRing", "rings", "FiniteRing.__init__"),
    ("rings.GRing", "rings", "GRing.__init__"),
    ("rings.fq", "rings", "fq"),
    ("rings.zn", "rings", "zn"),
    ("rings.product_ring", "rings", "product_ring"),
    ("rings.coinduce_gring", "rings", "coinduce_gring"),
    ("rings.decompose_gring", "rings", "decompose_gring"),
    ("rings.idempotents", "rings", "idempotents"),
    ("rings.classify_idempotent", "rings", "classify_idempotent"),
    ("rings.is_clarified", "rings", "is_clarified"),
    ("functors.check_axioms", "functors", "check_axioms"),
    ("functors.eval_along", "functors", "eval_along"),
    ("functors.EvalMap.apply_batch", "functors", "EvalMap.apply_batch"),
    ("functors.coinduce", "functors", "coinduce"),
    ("functors.product", "functors", "product"),
    ("functors.restrict", "functors", "restrict"),
    ("functors.fixed_point_functor", "functors", "fixed_point_functor"),
    ("functors.functor_isomorphism", "functors", "functor_isomorphism"),
    ("functors.TambaraMorphism.validate", "functors", "TambaraMorphism.validate"),
    ("functors.TambaraData.bottom_gring", "functors", "TambaraData.bottom_gring"),
    ("burnside.burnside_mod", "_burnside", "burnside_mod"),
    ("search.find_isomorphism", "_search", "find_isomorphism"),
    ("decompose.full_decomposition", "decompose", "full_decomposition"),
    ("decompose.split_by_bottom_idempotents", "decompose", "split_by_bottom_idempotents"),
    ("decompose.detect_coinduction", "decompose", "detect_coinduction"),
    ("decompose.clarify", "decompose", "clarify"),
    ("serialize.load_functor", "serialize", "load_functor"),
    ("serialize.parse_functor_body", "serialize", "parse_functor_body"),
    ("serialize.functor_to_json", "serialize", "functor_to_json"),
    ("serialize.dump_functor", "serialize", "dump_functor"),
    ("cli.main", "cli", "main"),
]

LAYERS = ["groups", "gsets", "rings", "functors", "burnside", "search",
          "decompose", "serialize", "cli"]

# Per-layer metrics of one pass, in the order they are reported.
METRICS: List[Tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("groups.calls", "count"),
        ("gsets.gset_built", "count"),
        ("gsets.gset_points", "count"),
        ("gsets.map_built", "count"),
        ("gsets.dependent_product_s", "s"),
        ("gsets.coset_gset_calls", "count"),
        ("gsets.coset_gset_distinct_ratio", "ratio"),
        ("rings.ring_built", "count"),
        ("rings.ring_elements", "count"),
        ("rings.gring_built", "count"),
        ("rings.product_ring_s", "s"),
        ("rings.decompose_gring_s", "s"),
        ("functors.check_axioms_s", "s"),
        ("functors.eval_along_calls", "count"),
        ("functors.apply_batch_s", "s"),
        ("functors.apply_batch_rows", "count"),
        ("functors.morphism_validate_s", "s"),
        ("functors.bottom_gring_calls", "count"),
        ("functors.bottom_gring_distinct_ratio", "ratio"),
    ]
    + [(f"functors.identities.{fam}", "count") for fam in FAMILIES]
    + [
        ("burnside.calls", "count"),
        ("burnside.level_elements", "count"),
        ("search.calls", "count"),
        ("decompose.split_s", "s"),
        ("decompose.detect_coinduction_s", "s"),
        ("decompose.factors", "count"),
        ("serialize.load_s", "s"),
        ("serialize.dump_s", "s"),
        ("serialize.bytes_read", "count"),
        ("cli.bytes_written", "count"),
    ]
)

# metric name -> span whose summed self time it reports
SELF_TIME_OF = {
    "gsets.dependent_product_s": "gsets.dependent_product",
    "rings.product_ring_s": "rings.product_ring",
    "rings.decompose_gring_s": "rings.decompose_gring",
    "functors.check_axioms_s": "functors.check_axioms",
    "functors.apply_batch_s": "functors.EvalMap.apply_batch",
    "functors.morphism_validate_s": "functors.TambaraMorphism.validate",
    "decompose.split_s": "decompose.split_by_bottom_idempotents",
    "decompose.detect_coinduction_s": "decompose.detect_coinduction",
    "serialize.load_s": "serialize.load_functor",
    "serialize.dump_s": "serialize.dump_functor",
}
# metric name -> span whose number of calls it reports
CALLS_OF = {
    "gsets.gset_built": "gsets.GSet",
    "gsets.map_built": "gsets.GSetMap",
    "gsets.coset_gset_calls": "gsets.coset_gset",
    "rings.ring_built": "rings.FiniteRing",
    "rings.gring_built": "rings.GRing",
    "functors.eval_along_calls": "functors.eval_along",
    "functors.bottom_gring_calls": "functors.TambaraData.bottom_gring",
    "burnside.calls": "burnside.burnside_mod",
    "search.calls": "search.find_isomorphism",
}


def _out_path(argv) -> Optional[str]:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


class Tracer:
    """Span recorder.  ``install`` puts the wrappers in place; they record
    only while ``recording`` is true, so answer checks between commands
    leave no spans."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.command = 0
        self.recording = False
        self._next_id = 0
        self._stack: List[list] = []   # [span id, time covered by children]
        self._saved: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Clear the per-pass aggregates (the span log is kept)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._coset_keys: set = set()
        self._bottom_keys: set = set()
        self._alive: list = []

    def begin_command(self) -> None:
        """Spans recorded from now on carry a new command id."""
        self.command += 1
        self._alive = []   # objects keyed by id() stay alive within a command

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              after: Optional[Callable]) -> Callable:
        stack, spans, tracer = self._stack, self.spans, self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.self_s[name] += end - start - frame[1]
                tracer.calls[name] += 1
                spans.append((sid, name, start, end, parent, tracer.command))
            if after is not None:
                # the counting hook is the tracer's own work: keep it out of
                # the enclosing span's self time
                t = perf_counter()
                after(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - t
            return result

        return span

    def _hooks(self) -> Dict[str, Callable]:
        def count(name, n):
            self.counts[name] += n

        def gset_built(args, result):
            count("gsets.gset_points", args[0].size)

        def ring_built(args, result):
            count("rings.ring_elements", args[0].size)

        def coset_gset(args, result):
            G, H = args[0], args[1]
            self._alive.append(G)
            self._coset_keys.add((self.command, id(G), H.elements))

        def bottom_gring(args, result):
            self._alive.append(args[0])
            self._bottom_keys.add((self.command, id(args[0])))

        def apply_batch(args, result):
            count("functors.apply_batch_rows", int(args[1].shape[0]))

        def check_axioms(args, report):
            for fam, n in report.checked.items():
                count(f"functors.identities.{fam}", n)

        def burnside_mod(args, T):
            count("burnside.level_elements", sum(R.size for R in T.levels.values()))

        def full_decomposition(args, dec):
            count("decompose.factors", len(dec.factors))

        def load_functor(args, result):
            count("serialize.bytes_read", os.path.getsize(args[0]))

        def cli_main(args, rc):
            out = _out_path(args[0])
            if out is not None and os.path.exists(out):
                count("cli.bytes_written", os.path.getsize(out))

        return {
            "gsets.GSet": gset_built,
            "rings.FiniteRing": ring_built,
            "gsets.coset_gset": coset_gset,
            "functors.TambaraData.bottom_gring": bottom_gring,
            "functors.EvalMap.apply_batch": apply_batch,
            "functors.check_axioms": check_axioms,
            "burnside.burnside_mod": burnside_mod,
            "decompose.full_decomposition": full_decomposition,
            "serialize.load_functor": load_functor,
            "cli.main": cli_main,
        }

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        import tambara.cli  # noqa: F401  (loads every traced module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tambara" or name.startswith("tambara."))]
        hooks = self._hooks()
        for span_name, module_name, attr in TRACED:
            module = sys.modules[f"tambara.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span_name, orig, hooks.get(span_name)))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(span_name, orig, hooks.get(span_name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []

    # -- reporting -----------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics accumulated since the last ``reset``."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_s.items() if name.split(".")[0] == layer)
        out["groups.calls"] = sum(
            n for name, n in self.calls.items() if name.startswith("groups."))
        for metric, span in SELF_TIME_OF.items():
            out[metric] = self.self_s.get(span, 0.0)
        for metric, span in CALLS_OF.items():
            out[metric] = self.calls.get(span, 0)
        coset_calls = self.calls.get("gsets.coset_gset", 0)
        out["gsets.coset_gset_distinct_ratio"] = (
            len(self._coset_keys) / coset_calls if coset_calls else 1.0)
        bottom_calls = self.calls.get("functors.TambaraData.bottom_gring", 0)
        out["functors.bottom_gring_distinct_ratio"] = (
            len(self._bottom_keys) / bottom_calls if bottom_calls else 1.0)
        for metric, _ in METRICS:
            if metric not in out:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, command in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "command": command}) + "\n")
