"""Answer checks for the benchmark's commands, run outside the timed calls.

``verify`` returns None when a command's exit code, stdout and output file
are the expected answer, and a one-line reason otherwise.  Decomposition
and isomorphism witnesses are re-validated through ``TambaraMorphism``
against the inputs loaded by the program's own loader.  Output bytes are
not compared across commits: a correct change may pick other
representatives.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Dict, Optional, Tuple

from workloads import Command, conjugacy_class

_FAMILY_LINE = re.compile(r"^  (\w+): (\d+) identities, (ok|\d+\+ failures)$")
_FACTOR_LINE = re.compile(r"^factor: H=(H\d+) \(order \d+\), level sizes \[[\d, ]*\]$")
_LEVEL_LINE = re.compile(r"^level (H\d+) \(order \d+\): .*, (\d+) elements$")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Oracle:
    """Checks answers.  It caches every verdict, keyed by the command, its
    exit code and the digests of what it printed and of every file it
    names, so a repeated identical answer is not re-checked.  Loaded inputs
    are not kept, so the oracle adds no lasting memory to the run's peak."""

    def __init__(self) -> None:
        self._verdicts: Dict[Tuple, Optional[str]] = {}

    def verify(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        key = (tuple(cmd.argv), rc, hashlib.sha256(stdout.encode()).hexdigest(),
               tuple(_digest(a) if os.path.isfile(a) else "" for a in cmd.argv))
        if key not in self._verdicts:
            check = getattr(self, f"_{cmd.kind}")
            try:
                self._verdicts[key] = check(cmd, rc, stdout)
            except Exception as exc:  # a malformed answer is a wrong answer
                self._verdicts[key] = f"unreadable answer: {exc!r}"
        return self._verdicts[key]

    # -- inputs ----------------------------------------------------------

    @staticmethod
    def _load(path: str):
        from tambara import serialize

        return serialize.load_functor(path)

    @staticmethod
    def _over(doc: dict, T):
        """The functor of doc read over T's group object (tables must agree)."""
        from tambara import serialize

        if [list(r) for r in T.group.mul_table] != doc["group"]["table"]:
            raise ValueError("output lives over another group table")
        return serialize.parse_functor_body(doc, T.group)

    @staticmethod
    def _maps(G, witness: dict) -> dict:
        from tambara import serialize

        return {serialize.resolve_subgroup(G, k): v for k, v in witness.items()}

    @staticmethod
    def _sizes(T) -> list:
        from tambara.groups import subgroups

        return [T.levels[H].size for H in subgroups(T.group)]

    # -- one check per command kind ----------------------------------------

    def _check(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        exp = cmd.expect
        lines = stdout.splitlines()
        status = "FAIL" if exp["family"] else "PASS"
        want_rc = 2 if exp["family"] else 0
        if rc != want_rc or not lines or lines[0] != f"axiom check: {status}":
            return f"expected {status} with exit {want_rc}, got exit {rc}"
        counts, failing = {}, set()
        for line in lines[1:]:
            m = _FAMILY_LINE.match(line)
            if m:
                counts[m.group(1)] = int(m.group(2))
                if m.group(3) != "ok":
                    failing.add(m.group(1))
        if sorted(failing) != exp["failing"]:
            return f"failing families {sorted(failing)}, expected {exp['failing']}"
        if exp["family"] and f"[{exp['family']}]" not in stdout:
            return f"no failure reported for {exp['family']}"
        if exp["counts"] is not None and counts != exp["counts"]:
            return f"identity counts {counts}, expected {exp['counts']}"
        return None

    def _sizes_differ(self, cmd: Command, out, embed=None) -> Optional[str]:
        """Compare out's level sizes, keyed by subgroup elements (through
        embed when out lives over a subgroup), with the expected ones."""
        got = sorted([[embed[x] for x in H.elements] if embed else list(H.elements), R.size]
                     for H, R in out.levels.items())
        want = sorted(cmd.expect["sizes"])
        return None if got == want else f"level sizes {got}, expected {want}"

    def _restrict(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        from tambara import serialize

        if rc != 0:
            return f"restrict exited {rc}"
        T = self._load(cmd.argv[1])
        K = serialize.resolve_subgroup(T.group, cmd.argv[3])
        return self._sizes_differ(cmd, self._load(cmd.expect["out"]), K.elements)

    def _coinduce(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        if rc != 0:
            return f"coinduce exited {rc}"
        return self._sizes_differ(cmd, self._load(cmd.expect["out"]))

    def _clarified(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        from tambara.functors import TambaraMorphism

        T = self._load(cmd.argv[1])
        with open(cmd.expect["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        C = self._over(doc, T)
        wrong = self._sizes_differ(cmd, C)
        if wrong:
            return wrong
        proj = TambaraMorphism(T, C, self._maps(T.group, doc["witness"]))
        if any(len(set(v.tolist())) != C.levels[K].size for K, v in proj.maps.items()):
            return "clarification witness is not levelwise onto"
        return None

    def _decompose(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        from tambara import serialize
        from tambara.functors import TambaraMorphism

        if rc != 0:
            return f"decompose exited {rc}"
        if "--lambda" in cmd.argv:
            return self._clarified(cmd, rc, stdout)
        T = self._load(cmd.argv[1])
        with open(cmd.expect["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        D = self._over(doc, T)
        G = T.group
        printed = [m.group(1) for m in map(_FACTOR_LINE.match, stdout.splitlines()) if m]
        if printed != doc["factors"]:
            return f"printed factors {printed} differ from the file's {doc['factors']}"
        table = [list(r) for r in G.mul_table]
        classes = [conjugacy_class(table, H.elements) for H in self._maps(G, doc["witness"])
                   if serialize.subgroup_id(G, H) in doc["factors"]]
        if len(set(classes)) != len(classes) or set(classes) != set(cmd.expect["classes"]):
            return "factor classes differ from the classes the input was built from"
        if self._sizes(D) != self._sizes(T):
            return f"output level sizes {self._sizes(D)}, input {self._sizes(T)}"
        w = TambaraMorphism(D, T, self._maps(G, doc["witness"]))
        if not w.is_isomorphism():
            return "decomposition witness is not a levelwise bijection"
        return None

    def _iso(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        from tambara.functors import TambaraMorphism

        if rc != 0:
            return f"iso exited {rc}"
        lines = stdout.splitlines()
        if not cmd.expect["iso"]:
            return None if lines == ["not isomorphic"] else f"expected 'not isomorphic', got {lines[:1]}"
        if not lines or lines[0] != "isomorphic; witness:":
            return f"expected an isomorphism, got {lines[:1]}"
        T1 = self._load(cmd.argv[1])
        with open(cmd.argv[2], encoding="utf-8") as fh:
            T2 = self._over(json.load(fh), T1)
        witness = {}
        for line in lines[1:]:
            key, _, values = line.strip().partition(": ")
            witness[key] = json.loads(values)
        w = TambaraMorphism(T1, T2, self._maps(T1.group, witness))
        return None if w.is_isomorphism() else "iso witness is not a levelwise bijection"

    def _lewis(self, cmd: Command, rc: int, stdout: str) -> Optional[str]:
        from tambara import serialize

        if rc != 0:
            return f"lewis exited {rc}"
        T = self._load(cmd.argv[1])
        printed = {m.group(1): int(m.group(2))
                   for m in map(_LEVEL_LINE.match, stdout.splitlines()) if m}
        expected = {serialize.subgroup_id(T.group, H): R.size for H, R in T.levels.items()}
        return None if printed == expected else f"lewis levels {printed}, expected {expected}"
