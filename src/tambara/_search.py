"""Backtracking homomorphism/isomorphism search over finite op-structures.

An OpStructure is a multi-sorted finite algebra: sorts with sizes, named
constants, unary and binary operation tables.  Rings, rings with group
action, and whole Tambara functors (levels as sorts, structure maps as
unary ops) all fit this shape, so one engine serves every search in the
toolkit.

The search picks a generating sequence for the source by closure from the
constants, then backtracks over images of the generators, replaying the
closure in the target and failing on the first inconsistency.  The node
budget bounds the number of candidate assignments tried; exceeding it
raises SearchTimeout, which callers must treat as distinct from "none".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import SearchTimeout

DEFAULT_BUDGET = 10 ** 6


@dataclass
class OpStructure:
    """A finite multi-sorted algebra with named operations."""

    sorts: Dict[object, int]
    constants: List[Tuple[object, object, int]] = field(default_factory=list)
    # (name, sort, index)
    unary: List[Tuple[object, object, object, np.ndarray]] = field(default_factory=list)
    # (name, src_sort, dst_sort, table): an int array, one entry per element
    binary: List[Tuple[object, object, np.ndarray]] = field(default_factory=list)
    # (name, sort, table): a square int array -- operations within one sort

    def signature(self):
        # ops must align positionally between the two structures, so the
        # signature is order-sensitive; build both sides with the same code.
        # sorts are compared by name only: sizes differ for non-isomorphisms
        return (
            sorted(self.sorts, key=repr),
            [(c[0], c[1]) for c in self.constants],
            [(u[0], u[1], u[2]) for u in self.unary],
            [(b[0], b[1]) for b in self.binary],
        )


@dataclass(frozen=True)
class _Step:
    kind: str                       # "const" | "gen" | "unary" | "binary"
    sort: object
    index: int                      # element index in the source
    op: object = None               # op position for unary/binary
    args: Tuple[int, ...] = ()      # positions of earlier steps


def _build_steps(A: OpStructure) -> Tuple[List[_Step], List[int]]:
    """Closure of the constants under all ops, extending with greedily chosen
    generators until every element of every sort is produced.

    The closure runs in rounds, each scanning every unary op and then every
    binary op in list order, until a round produces nothing; a scan emits
    each element not yet produced at the first source element, or pair in
    row-major order, of the elements produced when it starts (README, "The
    isomorphism search in arrays").  A unary op only scans the elements
    produced since its last scan, because it has already produced the images
    of the others, and a binary op is skipped when its sort has gained
    nothing since its last scan.

    Returns (steps, generator_positions)."""
    steps: List[_Step] = []
    gens: List[int] = []
    # per sort: each element's step position (-1 until produced) and the
    # produced elements in emit order
    position = {s: [-1] * n for s, n in A.sorts.items()}
    order: Dict[object, List[int]] = {s: [] for s in A.sorts}

    def emit(step: _Step) -> None:
        if position[step.sort][step.index] < 0:
            position[step.sort][step.index] = len(steps)
            order[step.sort].append(step.index)
            steps.append(step)

    for name, sort, idx in A.constants:
        emit(_Step("const", sort, idx, op=name))

    unary_tables = [table.tolist() for *_, table in A.unary]
    unary_seen = [0] * len(A.unary)    # source elements scanned per op
    binary_seen = [0] * len(A.binary)  # size of the sort at the last scan

    def close() -> None:
        changed = True
        while changed:
            before = len(steps)
            for ui, (_, ssort, dsort, _) in enumerate(A.unary):
                table, src, dst = unary_tables[ui], position[ssort], position[dsort]
                new = order[ssort][unary_seen[ui]:]
                unary_seen[ui] += len(new)
                for x in new:
                    if dst[table[x]] < 0:
                        emit(_Step("unary", dsort, table[x], op=ui, args=(src[x],)))
            for bi, (_, sort, table) in enumerate(A.binary):
                pos, items = position[sort], order[sort][:]
                m = len(items)
                if m == binary_seen[bi]:
                    continue
                binary_seen[bi] = m
                idx = np.asarray(items)
                vals = np.take(table, idx[:, None] * table.shape[1] + idx).ravel()
                fresh = np.flatnonzero(np.asarray(pos)[vals] < 0)
                if not fresh.size:
                    continue
                # each value's first row-major pair, in row-major order
                _, first = np.unique(vals[fresh], return_index=True)
                for f in np.sort(fresh[first]).tolist():
                    r, c = divmod(f, m)
                    emit(_Step("binary", sort, int(vals[f]), op=bi,
                               args=(pos[items[r]], pos[items[c]])))
            changed = len(steps) > before

    close()
    for sort in sorted(A.sorts, key=repr):
        while len(order[sort]) < A.sorts[sort]:
            gens.append(len(steps))
            emit(_Step("gen", sort, position[sort].index(-1)))
            close()
    return steps, gens


class _Target:
    """The target structure as the replay reads it, listed once per search:
    constants by (name, sort) and every table as nested Python lists."""

    def __init__(self, B: OpStructure) -> None:
        self.constants = {(name, sort): idx for name, sort, idx in B.constants}
        self.unary = [table.tolist() for *_, table in B.unary]
        self.binary = [table.tolist() for *_, table in B.binary]


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SearchTimeout(f"search exceeded {self.limit} nodes")


def search_homomorphisms(A: OpStructure, B: OpStructure, *, injective: bool,
                         budget: int = DEFAULT_BUDGET,
                         limit: Optional[int] = None) -> Iterator[Dict[object, List[int]]]:
    """Yield structure-preserving maps A -> B as {sort: image list}.

    With injective=True and equal sort sizes this searches isomorphisms.
    Raises SearchTimeout when the node budget is exhausted.

    The partial map is kept across depths: each candidate for generator k
    replays only the steps from that generator to the next (from step 0 at
    depth 0) and then undoes them (README, "The isomorphism search in
    arrays").
    """
    if A.signature() != B.signature():
        return
    if injective and any(A.sorts[s] > B.sorts[s] for s in A.sorts):
        return
    steps, gens = _build_steps(A)
    target = _Target(B)
    bud = _Budget(budget)
    found = [0]
    ends = gens[1:] + [len(steps)]
    # each sort's images (-1 until assigned) and, per target element,
    # whether an image is on it, which the injective test reads
    image = {s: [-1] * n for s, n in A.sorts.items()}
    used = {s: [False] * B.sorts[s] for s in A.sorts}

    def extend(lo: int, hi: int, gen_image: int) -> int:
        """Replay steps[lo:hi] in B onto the partial map.  Returns hi, or
        the position of the first step whose image is already used."""
        for pos in range(lo, hi):
            step = steps[pos]
            if step.kind == "const":
                dst = target.constants[(step.op, step.sort)]
            elif step.kind == "gen":
                dst = gen_image
            elif step.kind == "unary":
                a = steps[step.args[0]]
                dst = target.unary[step.op][image[a.sort][a.index]]
            else:
                a, b = steps[step.args[0]], steps[step.args[1]]
                dst = target.binary[step.op][image[a.sort][a.index]][image[b.sort][b.index]]
            if injective and used[step.sort][dst]:
                return pos
            image[step.sort][step.index] = dst
            used[step.sort][dst] = True
        return hi

    def undo(lo: int, hi: int) -> None:
        # each step assigns a different element, so the steps replayed are
        # the trail of assignments to take back
        for step in steps[lo:hi]:
            used[step.sort][image[step.sort][step.index]] = False
            image[step.sort][step.index] = -1

    def rec(k: int) -> Iterator[Dict[object, List[int]]]:
        if limit is not None and found[0] >= limit:
            return
        if k == len(gens):
            # the replay only pins the spanning derivations; verify the
            # map against every op table before accepting it
            if _is_full_hom(A, B, image):
                found[0] += 1
                yield {s: list(images) for s, images in image.items()}
            return
        lo, hi = (gens[k] if k else 0), ends[k]
        for cand in range(B.sorts[steps[gens[k]].sort]):
            bud.spend()
            done = extend(lo, hi, cand)
            if done == hi:
                yield from rec(k + 1)
            undo(lo, done)
            if limit is not None and found[0] >= limit:
                return

    if gens or extend(0, len(steps), -1) == len(steps):
        yield from rec(0)


def _is_full_hom(A: OpStructure, B: OpStructure, out: Dict[object, List[int]]) -> bool:
    # the replay produces each source element once, so a constant whose
    # element an earlier constant produced was never compared with B's
    for (_, sort, a), (*_, b) in zip(A.constants, B.constants):
        if out[sort][a] != b:
            return False
    img = {sort: np.asarray(images) for sort, images in out.items()}
    for (_, ssort, dsort, at), (*_, bt) in zip(A.unary, B.unary):
        if not np.array_equal(img[dsort][at], bt[img[ssort]]):
            return False
    for (_, sort, at), (*_, bt) in zip(A.binary, B.binary):
        i = img[sort]
        if not np.array_equal(i[at], np.take(bt, i[:, None] * bt.shape[1] + i)):
            return False
    return True


def find_isomorphism(A: OpStructure, B: OpStructure,
                     budget: int = DEFAULT_BUDGET) -> Optional[Dict[object, List[int]]]:
    if any(A.sorts.get(s) != B.sorts.get(s) for s in set(A.sorts) | set(B.sorts)):
        return None
    for image in search_homomorphisms(A, B, injective=True, budget=budget, limit=1):
        return image
    return None
