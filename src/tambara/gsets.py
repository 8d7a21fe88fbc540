"""Finite G-sets and equivariant maps.

A G-set is an action array over a FiniteGroup; points are 0-based indices.
This module supplies orbit decomposition, pullbacks, and the dependent
product along a map (sections over fibers) with its exponential diagram,
read off the fibers over the bases of the target's orbits as orbit records;
no point-level Pi_f A is built.  G-sets and maps are validated on
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product as iproduct
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DefinitionError, SizeLimitExceeded
from .groups import FiniteGroup, Subgroup, subgroups

SECTION_CAP = 4096


class GSet:
    """A finite G-set: action[g, x] is the point g.x, stored as one
    read-only (|G|, n) int32 array and validated on construction, at the
    generators of G (FiniteGroup.action_failure)."""

    def __init__(self, group: FiniteGroup, action: Sequence[Sequence[int]]) -> None:
        self.group = group
        if len(action) != group.order:
            raise DefinitionError("need one action row per group element")
        try:
            self.action = np.array(action, dtype=np.int32)
            if self.action.ndim != 2:
                raise ValueError("not two-dimensional")
        except (ValueError, OverflowError):
            raise DefinitionError("action table is not a rectangle of integers") from None
        self.action.flags.writeable = False
        self.size = self.action.shape[1]
        bad = group.action_failure(self.action)
        if bad is not None:
            raise DefinitionError("action not a homomorphism at g={}, h={}, x={}".format(*bad))
        self._orbits: Optional[Tuple["Orbit", ...]] = None
        self._orbit_of: Tuple[int, ...] = ()
        self._carrier: Tuple[int, ...] = ()
        self._restrictions: Dict[Subgroup, "GSet"] = {}

    def act(self, g: int, x: int) -> int:
        return int(self.action[g, x])

    def stabilizer(self, x: int) -> Subgroup:
        return _fixers(self.group, self.action[:, [x]] == x)[0]

    @property
    def orbit_of(self) -> Tuple[int, ...]:
        """orbit_of[x] is the index of x's orbit in orbit_decomposition."""
        if self._orbits is None:
            orbit_decomposition(self)
        return self._orbit_of

    @property
    def carrier(self) -> Tuple[int, ...]:
        """carrier[x] is the least g with g.base = x, base the minimal
        point of x's orbit."""
        if self._orbits is None:
            orbit_decomposition(self)
        return self._carrier

    def restricted(self, H: Subgroup) -> "GSet":
        """This G-set as an H.as_group-set; built once per subgroup."""
        if H not in self._restrictions:
            Hg, embed = H.as_group
            self._restrictions[H] = GSet(Hg, self.action[list(embed)])
        return self._restrictions[H]

    def __repr__(self) -> str:
        return f"GSet({self.group.name}, {self.size} points)"


@dataclass(frozen=True)
class GSetMap:
    """An equivariant map, stored as images[x] in the target."""

    source: GSet
    target: GSet
    images: Tuple[int, ...]

    def __post_init__(self):
        if self.source.group is not self.target.group:
            raise DefinitionError("source and target live over different groups")
        if len(self.images) != self.source.size:
            raise DefinitionError("image table has wrong length")
        img = np.asarray(self.images, dtype=np.int64)
        if img.size and (img.min() < 0 or img.max() >= self.target.size):
            raise DefinitionError("image outside the target")
        # at the generators S of G suffices: both ends are G-sets, so every
        # action row is a composite of rows of S (FiniteGroup.action_failure)
        for s in self.source.group.generators:
            bad = img[self.source.action[s]] != self.target.action[s][img]
            if bad.any():
                raise DefinitionError(f"map not equivariant at g={s}, x={int(np.argmax(bad))}")

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "GSetMap") -> "GSetMap":
        """self after other."""
        if other.target is not self.source and not np.array_equal(
                other.target.action, self.source.action):
            raise DefinitionError("composition mismatch")
        return GSetMap(other.source, self.target,
                       tuple(self.images[y] for y in other.images))


def coset_gset(G: FiniteGroup, H: Subgroup) -> GSet:
    """The transitive G-set G/H; point i is the coset H.left_cosets()[i],
    so point 0 is the identity coset.  Built once per subgroup and shared."""
    if H.parent is not G:
        raise DefinitionError("H must be a subgroup of G")
    return H.coset_gset


def disjoint_union(parts: Sequence[GSet]) -> Tuple[GSet, List[Tuple[int, int]]]:
    """Union of G-sets; returns (X, offsets) with offsets[i] = (start, size)."""
    if not parts:
        raise DefinitionError("need at least one part")
    G = parts[0].group
    offsets = []
    start = 0
    for p in parts:
        if p.group is not G:
            raise DefinitionError("parts live over different groups")
        offsets.append((start, p.size))
        start += p.size
    action = np.concatenate([p.action + off for (off, _), p in zip(offsets, parts)], axis=1)
    return GSet(G, action), offsets


@dataclass(frozen=True)
class Orbit:
    """One orbit: sorted points, base point (minimal) and its stabilizer."""

    points: Tuple[int, ...]
    base: int
    stabilizer: Subgroup


def orbit_decomposition(X: GSet) -> Tuple[Orbit, ...]:
    """Orbits in increasing order of their minimal point.

    Each orbit carries the stabilizer of its minimal point.  The same pass
    records X.orbit_of and X.carrier; together they give the equivariant
    bijection with the coset G-set of the stabilizer (point g.base <->
    coset g.Stab).  Computed once per G-set.
    """
    if X._orbits is not None:
        return X._orbits
    orbit_of = [-1] * X.size
    carrier = [0] * X.size
    found = []
    for x in range(X.size):
        if orbit_of[x] >= 0:
            continue
        pts = []
        for g, y in enumerate(X.action[:, x].tolist()):  # increasing g keeps
            if orbit_of[y] < 0:                          # the least carrier
                orbit_of[y] = len(found)
                carrier[y] = g
                pts.append(y)
        found.append((tuple(sorted(pts)), x))
    X._orbit_of, X._carrier = tuple(orbit_of), tuple(carrier)
    bases = [x for _, x in found]
    X._orbits = tuple(Orbit(points=pts, base=x, stabilizer=stab)
                      for (pts, x), stab in zip(found, _fixers(X.group, X.action[:, bases] == bases)))
    return X._orbits


def _fixers(G: FiniteGroup, fixed: np.ndarray) -> List[Subgroup]:
    """The subgroup {g : fixed[g, i]} for each column i of a (|G|, n) bool
    array, each read by its element mask."""
    subs = subgroups(G)
    masks = fixed.T @ (1 << np.arange(G.order, dtype=np.int64))
    return [subs[G.lattice_position(m)] for m in masks.tolist()]


def pullback(f: GSetMap, g: GSetMap) -> Tuple[GSet, GSetMap, GSetMap]:
    """The fiber product {(x,z) : f(x) = g(z)} with its two projections."""
    if f.target is not g.target:
        raise DefinitionError("pullback needs a common target")
    X, Z = f.source, g.source
    # the pairs in lexicographic order, and each pair's point number
    xs, zs = np.nonzero(np.asarray(f.images)[:, None] == np.asarray(g.images)[None, :])
    index = np.zeros((X.size, Z.size), dtype=np.int32)
    index[xs, zs] = np.arange(len(xs))
    P = GSet(X.group, index[X.action[:, xs], Z.action[:, zs]])
    p1 = GSetMap(P, X, tuple(xs.tolist()))
    p2 = GSetMap(P, Z, tuple(zs.tolist()))
    return P, p1, p2


class SectionOrbit(NamedTuple):
    """An orbit of Pi_f A: its base (y, sigma), y being the base of the
    orbit of Y below it, and the base's stabilizer."""

    base: int
    y: int
    stabilizer: Subgroup


class ExponentialDiagram:
    """The five-object diagram generated by f : X -> Y and p : A -> X, as
    dependent_product reads it, by its orbit records only.  pi = Pi_f A
    has size points (y, sigma), numbered offset[y] + sum over x in f^-1(y)
    of rank[sigma(x)] * weight[x] (README, "Π_f A from the fibers over Y's
    orbit bases").  orbits[j] is a SectionOrbit with base base_j = (y_j,
    sigma_j); moves[j, g] = g.base_j and base_sections[j, x] = sigma_j(x) on
    f^-1(y_j), A.size elsewhere, in int32.  Neither pi nor the pullback
    corner X x_Y pi is written out: the test reference
    reference_dependent_product builds them point by point."""

    def __init__(self, f: GSetMap, p: GSetMap) -> None:
        if p.target is not f.source:
            raise DefinitionError("p must target the source of f")
        self.f, self.p = f, p
        X, Y, A, G = f.source, f.target, p.source, f.source.group
        self._lifts: List[List[int]] = [[] for _ in range(X.size)]
        self._fibers: List[List[int]] = [[] for _ in range(Y.size)]
        for x, y in enumerate(f.images):
            self._fibers[y].append(x)
        rank = [0] * A.size
        for a, x in enumerate(p.images):
            rank[a] = len(self._lifts[x])
            self._lifts[x].append(a)
        # fibers over one orbit of Y are alike: count once per orbit, with
        # Python integers, before anything is allocated
        y_orbits = orbit_decomposition(Y)
        counts = [math.prod(len(self._lifts[x]) for x in self._fibers[o.base]) for o in y_orbits]
        if sum(c * len(o.points) for c, o in zip(counts, y_orbits)) > SECTION_CAP:
            raise SizeLimitExceeded(f"dependent product would have more than {SECTION_CAP} points")
        counts = [counts[i] for i in Y.orbit_of]
        self._offset = np.array([0, *accumulate(counts)], dtype=np.int32)  # Y.size + 1
        self.size = int(self._offset[-1])
        weight = [0] * X.size
        for fib in self._fibers:
            w = 1
            for x in reversed(fib):
                weight[x], w = w, w * len(self._lifts[x])
        self._rank, self._weight = np.array(rank, dtype=np.int32), np.array(weight, dtype=np.int32)
        self._p = np.array(p.images, dtype=np.intp)

        orbits, moves, sections = [], [np.empty((0, G.order), np.int32)], [np.empty((0, X.size), np.int32)]
        for orb in y_orbits:  # self-checks: Stab(y) acts, p(sigma(x)) = x
            y, (Hg, embed) = orb.base, orb.stabilizer.as_group
            action, low = self._action(y), self._offset[y]
            bad = Hg.action_failure(action[list(embed)] - low)
            if bad is not None:
                raise DefinitionError(f"Stab(y) not acting on the sections over y={y} at "
                                      f"g={embed[bad[0]]}, h={embed[bad[1]]}, x={low + bad[2]}")
            cols = np.flatnonzero(action.min(axis=0) == low + np.arange(action.shape[1]))
            sections.append(self._values(y, cols))
            if not (self._p[sections[-1][:, self._fibers[y]]] == self._fibers[y]).all():
                raise DefinitionError("exponential diagram does not commute")
            orbits += map(SectionOrbit, (low + cols).tolist(), [y] * len(cols),
                          _fixers(G, action[:, cols] == low + cols))
            moves.append(action[:, cols].T)
        self.orbits: Tuple[SectionOrbit, ...] = tuple(orbits)
        self.moves, self.base_sections = np.concatenate(moves), np.concatenate(sections)

    def _action(self, y: int) -> np.ndarray:
        """The (|G|, counts[y]) int32 numbers of g.(y, sigma), sigma numbered
        offset[y] + column: offset[g.y] plus, over x in f^-1(y) with more
        than one lift, rank[g.sigma(x)] * weight[g.x], one broadcast a digit."""
        fib = [x for x in self._fibers[y] if len(self._lifts[x]) != 1]
        lifts = [a for x in fib for a in self._lifts[x]]
        terms = (self._rank[self.p.source.action[:, lifts]]
                 * self._weight[self.f.source.action[:, self._p[lifts]]])
        out, start = self._offset[self.f.target.action[:, y]][:, None], 0
        for x in fib:  # digits in numbering order
            r = len(self._lifts[x])
            out = (out[:, :, None] + terms[:, None, start:start + r]).reshape(len(out), -1)
            start += r
        return out

    def _values(self, y: int, s: np.ndarray) -> np.ndarray:
        """Row i is sigma(x) on f^-1(y), sigma numbered offset[y] + s[i]."""
        out = np.full((len(s), self.f.source.size), self.p.source.size, dtype=np.int32)
        for x in self._fibers[y]:
            lift = np.array(self._lifts[x], dtype=np.int32)
            out[:, x] = lift[s // self._weight[x] % len(lift)]
        return out


def dependent_product(f: GSetMap, p: GSetMap) -> ExponentialDiagram:
    """Pi_f A, the pairs (y, sigma) with sigma : f^-1(y) -> A a section of
    p, g(y, sigma) = (gy, g sigma) with (g sigma)(x) = g.sigma(g^-1 x), and
    its exponential diagram, without building Pi_f A: an orbit's least
    point lies over the base y of the orbit of Y below it, so one
    (|G|, sections over y) array of every g.(y, sigma) per base y gives the
    orbits, each base a column holding its least value, its stabilizer the
    mask of the rows fixing it.  Self-checks per base fiber: the rows of
    Stab(y) act on its sections (FiniteGroup.action_failure), and
    p(sigma(x)) = x on its bases.  Every point counts towards SECTION_CAP."""
    return ExponentialDiagram(f, p)


def equivariant_maps(X: GSet, Y: GSet) -> Iterator[GSetMap]:
    """All equivariant maps X -> Y, by exhaustive choice of orbit images."""
    orbits = orbit_decomposition(X)
    # an orbit can go to the points fixed by its stabilizer
    candidates = [np.flatnonzero((Y.action[list(orb.stabilizer.elements)] == np.arange(Y.size))
                                 .all(axis=0)).tolist() for orb in orbits]
    for choice in iproduct(*candidates):
        yield GSetMap(X, Y, tuple(Y.act(g, choice[i]) for g, i in zip(X.carrier, X.orbit_of)))
