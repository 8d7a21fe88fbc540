"""Finite G-sets and equivariant maps.

A G-set is an action array over a FiniteGroup; points are 0-based indices.
This module supplies orbit decomposition, pullbacks, the dependent product
along a map (sections over fibers), and the exponential diagram built from
it, whose pullback corner is built on first read.  Everything is
constructed literally from the definitions and validated on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
        return _stabilizers(self, [x])[0]

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
    X._orbits = tuple(Orbit(points=pts, base=x, stabilizer=stab)
                      for (pts, x), stab in zip(found, _stabilizers(X, [x for _, x in found])))
    return X._orbits


def _stabilizers(X: GSet, points: List[int]) -> List[Subgroup]:
    """The stabilizers of the points from one gather, each read by its mask."""
    G, subs = X.group, subgroups(X.group)
    masks = (X.action[:, points] == points).T @ (1 << np.arange(G.order, dtype=np.int64))
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


@dataclass(frozen=True, eq=False)
class ExponentialDiagram:
    """The five-object diagram generated by f : X -> Y and p : A -> X.

    pi is the dependent product: points are pairs (y, sigma) where sigma
    sections p over the fiber of y.  sections[i, x] is sigma(x) for point
    i = (y, sigma) and x in the fiber of y, and A.size elsewhere; it is
    read-only.  The pullback corner X x_Y pi, its evaluation to A,
    (x, (y, sigma)) -> sigma(x), and its projection to pi are built by
    pullback on first read; the diagram commutes: evaluation followed by p
    is the pullback projection to X.
    """

    f: GSetMap
    p: GSetMap
    pi: GSet
    projection: GSetMap          # pi -> Y
    sections: np.ndarray         # (pi.size, X.size)

    @cached_property
    def _corner(self) -> Tuple[GSet, GSetMap, GSetMap]:
        corner, to_x, to_pi = pullback(self.f, self.projection)
        ev = self.sections[np.asarray(to_pi.images, dtype=np.int64),
                           np.asarray(to_x.images, dtype=np.int64)]
        return corner, GSetMap(corner, self.p.source, tuple(ev.tolist())), to_pi

    @property
    def pullback_corner(self) -> GSet:         # X x_Y pi
        return self._corner[0]

    @property
    def evaluation(self) -> GSetMap:           # corner -> A
        return self._corner[1]

    @property
    def corner_projection(self) -> GSetMap:    # corner -> pi
        return self._corner[2]


def dependent_product(f: GSetMap, p: GSetMap) -> ExponentialDiagram:
    """Construct Pi_f A and its exponential diagram.

    Points of Pi_f A are pairs (y, sigma) with sigma : f^-1(y) -> A a
    section of p over the fiber; the action is g(y, sigma) = (gy, g sigma)
    with (g sigma)(x) = g.sigma(g^-1 x).

    The points are sorted: by y, then by sigma in the product order of the
    lift lists p^-1(x) over the sorted fiber.  So the point (y, sigma) is
    numbered offset[y] + sum over x in f^-1(y) of rank[sigma(x)] * weight[x],
    where rank[a] is a's position in p^-1(p(a)) and weight[x] is the number
    of sections of the part of the fiber after x.  Row i of the section
    matrix holds point i's sigma(x) for x in its fiber and the sentinel
    A.size elsewhere, which every g fixes and which ranks 0.

    The commutativity check p(sigma(x)) = x runs on every (point, x in its
    fiber) pair, the points of the pullback corner, built only when read.
    """
    if p.target is not f.source:
        raise DefinitionError("p must target the source of f")
    X, Y, A = f.source, f.target, p.source
    G = X.group

    f_img, p_img = np.asarray(f.images, dtype=np.int64), np.asarray(p.images, dtype=np.int64)
    fibers = [np.flatnonzero(f_img == y) for y in range(Y.size)]
    lifts = [np.flatnonzero(p_img == x) for x in range(X.size)]
    radix = [len(lift) for lift in lifts]
    counts = [math.prod(radix[x] for x in fib.tolist()) for fib in fibers]
    if sum(counts) > SECTION_CAP:
        raise SizeLimitExceeded(
            f"dependent product would have more than {SECTION_CAP} points")

    rank = np.zeros(A.size + 1, dtype=np.int64)
    weight = np.zeros(X.size, dtype=np.int64)
    sections = np.full((sum(counts), X.size), A.size, dtype=np.int64)
    offset = np.zeros(Y.size, dtype=np.int64)
    start = 0
    for y, fib in enumerate(fibers):
        offset[y] = start
        block = sections[start:start + counts[y]]
        codes = np.arange(counts[y])
        w = 1
        for x in reversed(fib.tolist()):  # the last fiber point varies fastest
            rank[lifts[x]] = np.arange(radix[x])
            weight[x] = w
            if counts[y]:
                block[:, x] = lifts[x][codes // w % radix[x]]
            w *= radix[x]
        start += counts[y]
    point_y = np.repeat(np.arange(Y.size), counts)

    # moved_rank[g, a] is the rank of g.a (a may be the sentinel);
    # action[g, i] is the number of the point g.(point i)
    moved_rank = rank[np.concatenate([A.action, np.full((G.order, 1), A.size)], axis=1)]
    action = np.empty((G.order, len(sections)), dtype=np.int64)
    for g in G.elements():
        action[g] = (offset[Y.action[g, point_y]]
                     + moved_rank[g][sections] @ weight[X.action[g]])
    pi = GSet(G, action)
    projection = GSetMap(pi, Y, tuple(point_y.tolist()))

    # the diagram commutes: p(sigma(x)) = x for every point (y, sigma) and
    # x in the fiber of y, the pairs that make up the pullback corner
    in_fiber = f_img == point_y[:, None]
    if not (np.append(p_img, -1)[sections] == np.arange(X.size))[in_fiber].all():
        raise DefinitionError("exponential diagram does not commute")

    sections.flags.writeable = False
    return ExponentialDiagram(f=f, p=p, pi=pi, projection=projection, sections=sections)


def equivariant_maps(X: GSet, Y: GSet) -> Iterator[GSetMap]:
    """All equivariant maps X -> Y, by exhaustive choice of orbit images."""
    orbits = orbit_decomposition(X)
    # an orbit can go to the points fixed by its stabilizer
    candidates = [np.flatnonzero((Y.action[list(orb.stabilizer.elements)] == np.arange(Y.size))
                                 .all(axis=0)).tolist() for orb in orbits]
    for choice in iproduct(*candidates):
        yield GSetMap(X, Y, tuple(Y.act(g, choice[i]) for g, i in zip(X.carrier, X.orbit_of)))


def gset_isomorphism(X: GSet, Y: GSet) -> Optional[GSetMap]:
    """An equivariant bijection X -> Y, or None.

    Orbits are matched by stabilizer conjugacy in canonical order, so the
    result is deterministic.
    """
    if X.group is not Y.group or X.size != Y.size:
        return None
    G = X.group
    xorbs = orbit_decomposition(X)
    yorbs = orbit_decomposition(Y)
    used = [False] * len(yorbs)
    target_bases = []
    for xo in xorbs:
        match = None
        for j, yo in enumerate(yorbs):
            if used[j] or len(yo.points) != len(xo.points):
                continue
            u = next((g for g in G.elements()
                      if yo.stabilizer.conjugate(g) is xo.stabilizer), None)
            if u is not None:
                match = (j, yo, u)
                break
        if match is None:
            return None
        j, yo, u = match
        used[j] = True
        # stabilizer u Stab(yo.base) u^-1 == Stab(xo.base)
        target_bases.append(Y.act(u, yo.base))
    try:
        m = GSetMap(X, Y, tuple(Y.act(g, target_bases[i])
                                for g, i in zip(X.carrier, X.orbit_of)))
    except DefinitionError:
        return None
    if sorted(m.images) != list(range(Y.size)):
        return None
    return m
