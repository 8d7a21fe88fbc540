"""Finite group machinery with 0-based element indices.

Groups are plain multiplication tables: element 0 is always the identity.
The subgroup lattice, conjugacy classes of subgroups and double cosets are
computed by brute force and cached; orders above GROUP_ORDER_CAP (24) are
refused before any of that, so nothing clever is needed.

Every subgroup question is answered by element mask, the sum of 2**g over
the elements: the one index maps masks to positions in subgroups(G), and
one closure of masks (`_generated`) builds the lattice, the generators and
checks a Subgroup (README, "Subgroups by element mask").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DefinitionError, SizeLimitExceeded

# the largest group order (README, "Scale"), checked before any work on it
GROUP_ORDER_CAP = 24


class FiniteGroup:
    """Finite group given by a full multiplication table.

    mul[a][b] is the index of a*b; index 0 is the identity.
    Immutable after construction; all derived data is cached.
    """

    def __init__(self, mul: Sequence[Sequence[int]], name: str = "G") -> None:
        n = len(mul)
        if n == 0:
            raise DefinitionError("group must be nonempty")
        if n > GROUP_ORDER_CAP:
            raise SizeLimitExceeded(f"group order {n} exceeds the group order cap {GROUP_ORDER_CAP}")
        table = [tuple(int(x) for x in row) for row in mul]
        for row in table:
            if len(row) != n or any(x < 0 or x >= n for x in row):
                raise DefinitionError("multiplication table is not square over 0..n-1")
        self.order = n
        self.mul_table = table
        self.mul_array = np.array(table)
        self.name = name
        self.identity = 0
        self._validate()
        self.inv_table = tuple(self._find_inverse(a) for a in range(n))

    def _validate(self) -> None:
        n = self.order
        t = self.mul_table
        for a in range(n):
            if t[0][a] != a or t[a][0] != a:
                raise DefinitionError("element 0 is not a two-sided identity")
        for a in range(n):
            if 0 not in t[a]:
                raise DefinitionError(f"element {a} has no inverse")
        for a, b, c in product(range(n), repeat=3):
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise DefinitionError(f"associativity fails at ({a},{b},{c})")

    @cached_property
    def generators(self) -> Tuple[int, ...]:
        """A greedy generating set, increasing: repeatedly the smallest
        element outside the subgroup generated so far.  Each member at
        least doubles that subgroup, so there are at most log2|G|."""
        gens: Tuple[int, ...] = ()
        mask, full = 1, (1 << self.order) - 1
        while mask != full:
            gens += (next(g for g in self.elements() if not mask >> g & 1),)
            mask = self._generated(mask, gens)
        return gens

    def _generated(self, mask: int, gens: Sequence[int]) -> int:
        """The mask of the subgroup generated by gens.  It grows from mask,
        which must hold the identity and lie in that subgroup (a subgroup
        generated by some of gens, or gens themselves): every element
        reached is multiplied on the right by each of gens until nothing
        is added.  A finite group needs no inverses, g^-1 being a power
        of g."""
        rows = self.mul_table
        reached = [g for g in self.elements() if mask >> g & 1]
        for x in reached:  # grows as it is read
            row = rows[x]
            for s in gens:
                y = row[s]
                if not mask >> y & 1:
                    mask |= 1 << y
                    reached.append(y)
        return mask

    def action_failure(self, action: np.ndarray) -> Optional[Tuple[int, int, int]]:
        """The first (s, h, x), s a generator, with A[sh][x] != A[s][A[h][x]]
        for the (|G|, n) array A[g, x] = g.x, or None if A is an action.
        Entries outside 0..n-1 or a row 0 other than the identity raise
        DefinitionError.  The law at the generators gives it for all pairs
        and makes every row a bijection (README, "Actions checked at
        generators"); the first failure is the one the all-pairs loop finds."""
        n = action.shape[1]
        if action.size and (action.min() < 0 or action.max() >= n):
            raise DefinitionError(f"action entries must lie in 0..{n - 1}")
        if not np.array_equal(action[0], np.arange(n)):
            raise DefinitionError("identity must act trivially")
        for s in self.generators:
            bad = action[self.mul_array[s]] != action[s][action]  # [h, x]: A[sh] vs A[s][A[h]]
            if bad.any():
                h, x = np.argwhere(bad)[0]
                return s, int(h), int(x)
        return None

    def _find_inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.mul_table[a][b] == 0:
                return b
        raise DefinitionError(f"element {a} has no inverse")

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def conj(self, g: int, a: int) -> int:
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def elements(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_permutations(gens: Sequence[Sequence[int]], name: str = "G") -> "FiniteGroup":
        """Group generated by permutations of {0..n-1}, as a table group.

        Elements are enumerated by BFS from the identity so that index 0 is
        the identity and the numbering is deterministic in the generators.
        """
        if not gens:
            raise DefinitionError("need at least one generator")
        npts = len(gens[0])
        perms = []
        for g in gens:
            p = tuple(int(x) for x in g)
            if len(p) != npts or sorted(p) != list(range(npts)):
                raise DefinitionError(f"not a permutation of 0..{npts - 1}: {g}")
            perms.append(p)
        ident = tuple(range(npts))
        seen = {ident: 0}
        order: List[Tuple[int, ...]] = [ident]
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for q in perms:
                    r = tuple(q[p[i]] for i in range(npts))
                    if r not in seen:
                        seen[r] = len(order)
                        order.append(r)
                        nxt.append(r)
                        if len(order) > GROUP_ORDER_CAP:
                            raise SizeLimitExceeded("generated group exceeds the group "
                                                    f"order cap {GROUP_ORDER_CAP}")
            frontier = nxt
        n = len(order)
        mul = [[0] * n for _ in range(n)]
        for i, p in enumerate(order):
            for j, q in enumerate(order):
                r = tuple(p[q[k]] for k in range(npts))
                mul[i][j] = seen[r]
        return FiniteGroup(mul, name=name)

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        mul = [[(a + b) % n for b in range(n)] for a in range(n)]
        return FiniteGroup(mul, name=f"C{n}")

    # -- cached lattice data -------------------------------------------

    @cached_property
    def _subgroups(self) -> Tuple["Subgroup", ...]:
        # breadth first from {e}: each subgroup found, kept by mask with
        # the generators it was found by, is joined with each g outside it
        found = {1: ()}
        masks = [1]
        for mask in masks:  # grows as it is read
            gens = found[mask]
            for g in self.elements():
                if not mask >> g & 1:
                    more = gens + (g,)
                    joined = self._generated(mask, more)
                    if joined not in found:
                        found[joined] = more
                        masks.append(joined)
        keys = (tuple(g for g in self.elements() if m >> g & 1) for m in masks)
        return tuple(Subgroup(self, e) for e in sorted(keys, key=lambda e: (len(e), e)))

    @cached_property
    def _positions(self) -> Dict[int, int]:  # the one subgroup index
        return {s.mask: i for i, s in enumerate(self._subgroups)}

    def lattice_position(self, mask: int) -> int:
        """The position in subgroups(G) of the subgroup whose elements g
        sum 2**g to mask; a mask of no subgroup raises DefinitionError."""
        i = self._positions.get(mask)
        if i is None:
            key = tuple(g for g in range(int(mask).bit_length()) if mask >> g & 1)
            raise DefinitionError(f"{key} is not a subgroup of {self.name}")
        return i

    def _with_mask(self, mask: int) -> "Subgroup":
        return self._subgroups[self.lattice_position(mask)]

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        """The subgroup with exactly these elements (must be closed)."""
        key = tuple(sorted(set(int(x) for x in elements)))
        if key and (key[0] < 0 or key[-1] >= self.order):
            raise DefinitionError(f"{key} is not a subgroup of {self.name}")
        return self._with_mask(sum(1 << g for g in key))

    @cached_property
    def subgroup_pairs(self) -> Tuple[Tuple["Subgroup", "Subgroup"], ...]:
        """All pairs (K, H) with K <= H, grouped by H in lattice order."""
        subs = self._subgroups
        return tuple((K, H) for H in subs for K in subs if K.is_subgroup_of(H))

    @cached_property
    def trivial_subgroup(self) -> "Subgroup":
        return self._subgroups[0]

    @cached_property
    def full_subgroup(self) -> "Subgroup":
        return self._subgroups[-1]

    def conjugacy_class_rep(self, s: "Subgroup") -> "Subgroup":
        if s.mask not in self._positions:
            raise DefinitionError("subgroup not of this group")
        return min(self._with_mask(s.mask)._conjugates, key=lambda c: c.elements)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a FiniteGroup, as a sorted tuple of element indices."""

    parent: FiniteGroup
    elements: Tuple[int, ...]

    def __post_init__(self):
        G, mask = self.parent, self.mask
        if not mask & 1:
            raise DefinitionError("subgroup must contain the identity")
        if any(not mask >> G.inv(a) & 1 for a in self.elements):
            raise DefinitionError("subgroup not closed under inverse")
        if G._generated(mask, self.elements) != mask:
            raise DefinitionError("subgroup not closed under multiplication")

    def __hash__(self) -> int:
        # subgroups key every table of a functor; the dataclass __hash__
        # would hash (parent, elements) anew on each lookup
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.parent, self.elements))

    @cached_property
    def mask(self) -> int:
        """The sum of 2**g over the elements."""
        return sum(1 << g for g in self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a >= 0 and self.mask >> a & 1 == 1

    def __repr__(self) -> str:
        return f"Subgroup{self.elements}"

    def conjugate(self, g: int) -> "Subgroup":
        """The subgroup g H g^-1, as the parent's lattice instance."""
        return self._conjugates[g]

    @cached_property
    def _conjugates(self) -> Tuple["Subgroup", ...]:
        G = self.parent
        return tuple(G._with_mask(sum(1 << G.conj(g, a) for a in self.elements))
                     for g in G.elements())

    def is_subgroup_of(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == self.mask

    def intersect(self, other: "Subgroup") -> "Subgroup":
        return self.parent._with_mask(self.mask & other.mask)

    def left_cosets(self) -> Tuple[Tuple[int, ...], ...]:
        """Left cosets gH, each sorted, ordered by minimal element; the
        coset of the identity comes first.  Computed once."""
        return self._left_cosets

    @cached_property
    def _left_cosets(self) -> Tuple[Tuple[int, ...], ...]:
        G = self.parent
        return tuple(sorted({tuple(sorted(G.mul(g, h) for h in self.elements))
                             for g in G.elements()}))

    @cached_property
    def coset_index(self) -> Tuple[int, ...]:
        """coset_index[g] is the position of the coset gH in left_cosets()."""
        index = [0] * self.parent.order
        for i, c in enumerate(self.left_cosets()):
            for g in c:
                index[g] = i
        return tuple(index)

    @cached_property
    def coset_gset(self):
        """The G-set G/H of gsets.coset_gset, built once per subgroup."""
        from .gsets import GSet  # gsets builds on this module

        G = self.parent
        reps = [c[0] for c in self.left_cosets()]
        action = [[self.coset_index[G.mul(g, r)] for r in reps] for g in G.elements()]
        return GSet(G, action)

    @cached_property
    def as_group(self) -> Tuple[FiniteGroup, Tuple[int, ...]]:
        """This subgroup as a standalone group plus the embedding.

        Returns (K, embed) where embed[i] is the parent index of K's
        element i; embed[0] == 0.  The full subgroup yields the parent
        itself, so identities survive round trips through restriction.
        """
        embed = self.elements  # sorted, so identity 0 is first
        if self.order == self.parent.order:
            return self.parent, embed
        mul = [[self.local_index[self.parent.mul(a, b)] for b in embed] for a in embed]
        grp = FiniteGroup(mul, name=f"{self.parent.name}|{embed}")
        return grp, embed

    @cached_property
    def local_index(self) -> Dict[int, int]:
        """Parent element -> its index in as_group; inverts the embedding."""
        return {g: i for i, g in enumerate(self.elements)}

    def subgroup_in_parent(self, sub_elements: Iterable[int]) -> "Subgroup":
        """Map a subgroup of as_group (by its own indices) into the parent."""
        _, embed = self.as_group
        return self.parent.subgroup(embed[i] for i in sub_elements)

    @cached_property
    def local_subgroups(self) -> Dict["Subgroup", "Subgroup"]:
        """Each subgroup of the parent inside this one -> the same subgroup
        of as_group; inverts subgroup_in_parent."""
        Hg, _ = self.as_group
        return {self.subgroup_in_parent(S.elements): S for S in subgroups(Hg)}


@dataclass(frozen=True)
class UpwardClosedSet:
    """An upward closed set of subgroups under subconjugacy."""

    parent: FiniteGroup
    members: Tuple[Subgroup, ...]

    def __post_init__(self):
        have = self._masks
        for s in self.members:
            if any(t.mask not in have for t in s._conjugates):
                raise DefinitionError("set not closed under conjugation")
            if any(t.mask not in have and is_subconjugate(self.parent, s, t)
                   for t in subgroups(self.parent)):
                raise DefinitionError("set not upward closed")

    @cached_property
    def _masks(self) -> frozenset:
        return frozenset(s.mask for s in self.members)

    def __contains__(self, s: Subgroup) -> bool:
        return s.mask in self._masks


def subgroups(G: FiniteGroup) -> List[Subgroup]:
    """All subgroups of G, sorted by (order, element tuple)."""
    return list(G._subgroups)


def double_cosets(G: FiniteGroup, K: Subgroup, H: Subgroup,
                  within: Optional[Subgroup] = None) -> List[Tuple[int, Tuple[int, ...]]]:
    """The double cosets K\\A/H as (minimal representative, element tuple),
    where A is `within` (K and H must lie in it) or, by default, all of G.

    The identity double coset is first; the rest follow by representative.
    """
    seen = set()
    out = []
    for g in (G.elements() if within is None else within.elements):
        if g in seen:
            continue
        coset = set()
        for k in K.elements:
            kg = G.mul(k, g)
            for h in H.elements:
                coset.add(G.mul(kg, h))
        seen.update(coset)
        out.append((min(coset), tuple(sorted(coset))))
    out.sort()
    return out


def is_subconjugate(G: FiniteGroup, K: Subgroup, H: Subgroup) -> bool:
    """True iff some conjugate gKg^-1 is contained in H."""
    return any(c.is_subgroup_of(H) for c in K._conjugates)


def upward_closure(G: FiniteGroup, H: Subgroup) -> UpwardClosedSet:
    """All subgroups K with H subconjugate to K."""
    members = tuple(k for k in subgroups(G) if is_subconjugate(G, H, k))
    return UpwardClosedSet(G, members)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    return G._with_mask(sum(1 << g for g, c in enumerate(H._conjugates) if c.mask == H.mask))


def conjugacy_classes(subs: Iterable[Subgroup], by: Sequence[int]) -> List[List[Subgroup]]:
    """The subgroups subs, given in lattice order and closed under
    conjugation by the group of elements `by`, in their classes under it:
    each class in lattice order, the classes by their first member."""
    classes: Dict[Subgroup, List[Subgroup]] = {}
    for s in subs:
        rep = next((c for c in map(s.conjugate, by) if c in classes), s)
        classes.setdefault(rep, []).append(s)
    return list(classes.values())


def weyl_group(G: FiniteGroup, H: Subgroup) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """The Weyl group N_G(H)/H with a section.

    Returns (W, section) where section[i] is a representative in G of the
    coset that is W's element i; section[0] == 0 and the multiplication
    satisfies section[W.mul(i,j)] H == section[i] section[j] H.
    """
    N = normalizer(G, H)
    # the cosets of H inside N, numbered in H.left_cosets() order
    inside = [i for i, c in enumerate(H.left_cosets()) if c[0] in N]
    reps = [H.left_cosets()[i][0] for i in inside]
    pos = {i: j for j, i in enumerate(inside)}
    mul = [[pos[H.coset_index[G.mul(a, b)]] for b in reps] for a in reps]
    W = FiniteGroup(mul, name=f"W_{G.name}({H.order})")
    return W, tuple(reps)
