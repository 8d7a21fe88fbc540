"""Explicit finite commutative rings and rings with group action.

Rings are dense numpy tables over 0-based element indices.  The idempotent
calculus (isotropy, orthogonal orbits, the G-set of primitive idempotents
and the clarified predicate read off it), the grouping of primitive
idempotents into conjugacy classes, and coinduction
of G-rings along a subgroup live here.  The decomposition of a G-ring into
coinductions of clarified pieces is read off the functor decomposition of
its fixed-point Tambara functor (decompose.full_decomposition), whose
bottom level it is.

The zero ring (size 1) is permitted everywhere and marks the terminal
object; operations that cannot tolerate it raise ZeroRing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DefinitionError,
    GroupMismatch,
    NotIdempotent,
    SizeLimitExceeded,
    VerificationFailed,
    ZeroRing,
)
from .groups import FiniteGroup, Subgroup, UpwardClosedSet, upward_closure
from .gsets import GSet, Orbit, orbit_decomposition

RING_SIZE_CAP = 20000
# maps from rings of at most this many elements are checked on every pair.
# At 16-32 elements a scan of + and * costs 15-25 us against 12-18 us on
# the additive generators, but finding them costs 40-100 us once for a
# ring that was built, not validated; summed over the rings the benchmark
# workloads check, 32 and 64 cost least and 16 about 0.5 ms more per pass
# (README "Ring maps and associativity from additive generators")
SCAN_SIZE = 32

# fixed irreducible polynomials over F_p, low-degree coefficients first
# (from the standard tables; verified at construction by the field check)
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),          # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),       # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),    # t^4 + t + 1
    (3, 2): (1, 0, 1),          # t^2 + 1
    (3, 3): (1, 2, 0, 1),       # t^3 + 2t + 1
    (3, 4): (2, 1, 0, 0, 1),    # t^4 + t + 2
    (5, 2): (2, 0, 1),          # t^2 + 2
    (5, 3): (1, 1, 0, 1),       # t^3 + t + 1
    (5, 4): (2, 0, 0, 0, 1),    # t^4 + 2
    (7, 2): (1, 0, 1),          # t^2 + 1
    (11, 2): (1, 0, 1),         # t^2 + 1
    (13, 2): (2, 0, 1),         # t^2 + 2
}


class FiniteRing:
    """A finite commutative ring as add/mul tables with named 0 and 1.
    The constructor checks only the tables' shape and size; validate()
    proves that they form a ring (README "Validated once, at the loader")."""

    def __init__(self, add, mul, zero: int, one: int, label: str = "R") -> None:
        self.add = np.asarray(add, dtype=np.int32)
        self.mul = np.asarray(mul, dtype=np.int32)
        n = self.add.shape[0]
        if self.add.shape != (n, n) or self.mul.shape != (n, n):
            raise DefinitionError("add/mul tables must be square and equal-sized")
        _check_size(n)
        self.size = n
        self.zero = int(zero)
        self.one = int(one)
        self.label = label
        self._gens: Optional[np.ndarray] = None  # additive_generators, once found

    def additive_generators(self) -> List[int]:
        """A greedy additive generating set S, computed once per ring:
        repeatedly the smallest element not yet reached from 0 by adding
        members of S one at a time.  In a ring each new member at least
        doubles the subgroup reached, so |S| <= log2(n), which validate
        relies on."""
        return self._generators().tolist()

    def _generators(self) -> np.ndarray:
        if self._gens is None:
            self._gens = np.asarray(self._greedy_generators(), dtype=np.intp)
        return self._gens

    def _greedy_generators(self) -> List[int]:
        # the reached set is the least one holding 0 and closed under
        # x -> x + s for every s chosen so far; it is closed under one such
        # map by doubling: with f = (x -> x + s)^(2^k), X | f(X) adds the
        # next 2^k steps of each chain, and f^(2^(k+1)) is f[f]
        add = self.add
        reached = np.zeros(self.size, dtype=bool)
        reached[self.zero] = True
        gens: List[int] = []
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            todo = gens[-1:]
            while todo:
                for s in todo:
                    f = add[s]  # row s is column s: f[x] = x + s
                    while True:
                        hit = f[reached]
                        if reached[hit].all():
                            break
                        reached[hit] = True
                        f = f[f]
                # then a group's reached set is a subgroup, closed under
                # every + t; tables whose + is no group may need more rounds
                todo = [] if reached[add[np.flatnonzero(reached)[:, None], gens]].all() else gens
        return gens

    def validate(self) -> None:
        """Exact proof that the tables form a commutative ring.

        Step 0 checks, in this order, that the units and every entry lie
        in 0..n-1, that + and x commute, that 0 and 1 are identities, that
        0 != 1 when n > 1 and that every element has a negative.  Steps 1-4
        prove additive associativity, distributivity and multiplicative
        associativity from the additive generators S.  Every element is
        reached from 0 by adding members of S, so a property holds
        everywhere once the elements having it contain S and are closed
        under + (and 0 has it).  Each step's proof uses the ones before:

        1. S = additive_generators().
        2. (x+s)+y == x+(s+y) for all x, y and each s (Light's test).  The
           elements a with (x+a)+y == x+(a+y) for all x, y are closed
           under +, so + is associative: the table is an abelian group.
        3. (x+s)a == xa + sa for all x, a and each s.  With x = 0 this gives
           0a == 0, and by associativity of + the b with
           (x+b)a == xa + ba for all x, a are closed under +.
        4. (st)u == s(tu) for s, t, u in S.  With + an abelian group and
           * distributive (both sides, as * commutes), the associator
           (ab)c - a(bc) is additive in each argument, so for fixed b, c
           the a where it vanishes hold 0 and are closed under +: it
           vanishes everywhere once it vanishes on S^3.  Only a failure
           pays for the scan (xs)y == x(sy) over all x, y for each s,
           which then fails too (the same argument with s in the middle)
           and names the first failing x, s, y.

        Step 0 costs a few n x n passes.  Steps 2 and 3 cost a few n x n
        gathers per generator, 2|S| rounds against 3n for the row-by-row
        check, and step 4 |S|^3 lookups.  If step 2 holds at the first k
        members of S, the elements they reach form a group of at least 2^k
        elements, so step 2 fails by member floor(log2 n) + 1 at the
        latest: no input costs more than O(n^2 log n).
        """
        n, add, mul = self.size, self.add, self.mul
        for unit, x in (("zero", self.zero), ("one", self.one)):
            if not 0 <= x < n:
                raise DefinitionError(f"{unit} {x} is not an element of 0..{n - 1}")
        for t in (add, mul):
            if t.min() < 0 or t.max() >= n:
                raise DefinitionError("table entries out of range")
        if not np.array_equal(add, add.T):
            raise DefinitionError("addition is not commutative")
        if not np.array_equal(mul, mul.T):
            raise DefinitionError("multiplication is not commutative")
        if not np.array_equal(add[self.zero], np.arange(n)):
            raise DefinitionError("zero is not an additive identity")
        if not np.array_equal(mul[self.one], np.arange(n)):
            raise DefinitionError("one is not a multiplicative identity")
        if n > 1 and self.zero == self.one:
            raise DefinitionError("0 == 1 in a ring with more than one element")
        bad = np.empty((n, n), dtype=bool)
        if not np.equal(add, self.zero, out=bad).any(axis=1).all():
            raise DefinitionError("some element has no additive inverse")
        S = self._generators()
        # two n x n buffers and the mask serve every round.  Every entry is
        # below n (step 0), so take's mode="clip" clamps nothing and fills
        # its buffer ("raise" copies it).  Row s of a commutative table is
        # its column s: x+s is add[s][x]; add[u, v] is add.flat[u*n + v],
        # n*n <= RING_SIZE_CAP**2 < 2**31, read by indexing (no intp copy)
        lhs, rhs = np.empty((2, n, n), dtype=np.int32)

        def scan(message, left, right):
            # [x, y] of the left side and of the right side, per s
            for s in S:
                np.not_equal(left(s), right(s), out=bad)
                if bad.any():
                    x, y = np.argwhere(bad)[0]
                    raise DefinitionError(message.format(x=x, y=y, s=s))

        scan("addition not associative: ({x}+{s})+{y} != {x}+({s}+{y})",
             lambda s: add.take(add[s], axis=0, out=lhs, mode="clip"),
             lambda s: add.take(add[s], axis=1, out=rhs, mode="clip"))
        scan("distributivity fails: {y}*({x}+{s}) != {y}*{x}+{y}*{s}",
             lambda s: mul.take(add[s], axis=0, out=lhs, mode="clip"),
             lambda s: add.ravel()[np.add(np.multiply(mul, n, out=rhs), mul[s], out=rhs)])
        st = mul[S[:, None], S]  # [s, t] -> st; [s, t, u] below
        if not (mul[st[:, :, None], S] == mul[S[:, None, None], st]).all():
            scan("multiplication not associative: ({x}*{s})*{y} != {x}*({s}*{y})",
                 lambda s: mul.take(mul[s], axis=0, out=lhs, mode="clip"),
                 lambda s: mul.take(mul[s], axis=1, out=rhs, mode="clip"))

    # -- pointwise helpers ---------------------------------------------

    def is_zero_ring(self) -> bool:
        return self.size == 1

    def add_many(self, xs: Sequence[int]) -> int:
        acc = self.zero
        for x in xs:
            acc = int(self.add[acc, x])
        return acc

    def power(self, x: int, k: int) -> int:
        acc = self.one
        for _ in range(k):
            acc = int(self.mul[acc, x])
        return acc

    def __repr__(self) -> str:
        return f"FiniteRing({self.label}, size={self.size})"


def zero_ring() -> FiniteRing:
    """The ring {0}: its one-entry tables form a ring by construction."""
    return FiniteRing([[0]], [[0]], 0, 0, label="0")


def _check_size(n: int) -> None:
    """Refuse a ring of n elements before its n x n tables exist."""
    if n > RING_SIZE_CAP:
        raise SizeLimitExceeded(f"ring size {n} exceeds cap {RING_SIZE_CAP}")


def zn(n: int) -> FiniteRing:
    """Z/n, whose tables are + and x mod n: a ring by construction."""
    if n < 1:
        raise DefinitionError("modulus must be positive")
    _check_size(n)
    if n == 1:
        return zero_ring()
    idx = np.arange(n)
    return FiniteRing((idx[:, None] + idx[None, :]) % n,
                      (idx[:, None] * idx[None, :]) % n,
                      0, 1, label=f"Z/{n}")


def _factor_prime_power(q: int) -> Tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise DefinitionError(f"{q} is not a prime power")
            return p, k
    raise DefinitionError(f"{q} is not a prime power")


def fq(q: int) -> FiniteRing:
    """The field with q = p^k elements (k <= 4), as polynomials mod a fixed
    irreducible; element index is sum(c_i * p^i) so scalars sit at 0..p-1."""
    _check_size(q)
    p, k = _factor_prime_power(q)
    if k == 1:
        R = zn(p)
        R.char_p = p
        return R
    if (p, k) not in _IRREDUCIBLE:
        raise DefinitionError(f"no irreducible polynomial on file for ({p},{k})")
    poly = np.array(_IRREDUCIBLE[(p, k)][:k])
    # coef[i, x] is the coefficient of t^i in element x; x = sum coef[i, x] p^i
    coef = prod_components([p] * k)[::-1]
    a, b = coef[:, :, None], coef[:, None, :]
    prod = np.zeros((2 * k - 1, q, q), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            prod[i + j] += a[i] * b[j]
    for d in range(2 * k - 2, k - 1, -1):
        # t^d = t^(d-k) t^k and t^k = -sum_j poly[j] t^j
        prod[d - k:d] = (prod[d - k:d] - prod[d] * poly[:, None, None]) % p
    weights = p ** np.arange(k)
    add = np.tensordot(weights, (a + b) % p, axes=1)
    mul = np.tensordot(weights, prod[:k] % p, axes=1)
    R = FiniteRing(add, mul, 0, 1, label=f"F{q}")
    R.validate()
    for x in range(1, q):
        if R.one not in R.mul[x]:
            raise DefinitionError(f"construction of F{q} is not a field (check polynomial)")
    R.char_p = p
    return R


def frobenius(R: FiniteRing) -> np.ndarray:
    """The Frobenius x -> x^p of a field built by fq(), as a permutation."""
    p = getattr(R, "char_p", None)
    if p is None:
        raise DefinitionError("frobenius needs a field from fq()")
    return np.array([R.power(x, p) for x in range(R.size)], dtype=np.int32)


def product_ring(factors: Sequence[FiniteRing], label: Optional[str] = None) -> FiniteRing:
    """Componentwise product, a ring as a product of rings; index is
    C-order over factor indices (prod_encode).  add and mul fold the factors
    in broadcast: t[a, c] * s + F[b, d] lands at [a, b, c, d], which the
    reshape reads at (a*s + b, c*s + d), the C-order index; every entry is
    below n <= RING_SIZE_CAP, so int32 cannot overflow."""
    if not factors:
        raise DefinitionError("need at least one factor")
    sizes = [f.size for f in factors]
    n = 1
    for s in sizes:
        n *= s
        if n > RING_SIZE_CAP:
            raise SizeLimitExceeded(f"product ring would exceed {RING_SIZE_CAP} elements")

    def fold(name):
        t = getattr(factors[0], name)
        for f in factors[1:]:
            m, s = len(t), f.size
            t = (t[:, None, :, None] * s + getattr(f, name)[None, :, None, :]).reshape(m * s, m * s)
        return t

    zero = prod_encode(sizes, [f.zero for f in factors])
    one = prod_encode(sizes, [f.one for f in factors])
    return FiniteRing(fold("add"), fold("mul"), zero, one,
                      label=label or " x ".join(f.label for f in factors))


# -- the mixed-radix codec of product indices -----------------------------
#
# An element of a product of rings of the given sizes has index
# sum_k c_k * prod(sizes[k+1:]) (C order: the last factor varies fastest).


def prod_encode(sizes: Sequence[int], comps):
    """Index of the element with components comps, one per factor.

    The components are ints (giving an int) or broadcastable index arrays,
    such as the open mesh np.ix_ of the factors' ranges (giving an array
    of their broadcast shape); a (k, n) array gives n indices, also when
    k == 0.
    """
    out = np.zeros(comps.shape[1:], dtype=np.int64) if isinstance(comps, np.ndarray) else 0
    for s, c in zip(sizes, comps):
        out = out * s + c
    return out


def prod_components(sizes: Sequence[int]) -> np.ndarray:
    """The components of every element of the product, one row per factor:
    entry [k, x] is element x's component in factor k.  Shape
    (k, prod(sizes)); the transpose has one row per element."""
    rem = np.arange(int(np.prod(sizes, dtype=np.int64)))
    out = np.empty((len(sizes), len(rem)), dtype=np.int64)
    for k in range(len(sizes) - 1, -1, -1):
        out[k] = rem % sizes[k]
        rem = rem // sizes[k]
    return out


def subring(R: FiniteRing, members: np.ndarray, one: int, label: str
            ) -> Tuple[FiniteRing, np.ndarray]:
    """The ring on R's elements members (ascending, closed under + and x)
    with unit one, as (S, pos): pos[x] is x's S-index, -1 off members.
    It is a ring as R is: a finite subset closed under + holds negatives."""
    pos = np.full(R.size, -1, dtype=np.int32)
    pos[members] = np.arange(len(members))
    add = pos[R.add[np.ix_(members, members)]]
    mul = pos[R.mul[np.ix_(members, members)]]
    return FiniteRing(add, mul, int(pos[R.zero]), int(pos[one]), label=label), pos


def idempotent_subring(R: FiniteRing, e: int, label: Optional[str] = None
                       ) -> Tuple[FiniteRing, np.ndarray, np.ndarray]:
    """The ring e*R with unit e as (S, include, pos), include[i] the
    R-index of S's element i and pos its inverse, as subring gives it;
    eR is a ring with unit e, an ideal closed under x."""
    if int(R.mul[e, e]) != e:
        raise NotIdempotent(f"{e} is not idempotent")
    include = np.flatnonzero(R.mul[e] == np.arange(R.size)).astype(np.int32)
    S, pos = subring(R, include, e, label or f"{R.label}|e{e}")
    return S, include, pos


def op_failure(img: np.ndarray, src_op: np.ndarray, dst_op: np.ndarray
               ) -> Optional[Tuple[int, int]]:
    """The first (a, b) in row-major order with img[a o b] != img[a] o img[b],
    where src_op and dst_op are the tables of o on the map's source and
    target; None when the map img preserves o."""
    # dst_op[u, v] is dst_op.flat[u*n + v]; n*n <= RING_SIZE_CAP**2 < 2**31.
    # Indexing reads the int32 indices as they are (np.take would copy them
    # to intp), and an image entry past the target raises IndexError
    n = dst_op.shape[0]
    bad = img[src_op] != dst_op.ravel()[img[:, None] * n + img]
    if not bad.any():
        return None
    a, b = np.argwhere(bad)[0]
    return int(a), int(b)


def is_additive(img: np.ndarray, src: FiniteRing, dst: FiniteRing) -> bool:
    """Whether img : src -> dst preserves 0 and +, for rings src and dst,
    decided from the additive generators S of src: img(0) == 0 and
    img(s + b) == img(s) + img(b) for s in S and every b.  The a with
    img(a + b) == img(a) + img(b) for all b hold 0 and are closed under +,
    so they are all of src.  A ring of at most SCAN_SIZE elements is
    scanned pair by pair instead (op_failure), the zero ring, whose S is
    empty, among them.  An image entry past dst raises IndexError, unless
    img(0) already differs from 0."""
    if img[src.zero] != dst.zero:
        return False
    if src.size <= SCAN_SIZE:
        return op_failure(img, src.add, dst.add) is None
    S = src._generators()
    return bool((img[src.add[S]] == dst.add[img[S][:, None], img]).all())


def _is_multiplicative(img: np.ndarray, src: FiniteRing, dst: FiniteRing) -> bool:
    """Whether an additive img : src -> dst between rings preserves *,
    decided on S x S: img(st) == img(s) img(t).  For fixed s the b with
    img(sb) == img(s) img(b) hold 0 and are closed under +, by
    distributivity, so they are all of src; then so are the a that work
    with every b.  Small rings are scanned, as in is_additive."""
    if src.size <= SCAN_SIZE:
        return op_failure(img, src.mul, dst.mul) is None
    S = src._generators()
    imgS = img[S]
    return bool((img[src.mul[S[:, None], S]] == dst.mul[imgS[:, None], imgS]).all())


def hom_failure(img: np.ndarray, src: FiniteRing, dst: FiniteRing) -> Optional[str]:
    """The first law of a unital ring map that img : src -> dst breaks, in
    the order 0, 1, addition, multiplication; None when img is one.

    src and dst must be rings: validated at the loader or built by a ring
    construction.  The laws are decided from src's additive generators
    (is_additive, _is_multiplicative), and only a broken law pays for
    op_failure's scan of every pair, which names its first failing pair."""
    if img[src.zero] != dst.zero:
        return f"0 -> {img[src.zero]}"
    if img[src.one] != dst.one:
        return f"1 -> {img[src.one]}"
    for name, holds, src_op, dst_op in (
            ("addition", is_additive, src.add, dst.add),
            ("multiplication", _is_multiplicative, src.mul, dst.mul)):
        if not holds(img, src, dst):
            a, b = op_failure(img, src_op, dst_op)
            return f"{name} broken at ({a},{b})"
    return None


@dataclass(frozen=True)
class RingHom:
    """A unital ring homomorphism as an image table."""

    source: FiniteRing
    target: FiniteRing
    images: Tuple[int, ...]

    def __post_init__(self):
        img = np.asarray(self.images, dtype=np.int32)
        if img.shape != (self.source.size,):
            raise DefinitionError("image table has wrong length")
        err = hom_failure(img, self.source, self.target)
        if err:
            raise DefinitionError(f"not a ring homomorphism: {err}")

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(self.images)) == self.source.size)

    def inverse(self) -> "RingHom":
        if not self.is_bijective():
            raise DefinitionError("homomorphism is not bijective")
        inv = np.zeros(self.target.size, dtype=np.int32)
        inv[np.asarray(self.images)] = np.arange(self.source.size)
        return RingHom(self.target, self.source, tuple(int(x) for x in inv))

    def compose(self, other: "RingHom") -> "RingHom":
        """self after other."""
        return RingHom(other.source, self.target,
                       tuple(int(self.images[y]) for y in other.images))


class GRing:
    """A finite ring with a group acting by ring automorphisms.

    The constructor checks the action law and that each generator s of the
    group acts additively and multiplicatively, decided from the ring's
    additive generators (is_additive, _is_multiplicative).  By the law
    every action row is a composite of rows of generators
    (FiniteGroup.action_failure), and a composite of maps preserving an
    operation preserves it."""

    def __init__(self, ring: FiniteRing, group: FiniteGroup, action) -> None:
        self.ring = ring
        self.group = group
        self.action = np.asarray(action, dtype=np.int32)
        if self.action.shape != (group.order, ring.size):
            raise DefinitionError("action table must be |G| x |R|")
        bad = group.action_failure(self.action)
        if bad is not None:
            raise DefinitionError("action not a homomorphism at ({},{})".format(*bad[:2]))
        for s in group.generators:
            if not is_additive(self.action[s], ring, ring):
                raise DefinitionError(f"element {s} is not additive")
            if not _is_multiplicative(self.action[s], ring, ring):
                raise DefinitionError(f"element {s} is not multiplicative")

    def act(self, g: int, x: int) -> int:
        return int(self.action[g, x])

    def __repr__(self) -> str:
        return f"GRing({self.ring.label}, {self.group.name})"


def trivial_gring(R: FiniteRing, G: FiniteGroup) -> GRing:
    return GRing(R, G, np.tile(np.arange(R.size, dtype=np.int32), (G.order, 1)))


# -- idempotent calculus ------------------------------------------------


def idempotents(R: FiniteRing) -> List[int]:
    """All x with x*x == x, sorted; contains 0 and 1."""
    diag = R.mul[np.arange(R.size), np.arange(R.size)]
    return [int(x) for x in np.nonzero(diag == np.arange(R.size))[0]]


def primitive_idempotents(R: FiniteRing) -> List[int]:
    """The unique complete set of orthogonal primitive idempotents."""
    if R.is_zero_ring():
        raise ZeroRing("the zero ring has no primitive idempotents")
    idems = idempotents(R)
    atoms = []
    for d in idems:
        if d == R.zero:
            continue
        # d is an atom iff no idempotent e with 0 != e != d lives under d
        if not any(e != R.zero and e != d and int(R.mul[e, d]) == e for e in idems):
            atoms.append(d)
    total = R.add_many(atoms)
    if total != R.one:
        raise VerificationFailed("primitive idempotents do not sum to 1")
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            if int(R.mul[a, b]) != R.zero:
                raise VerificationFailed("primitive idempotents are not orthogonal")
    return atoms


@dataclass(frozen=True)
class IdempotentReport:
    element: int
    isotropy: Subgroup
    orthogonal_orbit: bool
    type: Optional[Subgroup]


def classify_idempotent(R: GRing, d: int) -> IdempotentReport:
    """Isotropy and orthogonal-orbit analysis of an idempotent."""
    ring = R.ring
    if int(ring.mul[d, d]) != d:
        raise NotIdempotent(f"{d}*{d} != {d}")
    iso_els = [g for g in R.group.elements() if R.act(g, d) == d]
    isotropy = R.group.subgroup(iso_els)
    orth = all(
        int(ring.mul[d, R.act(g, d)]) == ring.zero
        for g in R.group.elements()
        if R.act(g, d) != d
    )
    return IdempotentReport(element=d, isotropy=isotropy, orthogonal_orbit=orth,
                            type=isotropy if orth else None)


def primitive_gset(R: GRing) -> Tuple[GSet, List[int]]:
    """The primitive idempotents P of R as a G-set: point i is prims[i], and
    g.i is the point of g.prims[i].  The zero ring has none.  Every
    idempotent of R is the sum of a subset of P, so the types of its
    idempotents are read off this G-set (README, "Idempotent types from
    the primitive idempotents")."""
    prims = [] if R.ring.is_zero_ring() else primitive_idempotents(R.ring)
    pos = np.full(R.ring.size, -1, dtype=np.int64)
    pos[prims] = np.arange(len(prims))
    action = pos[R.action[:, prims]]
    if (action < 0).any():
        raise VerificationFailed("orbit of a primitive idempotent left the set")
    return GSet(R.group, action), prims


def is_lambda_clarified(R: GRing, lam: UpwardClosedSet) -> bool:
    """True iff every typed idempotent has its type in lam.  The types are
    G (the type of 0) and the subgroups above the stabilizer of some
    primitive idempotent, and lam is upward closed."""
    X, _ = primitive_gset(R)
    return R.group.full_subgroup in lam and all(
        o.stabilizer in lam for o in orbit_decomposition(X))


def is_clarified(R: GRing) -> bool:
    """No type-H idempotent for H a proper subgroup."""
    return is_lambda_clarified(R, upward_closure(R.group, R.group.full_subgroup))


# -- coinduction, restriction, product ----------------------------------


def _check_subgroup_ring(H: Subgroup, S: GRing) -> None:
    K, _ = H.as_group
    if S.group.order != K.order or S.group.mul_table != K.mul_table:
        raise GroupMismatch("S must be a ring with action of H.as_group")


def coinduce_gring(G: FiniteGroup, H: Subgroup, S: GRing) -> GRing:
    """The G-ring Fun(G/H, S) with the coset-representative twisted action.

    Cosets are ordered canonically (identity coset first) and the chosen
    representative of each coset is its minimal element.  Component i of the
    product corresponds to coset i, and gamma sends the value at coset
    gamma^-1 c to the value at c, twisted by rep(c)^-1 gamma rep(gamma^-1 c)
    acting through S.  Its ring is the product of |G:H| copies of S's ring.
    """
    _check_subgroup_ring(H, S)
    reps = [c[0] for c in H.left_cosets()]
    m = len(reps)
    ring = product_ring([S.ring] * m, label=f"Fun({G.name}/{H.elements}, {S.ring.label})")
    sizes = [S.ring.size] * m
    n = ring.size
    comps = prod_components(sizes)
    action = np.zeros((G.order, n), dtype=np.int64)
    for gamma in G.elements():
        ginv = G.inv(gamma)
        srcs = [H.coset_index[G.mul(ginv, r)] for r in reps]
        action[gamma] = prod_encode(sizes, [
            S.action[H.local_index[G.mul(G.mul(G.inv(r), gamma), reps[src])]][comps[src]]
            for r, src in zip(reps, srcs)])
    return GRing(ring, G, action)


def gring_restrict(K: Subgroup, R: GRing) -> GRing:
    """The same ring with the action restricted to K (as its own group)."""
    if R.group is not K.parent:
        raise GroupMismatch("K must be a subgroup of R's group")
    Kg, embed = K.as_group
    return GRing(R.ring, Kg, R.action[list(embed)])


def gring_product(*rings: GRing) -> GRing:
    """Componentwise product, indexed like product_ring; it equals the left
    fold of binary products, and one G-ring is its own product."""
    if not rings:
        raise DefinitionError("need at least one factor")
    G = rings[0].group
    if any(R.group is not G for R in rings):
        raise GroupMismatch("product needs a common group")
    if len(rings) == 1:
        return rings[0]
    ring = product_ring([R.ring for R in rings])
    sizes = [R.ring.size for R in rings]
    comps = prod_components(sizes)
    action = [prod_encode(sizes, [R.action[g][c] for R, c in zip(rings, comps)])
              for g in G.elements()]
    return GRing(ring, G, action)


# -- decomposition into coinductions of clarified pieces -----------------


@dataclass(frozen=True)
class IdempotentClass:
    """The primitive idempotents of a G-ring whose stabilizers are conjugate
    to rep: bases holds one point of each orbit, stabilized by exactly rep,
    and unit is the sum of every orbit, the G-fixed idempotent cutting out
    the class."""

    rep: Subgroup
    bases: List[int]
    unit: int


def idempotent_classes(R: GRing) -> List[IdempotentClass]:
    """The primitive idempotents of R grouped by conjugacy class of
    stabilizer, classes ordered by representative (order, then elements)."""
    G = R.group
    X, prims = primitive_gset(R)
    classes: Dict[Subgroup, List[Orbit]] = {}
    for orbit in orbit_decomposition(X):
        classes.setdefault(G.conjugacy_class_rep(orbit.stabilizer), []).append(orbit)
    out = []
    for rep, orbits in sorted(classes.items(), key=lambda c: (c[0].order, c[0].elements)):
        # each base is the first point whose stabilizer IS the representative
        bases = [prims[next(x for x in o.points if X.stabilizer(x) is rep)] for o in orbits]
        out.append(IdempotentClass(rep=rep, bases=bases, unit=R.ring.add_many(
            prims[x] for o in orbits for x in o.points)))
    return out


@dataclass
class GRingDecomposition:
    """factors[i] = (subgroup representative H, clarified H-ring); the
    witness maps the reassembled product of coinductions onto the input."""

    factors: List[Tuple[Subgroup, GRing]]
    reassembled: GRing
    witness: RingHom


def decompose_gring(R: GRing) -> GRingDecomposition:
    """Split a G-ring as a product over conjugacy classes of coinductions of
    clarified pieces, with an explicit equivariant isomorphism witness.

    This is the bottom level of full_decomposition(fixed_point_functor(R)),
    whose bottom G-ring is R element for element: a morphism of Tambara
    functors commutes with conjugation, the G-action at the bottom level,
    so the witness at e is equivariant."""
    if R.ring.is_zero_ring():
        raise ZeroRing("cannot decompose the zero ring")
    from .decompose import full_decomposition
    from .functors import fixed_point_functor

    dec = full_decomposition(fixed_point_functor(R))
    reassembled = dec.reassembled.bottom_gring()
    witness = dec.witness.maps[R.group.trivial_subgroup]
    return GRingDecomposition(factors=[(H, ell.bottom_gring()) for H, ell in dec.factors],
                              reassembled=reassembled,
                              witness=RingHom(reassembled.ring, R.ring, tuple(witness.tolist())))
