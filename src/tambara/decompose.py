"""Product decomposition of Tambara functors into coinductions of clarified
factors, and the clarification localization built from it.

The pipeline runs in three bottom-level-driven stages: a complete
family of fixed orthogonal idempotents at the bottom level splits the whole
functor (norms of the idempotents cut out every level); a typed idempotent
whose orbit is a complete orthogonal family identifies the functor as a
coinduction, detected entirely at the bottom level; combining both yields
the decomposition with at most one factor per conjugacy class.  Norms are
essential throughout: every operation here rejects Green-only input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    CrossTermFound,
    FactorizationFailed,
    NoNorms,
    NotAutomorphism,
    NotComplete,
    NotFixed,
    NotIdempotent,
    NotOrthogonal,
    TargetNotClarified,
    VerificationFailed,
    ZeroFunctor,
)
from .groups import Subgroup, UpwardClosedSet, is_subconjugate, subgroups
from .gsets import coset_gset, equivariant_maps, orbit_decomposition
from .functors import (
    TambaraData,
    TambaraMorphism,
    coinduce,
    evaluate_gset,
    identity_morphism,
    product,
    restrict,
    zero_functor,
)
from .rings import (
    GRing,
    idempotent_classes,
    idempotent_subring,
    is_clarified,
    is_lambda_clarified,
    primitive_gset,
    prod_components,
    prod_encode,
)


def _idempotent_slice(T: TambaraData, units: Dict[Subgroup, int], label: str
                      ) -> Tuple[TambaraData, Dict[Subgroup, np.ndarray],
                                 Dict[Subgroup, np.ndarray]]:
    """The sub-Tambara functor on the ideals units[H] * level(H).

    Returns (slice, includes, positions): includes[H] maps the slice's
    level H into T's, and positions[H] maps each element of T's level H to
    its index in the slice, or -1 outside the ideal.  units must be
    norm-coherent (res/nm/conj carry them to each other); a structure map
    leaving an ideal raises VerificationFailed.
    """
    levels, includes, positions = {}, {}, {}
    for H in subgroups(T.group):
        levels[H], includes[H], positions[H] = idempotent_subring(T.levels[H], units[H])

    def cut(name, key, src, dst):
        # for nm, x = unit_K x forces nm(x) = nm(unit_K) nm(x) = unit_H nm(x),
        # so the raw norm already lands in the target ideal
        out = positions[dst][T.table(name, key)[includes[src]]]
        if (out < 0).any():
            raise VerificationFailed(f"{name} does not preserve the idempotent ideal")
        return out

    return TambaraData.build(T.group, levels, cut, T.has_norms, label), includes, positions


def _split(T: TambaraData, ds: Sequence[int], B: GRing
           ) -> Tuple[List[TambaraData], List[Dict[Subgroup, np.ndarray]]]:
    """Check that ds is a complete family of G-fixed orthogonal idempotents
    of T's bottom level B, whose norms are complete and orthogonal at every
    level, and slice T along it.  Returns (factors, includes) with
    includes[i][H] the inclusion of factor i's level H into T's."""
    G = T.group
    e = G.trivial_subgroup
    bottom = T.bottom
    for d in ds:
        if int(bottom.mul[d, d]) != d:
            raise NotIdempotent(f"{d} is not idempotent at the bottom level")
        if d == bottom.zero:
            raise NotComplete("zero is not allowed in a complete family")
        if any(B.act(g, d) != d for g in G.elements()):
            raise NotFixed(f"idempotent {d} is not G-fixed")
    for i, a in enumerate(ds):
        for b in ds[i + 1:]:
            if int(bottom.mul[a, b]) != bottom.zero:
                raise NotOrthogonal(f"{a} and {b} are not orthogonal")
    if bottom.add_many(ds) != bottom.one:
        raise NotComplete("idempotents do not sum to 1")

    subs = subgroups(G)
    unit_families = [{H: int(T.nm[(e, H)][d]) for H in subs} for d in ds]
    for H in subs:
        ring = T.levels[H]
        for fam in unit_families:
            u = fam[H]
            if int(ring.mul[u, u]) != u:
                raise VerificationFailed("norm of an idempotent is not idempotent")
        if ring.add_many(fam[H] for fam in unit_families) != ring.one:
            raise VerificationFailed(
                f"norms of the family are not complete at level {H.elements}")
        for i, f1 in enumerate(unit_families):
            for f2 in unit_families[i + 1:]:
                if int(ring.mul[f1[H], f2[H]]) != ring.zero:
                    raise VerificationFailed(
                        f"norms of the family are not orthogonal at level {H.elements}")

    slices = [_idempotent_slice(T, fam, f"{T.label}|slice") for fam in unit_families]
    return [f for f, _, _ in slices], [inc for _, inc, _ in slices]


def _sum_of_includes(T: TambaraData, includes: Sequence[Dict[Subgroup, np.ndarray]],
                     parts: Dict[Subgroup, Sequence[np.ndarray]]
                     ) -> Dict[Subgroup, np.ndarray]:
    """The levelwise map (x_1, ..., x_k) -> sum_i include_i(x_i) into T,
    where parts[H][i] lists the i-th components x_i at level H."""
    maps = {}
    for H, xs in parts.items():
        ring = T.levels[H]
        acc = np.full(len(xs[0]), ring.zero, dtype=np.int64)
        for inc, x in zip(includes, xs):
            acc = ring.add[acc, inc[H][x]]
        maps[H] = acc
    return maps


def split_by_bottom_idempotents(T: TambaraData, ds: Sequence[int]
                                ) -> Tuple[List[TambaraData], TambaraMorphism]:
    """Split T along a complete family of G-fixed orthogonal idempotents of
    the bottom level; factor i lives on the ideals nm_e^H(d_i) level(H).

    Returns (factors, witness) with witness an isomorphism from the product
    of the factors onto T.
    """
    if not T.has_norms:
        raise NoNorms("splitting requires norms; the statement fails for Green functors")
    factors, includes = _split(T, ds, T.bottom_gring())
    P = product(*factors)
    parts = {H: prod_components([f.levels[H].size for f in factors])
             for H in subgroups(T.group)}
    witness = TambaraMorphism(P, T, _sum_of_includes(T, includes, parts))
    if not witness.is_isomorphism():
        raise VerificationFailed("idempotent splitting witness is not bijective")
    return factors, witness


def _coinduction_idempotent(B: GRing) -> Tuple[Subgroup, int]:
    """The least type H of an idempotent of B whose orbit is a complete
    orthogonal family, and the least such idempotent d of type H.

    Such a d is a G-map phi from the primitive idempotents P of B to G/H,
    d the sum of phi's fiber over the identity coset (README, "Idempotent
    types from the primitive idempotents").  A map exists exactly when H
    contains a conjugate of every stabilizer of P.  These H are upward
    closed, so the first of them in lattice order is minimal under
    subconjugacy.  G is always one, with d = 1 when B is not zero.
    """
    G = B.group
    P, prims = primitive_gset(B)
    stabilizers = [o.stabilizer for o in orbit_decomposition(P)]
    H = next(K for K in subgroups(G) if all(is_subconjugate(G, S, K) for S in stabilizers))
    d = min(B.ring.add_many(prims[i] for i in np.flatnonzero(np.asarray(phi.images) == 0))
            for phi in equivariant_maps(P, coset_gset(G, H)))
    return H, d


def detect_coinduction(T: TambaraData
                       ) -> Tuple[Subgroup, TambaraData, TambaraMorphism]:
    """Detect T as a coinduction from the bottom level alone.

    Takes the least type H of a bottom idempotent d whose orbit is a
    complete orthogonal family (the minimal conjugacy classes of such types
    need not be unique; H is the first in lattice order), and builds the
    inner functor on the ideals nm_e^L(d).  Returns (G, T, identity) when
    H is G, as for a clarified T.
    """
    if not T.has_norms:
        raise NoNorms("coinduction detection needs norms")
    G = T.group
    e = G.trivial_subgroup
    if T.bottom.is_zero_ring():
        raise ZeroFunctor("cannot detect coinduction on the zero functor")

    H, d = _coinduction_idempotent(T.bottom_gring())
    if H.order == G.order:
        return G.full_subgroup, T, identity_morphism(T)

    # the inner H-functor: slice Res_H T along the norm units of d
    TH = restrict(H, T)
    units = {S: int(T.nm[(e, H.subgroup_in_parent(S.elements))][d]) for S in subgroups(TH.group)}
    ell, _, positions = _idempotent_slice(TH, units, f"core({T.label})")

    C = coinduce(G, H, ell)

    # unit map T -> Coind_H(ell): the component at the orbit of the coset rK
    # is the ideal projection of res to H cap rKr^-1 after conjugating by r
    maps = {}
    for K in subgroups(G):
        X = coset_gset(G, K).restricted(H)
        val = evaluate_gset(ell, X)
        tables, sizes = [], []
        for o in val.orbits:
            r = K.left_cosets()[o.base][0]
            rK = K.conjugate(r)
            Mloc = o.stabilizer
            M = H.subgroup_in_parent(Mloc.elements)
            tbl = positions[Mloc][T.levels[M].mul[units[Mloc]][T.res[(M, rK)][T.conj[(r, K)]]]]
            if (tbl < 0).any():
                raise VerificationFailed("unit map left the idempotent ideal")
            tables.append(tbl)
            sizes.append(ell.levels[Mloc].size)
        maps[K] = prod_encode(sizes, tables)
    witness = TambaraMorphism(T, C, maps)
    if not witness.is_isomorphism():
        raise VerificationFailed(
            "constructed unit map is not bijective; input violates the axioms")
    return H, ell, witness


@dataclass
class DecompositionResult:
    """factors[i] = (subgroup representative H_i, clarified H_i-functor);
    factor_coinductions[i] = Coind_{H_i}(factor i), whose product is
    reassembled; witness maps reassembled isomorphically onto the input."""

    factors: List[Tuple[Subgroup, TambaraData]]
    factor_coinductions: List[TambaraData]
    reassembled: TambaraData
    witness: TambaraMorphism


def full_decomposition(T: TambaraData) -> DecompositionResult:
    """Decompose T as a product of coinductions of clarified factors, with
    at most one factor per conjugacy class of subgroups."""
    if not T.has_norms:
        raise NoNorms("the product decomposition fails for Green functors")
    if T.is_zero() or T.bottom.is_zero_ring():
        raise ZeroFunctor("cannot decompose the zero functor")
    G = T.group

    B = T.bottom_gring()
    split_factors, includes = _split(T, [c.unit for c in idempotent_classes(B)], B)

    factors = []
    coinductions = []
    inverses = []
    for Ti in split_factors:
        H, ell, w = detect_coinduction(Ti)
        if not is_clarified(ell.bottom_gring()):
            raise VerificationFailed("detected core is not clarified")
        factors.append((H, ell))
        coinductions.append(w.target)
        inverses.append(w.inverse())

    # reassembled -> T sends (y_1, ..., y_k) to sum_i include_i(w_i^-1(y_i))
    reassembled = product(*coinductions)
    parts = {}
    for K in subgroups(G):
        comps = prod_components([c.levels[K].size for c in coinductions])
        parts[K] = [w_inv.maps[K][comp] for w_inv, comp in zip(inverses, comps)]
    witness = TambaraMorphism(reassembled, T, _sum_of_includes(T, includes, parts))
    if not witness.is_isomorphism():
        raise VerificationFailed("decomposition witness is not bijective")
    return DecompositionResult(factors=factors, factor_coinductions=coinductions,
                               reassembled=reassembled, witness=witness)


def clarify(T: TambaraData, lam: UpwardClosedSet
            ) -> Tuple[TambaraData, TambaraMorphism]:
    """Project away the coinduced factors whose subgroup is outside lam.

    Returns (clarified functor, projection morphism from T).  When every
    factor survives the result is T itself with the identity; when none
    survives it is the zero functor.
    """
    if not T.has_norms:
        raise NoNorms("clarification needs norms")
    dec = full_decomposition(T)
    kept = [i for i, (H, _) in enumerate(dec.factors) if H in lam]
    if len(kept) == len(dec.factors):
        return T, identity_morphism(T)
    G = T.group
    inv = dec.witness.inverse()  # T -> reassembled
    if not kept:
        Z = zero_functor(G, has_norms=True)
        maps = {K: np.zeros(T.levels[K].size, dtype=np.int64)
                for K in subgroups(G)}
        return Z, TambaraMorphism(T, Z, maps)
    target = product(*[dec.factor_coinductions[i] for i in kept])
    maps = {}
    for K in subgroups(G):
        sizes = [c.levels[K].size for c in dec.factor_coinductions]
        comps = prod_components(sizes)
        maps[K] = prod_encode([sizes[i] for i in kept], comps[kept])[inv.maps[K]]
    proj = TambaraMorphism(T, target, maps)
    return target, proj


def factor_through_clarification(f: TambaraMorphism, lam: UpwardClosedSet
                                 ) -> TambaraMorphism:
    """Factor f uniquely through the lam-clarification of its source."""
    if not is_lambda_clarified(f.target.bottom_gring(), lam):
        raise TargetNotClarified("codomain is not lam-clarified")
    clarified, proj = clarify(f.source, lam)
    maps = {}
    for K in subgroups(f.source.group):
        c, v = proj.maps[K], f.maps[K]
        out = -np.ones(clarified.levels[K].size, dtype=np.int64)
        out[c] = v
        if (v != out[c]).any():
            raise FactorizationFailed(
                f"f does not kill the kernel of clarification at level {K.elements}")
        if (out < 0).any():
            raise FactorizationFailed("clarification projection is not surjective")
        maps[K] = out
    return TambaraMorphism(clarified, f.target, maps)


def diagonalize_automorphism(phi: TambaraMorphism, dec: DecompositionResult
                             ) -> List[TambaraMorphism]:
    """Express an automorphism of the reassembled product as a product of
    automorphisms of the individual coinduced factors."""
    R = dec.reassembled
    if phi.source is not R or phi.target is not R:
        raise NotAutomorphism("phi must be an endomorphism of dec.reassembled")
    if not phi.is_isomorphism():
        raise NotAutomorphism("phi is not a levelwise bijection")
    G = R.group
    k = len(dec.factors)
    coinds = dec.factor_coinductions
    out = []
    for j in range(k):
        maps = {}
        for K in subgroups(G):
            sizes = [c.levels[K].size for c in coinds]
            comps = prod_components(sizes)
            # embed x at slot j with zeros elsewhere, apply phi, read back
            n = coinds[j].levels[K].size
            parts = [c.levels[K].zero for c in coinds]
            parts[j] = np.arange(n)
            image = phi.maps[K][prod_encode(sizes, parts)]
            for i in range(k):
                if i == j:
                    continue
                if not np.array_equal(comps[i][image],
                                      np.full(n, coinds[i].levels[K].zero)):
                    raise CrossTermFound(
                        f"factor {j} leaks into factor {i} at level {K.elements}")
            maps[K] = comps[j][image]
        psi = TambaraMorphism(coinds[j], coinds[j], maps)
        if not psi.is_isomorphism():
            raise CrossTermFound("diagonal block is not an automorphism")
        out.append(psi)
    return out
