"""Shared fixture corpus: groups, G-rings, and functors used across suites.

Everything is built once at import; keep entries small enough that the
whole module loads in a few seconds.
"""

import numpy as np

from helpers import dihedral_group, direct_product, quaternion_group, symmetric_group
from tambara.groups import FiniteGroup, subgroups
from tambara.rings import (
    GRing,
    coinduce_gring,
    fq,
    frobenius,
    product_ring,
    trivial_gring,
    zn,
)
from tambara.functors import (
    coinduce,
    constant_functor,
    fixed_point_functor,
    green_counterexample,
    product,
)
from tambara._burnside import burnside_mod

C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
C4 = FiniteGroup.cyclic(4)
C5 = FiniteGroup.cyclic(5)
C6 = FiniteGroup.cyclic(6)
C8 = FiniteGroup.cyclic(8)
V4 = direct_product(C2, C2, name="V4")
S3 = symmetric_group(3)
D4 = dihedral_group(4)
Q8 = quaternion_group()

A4 = FiniteGroup.from_permutations([[1, 2, 0, 3], [0, 2, 3, 1]], name="A4")

SMALL_GROUPS = [C2, C3, C4, V4, C5, C6, S3, C8, D4, Q8]
# groups whose subgroup lattices are not chains
LATTICE_GROUPS = [C4, S3, D4, Q8, A4]

F2, F3, F4, F5, F8, F9, F16 = fq(2), fq(3), fq(4), fq(5), fq(8), fq(9), fq(16)
Z4, Z6, Z9 = zn(4), zn(6), zn(9)


def galois_gring(field, G):
    """Cyclic G acting on a finite field by powers of Frobenius."""
    fr = frobenius(field)
    rows = [np.arange(field.size, dtype=np.int32)]
    for _ in range(G.order - 1):
        rows.append(fr[rows[-1]])
    return GRing(field, G, np.array(rows))


def sign_gring(field, G, parity):
    """G acting on a quadratic field through a {0,1}-valued character."""
    fr = frobenius(field)
    ident = np.arange(field.size, dtype=np.int32)
    return GRing(field, G, np.array([fr if parity(g) else ident
                                     for g in G.elements()]))


def s3_parity(g):
    # S3 as built from permutations: parity of the permutation action on
    # the regular representation is even iff g is a 3-cycle or identity
    order = 1
    x = g
    while x != 0:
        x = S3.mul(x, g)
        order += 1
    return order == 2  # transpositions act by Frobenius


# -- G-ring corpus (>= 10 entries) -----------------------------------------

GRING_CORPUS = {
    "F2_triv_C2": trivial_gring(F2, C2),
    "F3_triv_C2": trivial_gring(F3, C2),
    "F4_galois_C2": galois_gring(F4, C2),
    "F4_triv_C2": trivial_gring(F4, C2),
    "F9_galois_C2": galois_gring(F9, C2),
    "Z4_triv_C2": trivial_gring(Z4, C2),
    "Z6_triv_C2": trivial_gring(Z6, C2),
    "F3xF3_triv_C2": trivial_gring(product_ring([F3, F3]), C2),
    "coind_e_C2_F3": coinduce_gring(C2, C2.trivial_subgroup,
                                    trivial_gring(F3, C2.trivial_subgroup.as_group[0])),
    "F16_galois_C4": galois_gring(F16, C4),
    "F4_through_C4": sign_gring(F4, C4, lambda g: g % 2 == 1),
    "coind_C2_C4_F5": coinduce_gring(C4, C4.subgroup([0, 2]),
                                     trivial_gring(F5, C4.subgroup([0, 2]).as_group[0])),
    "F4_sign_S3": sign_gring(F4, S3, s3_parity),
    "coind_e_V4_F2": coinduce_gring(V4, V4.trivial_subgroup,
                                    trivial_gring(F2, V4.trivial_subgroup.as_group[0])),
}


# -- functor corpus ----------------------------------------------------------

def _coind_const(G, H, R):
    return coinduce(G, H, constant_functor(R, H.as_group[0]))


FP_CORPUS = {name: fixed_point_functor(R) for name, R in GRING_CORPUS.items()}

BURNSIDE_CORPUS = {
    "burnside_C2_2": burnside_mod(C2, 2),
    "burnside_C2_4": burnside_mod(C2, 4),
    "burnside_C3_3": burnside_mod(C3, 3),
    "burnside_C3_9": burnside_mod(C3, 9),
    "burnside_C4_4": burnside_mod(C4, 4),
}

S3_ORDER2 = next(s for s in subgroups(S3) if s.order == 2)
S3_ORDER3 = next(s for s in subgroups(S3) if s.order == 3)

COIND_CORPUS = {
    "coind_e_C2_constF3": _coind_const(C2, C2.trivial_subgroup, F3),
    "coind_e_C3_constF2": _coind_const(C3, C3.trivial_subgroup, F2),
    "coind_C2_C4_FPF4": coinduce(
        C4, C4.subgroup([0, 2]),
        fixed_point_functor(galois_gring(F4, C4.subgroup([0, 2]).as_group[0]))),
    "coind_e_C4_constF2": _coind_const(C4, C4.trivial_subgroup, F2),
    "coind_C2a_S3_constF2": _coind_const(S3, S3_ORDER2, F2),
    "coind_C3_S3_constF3": _coind_const(S3, S3_ORDER3, F3),
    "coind_e_V4_constF2": _coind_const(V4, V4.trivial_subgroup, F2),
    # non-normal subgroup with a nontrivially twisted core
    "coind_C2a_S3_FPF4": coinduce(
        S3, S3_ORDER2, fixed_point_functor(galois_gring(F4, S3_ORDER2.as_group[0]))),
}

PRODUCT_CORPUS = {
    "FPF4_x_coindF2": product(FP_CORPUS["F4_galois_C2"],
                              _coind_const(C2, C2.trivial_subgroup, F2)),
    "coindF3_x_constF2": product(COIND_CORPUS["coind_e_C2_constF3"],
                                 constant_functor(F2, C2)),
    "burnside_sq_C2_4": product(BURNSIDE_CORPUS["burnside_C2_4"],
                                BURNSIDE_CORPUS["burnside_C2_4"]),
}

TAMBARA_CORPUS = {**FP_CORPUS, **BURNSIDE_CORPUS, **COIND_CORPUS, **PRODUCT_CORPUS}

GREEN_CORPUS = {
    "green_cex_2_F2": green_counterexample(2, F2),
    "green_cex_3_F3": green_counterexample(3, F3),
    "green_cex_2_Z4": green_counterexample(2, Z4),
}
