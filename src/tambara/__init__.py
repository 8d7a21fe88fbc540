"""Equivariant algebra toolkit.

Represents Mackey, Green, and Tambara functors for a finite group over
explicit finite commutative rings, verifies the structural axioms
exhaustively, and decomposes Tambara functors into products of coinductions
of clarified factors.
"""

from .groups import (
    FiniteGroup,
    Subgroup,
    UpwardClosedSet,
    double_cosets,
    is_subconjugate,
    subgroups,
    upward_closure,
    weyl_group,
)
from .gsets import (
    GSet,
    GSetMap,
    ExponentialDiagram,
    dependent_product,
    orbit_decomposition,
    pullback,
)
from .rings import (
    FiniteRing,
    GRing,
    RingHom,
    IdempotentReport,
    classify_idempotent,
    coinduce_gring,
    decompose_gring,
    fq,
    gring_product,
    idempotents,
    is_clarified,
    is_lambda_clarified,
    primitive_idempotents,
    product_ring,
    zero_ring,
    zn,
)
from .functors import (
    TambaraData,
    TambaraMorphism,
    CheckReport,
    check_axioms,
    coinduce,
    constant_functor,
    eval_along,
    fixed_point_functor,
    functor_isomorphism,
    green_counterexample,
    mackey_decomposition_iso,
    product,
    restrict,
    zero_functor,
)
from ._burnside import burnside_mod
from .decompose import (
    DecompositionResult,
    clarify,
    detect_coinduction,
    diagonalize_automorphism,
    factor_through_clarification,
    full_decomposition,
    split_by_bottom_idempotents,
)

__version__ = "0.1.0"
