"""Finite Blaschke model spaces, Clark bases, and representability checks.

The package answers one concrete question: when is a 3x3 complex symmetric
matrix the matrix of a truncated Toeplitz operator with respect to a
conjugation-fixed orthonormal basis of a 3-dimensional model space?  It
provides the function-theoretic layer (Blaschke products, reproducing
kernels, the canonical conjugation), the modified Clark bases, the two
decision procedures (determinant test and single-relation test), a seeded
SO(3) search for basis changes, and a JSON command line.
"""

from .blaschke import (
    BlaschkeProduct,
    LevelSetError,
    PoleEvaluationError,
    boundary_kernel_norm_sq,
    cubic_coefficients,
    level_set,
    polynomial_pair,
)
from .clark import (
    ClarkBasis,
    ClarkParams,
    ClarkTargetError,
    clark_operator_matrix,
    clark_target,
    half_arg_root,
    modified_clark_basis,
)
from .config import Indeterminate
from .modelspace import (
    BasisError,
    KThetaElement,
    OrthonormalBasis,
    conjugate,
    conjugation_residual,
    gram_matrix,
    inner_product,
    kernel_element,
    norm,
    reference_onb,
)
from .repcheck import (
    Certificate,
    CounterexampleReport,
    IndeterminateError,
    PointConfig,
    Sym3,
    build_columns,
    clark_s6_test,
    counterexample_family,
    counterexample_report,
    default_points,
    detthm_test,
    match_counterexample_family,
    relation_coefficients,
)
from .so3solver import (
    OrthMatrix3,
    SolveReport,
    SolverConfig,
    conjugate_representation,
    creal_basis_from_orthogonal,
    residuals,
    solve,
    spectral_shortcut,
)
from .tto import Symbol, TTOMatrix, random_tto, tto_matrix_from_symbol

__version__ = "0.1.0"
