"""Search for real-orthogonal conjugations that make a matrix representable.

A complex symmetric 3x3 matrix M is the matrix of a truncated Toeplitz
operator with respect to *some* conjugation-fixed basis exactly when an
orthogonal U exists with U M U^T satisfying the Clark-basis relation.
Orthogonality contributes six real constraints, the relation one complex
equation in the conjugated off-diagonal entries.  We enforce the former
exactly by parametrizing SO(3) with rotation vectors and run a seeded
multistart local search on the latter.  Negating U leaves U M U^T unchanged,
so searching the rotation group alone loses nothing.

A miss is a budget statement, not a proof: the report says so explicitly.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial.transform import Rotation

from .clark import ClarkBasis
from .modelspace import KThetaElement, OrthonormalBasis
from .repcheck import (
    Certificate,
    Sym3,
    default_points,
    detthm_test,
    relation_coefficients,
)

__all__ = [
    "OrthMatrix3",
    "SolverConfig",
    "SolveReport",
    "creal_basis_from_orthogonal",
    "conjugate_representation",
    "residuals",
    "solve",
    "spectral_shortcut",
]


@dataclass(frozen=True)
class OrthMatrix3:
    """Real orthogonal 3x3 matrix stored row-major as nine scalars."""

    r: tuple

    def __post_init__(self):
        r = tuple(float(x) for x in self.r)
        if len(r) != 9:
            raise ValueError("need exactly 9 entries")
        m = np.array(r).reshape(3, 3)
        if np.linalg.norm(m @ m.T - np.eye(3)) > 1e-10:
            raise ValueError("rows are not orthonormal")
        if abs(abs(np.linalg.det(m)) - 1.0) > 1e-10:
            raise ValueError("determinant is not +-1")
        object.__setattr__(self, "r", r)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.r).reshape(3, 3)

    @classmethod
    def from_array(cls, m) -> "OrthMatrix3":
        return cls(tuple(np.asarray(m, dtype=float).reshape(9)))


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 100
    tol: float = 1e-8
    seed: int = 0
    variant: str = "general"
    max_evals: int = 500
    step_tol: float = 1e-12


@dataclass(frozen=True)
class SolveReport:
    found: bool
    best_matrix: OrthMatrix3
    best_residual: float
    conjugated: Sym3
    certificate: Certificate
    starts_used: int
    message: str


def creal_basis_from_orthogonal(cb: ClarkBasis, u: OrthMatrix3) -> OrthonormalBasis:
    """Real-orthogonal recombination v_i = sum_j U[j,i] cb_j.

    Real coefficients keep every element conjugation-fixed, and orthogonality
    of U keeps the family orthonormal; this parametrizes all conjugation-fixed
    bases once one Clark basis is in hand.
    """
    numerators = cb.basis.numerators @ u.array
    return OrthonormalBasis.from_elements(
        (KThetaElement(cb.theta, tuple(col)) for col in numerators.T),
        tag=f"{cb.basis.tag}+rot",
    )


def conjugate_representation(s: Sym3, u: OrthMatrix3) -> Sym3:
    """U S U^T, exactly symmetric by construction."""
    m = u.array
    prod = m @ s.array @ m.T
    sym = (prod + prod.T) / 2.0
    return Sym3(sym[0, 0], sym[1, 1], sym[2, 2], sym[0, 1], sym[0, 2], sym[1, 2])


def _relation_value(s: Sym3, u_mat: np.ndarray, etas, c4, c5) -> complex:
    prod = u_mat @ s.array @ u_mat.T
    a4 = prod[0, 1]
    a5 = prod[0, 2]
    a6 = prod[1, 2]
    return (etas[2] - etas[1]) * a6 - c4 * a4 - c5 * a5


def residuals(s: Sym3, u: OrthMatrix3, cb: ClarkBasis, variant: str = "general"):
    """(orthogonality defect, relation defect) for a candidate conjugator."""
    m = u.array
    orth = float(np.linalg.norm(m @ m.T - np.eye(3)))
    c4, c5 = relation_coefficients(cb, variant)
    rel = abs(_relation_value(s, m, cb.etas, c4, c5))
    return orth, float(rel)


def spectral_shortcut(s: Sym3) -> Optional[OrthMatrix3]:
    """Orthogonal diagonalizer for a real symmetric input, else None.

    Real symmetric matrices are exactly the easy case: the spectral theorem
    hands us U with U S U^T diagonal, which satisfies the relation trivially.
    Used to seed the solver.
    """
    m = s.array
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m.imag).max() > 1e-12 * scale:
        return None
    _, vecs = np.linalg.eigh(m.real)
    u = vecs.T
    if np.linalg.det(u) < 0:
        u = -u
    return OrthMatrix3.from_array(u)


def solve(
    s: Sym3,
    cb: ClarkBasis,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Multistart search over SO(3) for a conjugation satisfying the relation.

    Start 0 is the identity, start 1 is the spectral diagonalizer when the
    input is real; the rest are random rotations with per-start seeds derived
    from (config.seed, index), so the outcome is independent of scheduling.
    The first start reaching the tolerance wins and later starts are skipped;
    ties are impossible because the winner is (residual, start index).

    The tolerance is config.tol * min(1, ||S||_F), relative for a small S
    and never looser than config.tol; the zero matrix is solved at start 0.
    """
    c4, c5 = relation_coefficients(cb, config.variant)
    etas = cb.etas
    target = config.tol * min(1.0, float(np.linalg.norm(s.array)))

    def fun(x):
        u_mat = Rotation.from_rotvec(x).as_matrix()
        val = _relation_value(s, u_mat, etas, c4, c5)
        return np.array([val.real, val.imag])

    def seed_for(index: int) -> np.ndarray:
        if index == 0:
            return np.zeros(3)
        if index == 1:
            shortcut = spectral_shortcut(s)
            if shortcut is not None:
                return Rotation.from_matrix(shortcut.array).as_rotvec()
        rng = np.random.default_rng((config.seed, index))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        return axis * (np.pi * rng.random())

    best = None  # (residual, index, rotvec)
    starts_used = 0
    for index in range(config.starts):
        starts_used += 1
        x0 = seed_for(index)
        res0 = float(np.linalg.norm(fun(x0)))
        if res0 <= target:
            best = (res0, index, x0)
            break
        fit = least_squares(
            fun,
            x0,
            method="trf",
            max_nfev=config.max_evals,
            xtol=config.step_tol,
            ftol=None,
            gtol=None,
        )
        res = float(np.linalg.norm(fun(fit.x)))
        if best is None or res < best[0]:
            best = (res, index, fit.x)
        if res <= target:
            break

    residual, _, rotvec = best
    u = OrthMatrix3.from_array(Rotation.from_rotvec(rotvec).as_matrix())
    conjugated = conjugate_representation(s, u)
    cert = detthm_test(conjugated, cb.basis, default_points(cb.theta)).certificate
    found = residual <= target
    message = (
        "solution found"
        if found
        else "no solution found within budget (not a proof of non-existence)"
    )
    return SolveReport(
        found=found,
        best_matrix=u,
        best_residual=residual,
        conjugated=conjugated,
        certificate=cert,
        starts_used=starts_used,
        message=message,
    )
