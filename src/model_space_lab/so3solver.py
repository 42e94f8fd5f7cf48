"""Search for real-orthogonal conjugations that make a matrix representable.

A complex symmetric 3x3 matrix M is the matrix of a truncated Toeplitz
operator with respect to *some* conjugation-fixed basis exactly when an
orthogonal U exists with U M U^T satisfying the Clark-basis relation
r(U) = sum K o (U M U^T) = 0, one complex equation weighted by a fixed
matrix K.  The search moves on SO(3) itself: a step d in so(3) updates
U <- exp([d]x) U, so every iterate is exactly a rotation, and the derivative
of r along each generator G is sum K o (G A - A G) with A = U M U^T.  A
seeded multistart Gauss-Newton iteration with minimum-norm steps (two real
equations, three unknowns) drives r to zero.  Negating U leaves U M U^T
unchanged, so searching the rotation group alone loses nothing.

A miss is a budget statement, not a proof: the report says so explicitly.
"""

import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .clark import ClarkBasis
from .config import REP_TOL
from .modelspace import OrthonormalBasis
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
    """Options of a run; the first four are the CLI's options, checked here once.

    ValueError unless ``starts`` is an int >= 1, ``tol`` a finite number > 0,
    ``seed`` an int >= 0 (bools refused) and ``variant`` "paper" or "general".
    """

    starts: int = 100
    tol: float = REP_TOL
    seed: int = 0
    variant: str = "general"
    max_evals: int = 500  # evaluations of the relation and its Jacobian per start

    def __post_init__(self):
        for name, low in (("starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name}: expected an integer >= {low}, got {value!r}")
        # comparisons, not float(), so that a huge int is refused instead of overflowing
        positive = isinstance(self.tol, (int, float)) and 0 < self.tol <= sys.float_info.max
        if isinstance(self.tol, bool) or not positive:
            raise ValueError(f"tol: expected a finite number > 0, got {self.tol!r}")
        if self.variant not in ("paper", "general"):
            raise ValueError(f"variant: expected 'paper' or 'general', got {self.variant!r}")


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
    return OrthonormalBasis(cb.theta, cb.basis.coords @ u.array)


def conjugate_representation(s: Sym3, u: OrthMatrix3) -> Sym3:
    """U S U^T, exactly symmetric by construction."""
    m = u.array
    prod = m @ s.array @ m.T
    sym = (prod + prod.T) / 2.0
    return Sym3(sym[0, 0], sym[1, 1], sym[2, 2], sym[0, 1], sym[0, 2], sym[1, 2])


def _hat(w) -> np.ndarray:
    """[w]x, the skew matrix with [w]x v = w x v."""
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


_GENERATORS = np.array([_hat(e) for e in np.eye(3)])


def _rotation(w) -> np.ndarray:
    """exp([w]x) by Rodrigues' formula, written without a branch at w = 0."""
    k = _hat(w)
    theta = np.linalg.norm(w)
    return (
        np.eye(3)
        + np.sinc(theta / np.pi) * k
        + 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2 * (k @ k)
    )


def _relation_weight(cb: ClarkBasis, variant: str) -> np.ndarray:
    """K with r(U) = sum K o (U S U^T) = (eta3 - eta2) a6 - c4 a4 - c5 a5."""
    c4, c5 = relation_coefficients(cb, variant)
    k = np.zeros((3, 3), dtype=complex)
    k[1, 2] = cb.etas[2] - cb.etas[1]
    k[0, 1] = -c4
    k[0, 2] = -c5
    return k


def _relation(weight: np.ndarray, m: np.ndarray, u: np.ndarray):
    """(Re r, Im r) at U and its 2x3 Jacobian along U <- exp([d]x) U.

    With A = U M U^T, r = sum K o A and the derivative along the k-th
    generator G_k is sum K o (G_k A - A G_k).
    """
    a = u @ m @ u.T
    r = np.sum(weight * a)
    dr = np.sum(weight * (_GENERATORS @ a - a @ _GENERATORS), axis=(1, 2))
    return np.array([r.real, r.imag]), np.array([dr.real, dr.imag])


def residuals(s: Sym3, u: OrthMatrix3, cb: ClarkBasis, variant: str = "general"):
    """(orthogonality defect, relation defect) for a candidate conjugator."""
    m = u.array
    orth = float(np.linalg.norm(m @ m.T - np.eye(3)))
    f, _ = _relation(_relation_weight(cb, variant), s.array, m)
    return orth, float(np.linalg.norm(f))


def least_squares(fun, u0: np.ndarray, max_evals: int) -> np.ndarray:
    """Gauss-Newton on SO(3) from the rotation u0; returns the best rotation seen.

    ``fun(U)`` returns the real residual vector f and its Jacobian J along
    the generators of so(3).  The step is the minimum-norm solution of
    J d = -f, which stays well defined when J loses rank, and it is halved
    until ||f|| decreases.  The loop stops after ``max_evals`` calls of
    ``fun`` or when halving cannot move the rotation any more.
    """
    u = u0
    f, jac = fun(u)
    step = np.linalg.lstsq(jac, -f, rcond=None)[0]
    for _ in range(max_evals - 1):
        if np.linalg.norm(step) < np.finfo(float).eps:
            break
        trial = _rotation(step) @ u
        f_trial, jac = fun(trial)
        if np.linalg.norm(f_trial) < np.linalg.norm(f):
            u, f = trial, f_trial
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        else:
            step /= 2.0
    return u


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
    """Multistart Gauss-Newton search over SO(3) for a conjugation satisfying the relation.

    Start 0 is the identity, start 1 is the spectral diagonalizer when the
    input is real; the rest are random rotations with per-start seeds derived
    from (config.seed, index), so the outcome is independent of scheduling.
    A start that misses the tolerance is refined by ``least_squares``, which
    spends at most config.max_evals evaluations of the relation.  The first
    start reaching the tolerance wins and later starts are skipped; ties are
    impossible because the winner is (residual, start index).

    The tolerance is config.tol * min(1, ||S||_F), relative for a small S
    and never looser than config.tol; the zero matrix is solved at start 0.
    """
    m = s.array
    fun = partial(_relation, _relation_weight(cb, config.variant), m)
    target = config.tol * min(1.0, float(np.linalg.norm(m)))

    def start(index: int) -> np.ndarray:
        if index == 0:
            return np.eye(3)
        if index == 1:
            shortcut = spectral_shortcut(s)
            if shortcut is not None:
                return shortcut.array
        rng = np.random.default_rng((config.seed, index))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        return _rotation(axis * (np.pi * rng.random()))

    best = None  # (residual, rotation)
    for index in range(config.starts):
        u = start(index)
        if np.linalg.norm(fun(u)[0]) > target:
            u = least_squares(fun, u, config.max_evals)
        res = float(np.linalg.norm(fun(u)[0]))
        if best is None or res < best[0]:
            best = (res, u)
        if res <= target:
            break

    starts_used = index + 1
    residual, u_mat = best
    u = OrthMatrix3.from_array(u_mat)
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
