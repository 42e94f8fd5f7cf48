"""Search for real-orthogonal conjugations that make a matrix representable.

A complex symmetric 3x3 matrix M is the matrix of a truncated Toeplitz
operator with respect to *some* conjugation-fixed basis exactly when an
orthogonal U exists with U M U^T satisfying the Clark-basis relation
r(U) = sum K o (U M U^T) = 0, one complex equation weighted by the fixed
matrix K of ``repcheck.relation_weight``.  The search moves on SO(3) itself:
a step d in so(3) updates U <- exp([d]x) U, so every iterate is exactly a
rotation, and the derivative of r along each generator G is
sum K o (G A - A G) with A = U M U^T.  A seeded multistart Gauss-Newton
iteration with minimum-norm steps (two real equations, three unknowns)
drives r to zero.  Negating U leaves U M U^T unchanged, so searching the
rotation group alone loses nothing.  The report hands back the rotation
found as a read-only (3, 3) float array, row-major, with its residual and
U M U^T; the determinant-test certificate is the solve-so3 report's own.

A miss is a budget statement, not a proof: the report says so explicitly.
"""

from collections import namedtuple
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .clark import ClarkBasis
from .config import REAL_TOL, REP_TOL, Checked, finite, integer, rep_tol
from .repcheck import Sym3, relation_weight, _frobenius, _ldexp

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve",
    "spectral_shortcut",
]

MAX_EVALS = 500  # evaluations of the relation and its Jacobian per start


class SolverConfig(Checked, namedtuple("SolverConfig", "starts tol seed")):
    """Options of a run, the CLI's three options, checked here once.

    ValueError unless ``starts`` >= 1 and ``seed`` >= 0 are integers (stored as int)
    and ``tol`` is a finite number > 0 (stored as float).
    """

    __slots__ = ()

    def __new__(cls, starts=100, tol=REP_TOL, seed=0):
        starts, seed, tol = integer(starts, 1, "starts"), integer(seed, 0, "seed"), rep_tol(tol)
        return cls._make((starts, tol, seed))


class SolveReport(NamedTuple):
    found: bool
    best_matrix: np.ndarray  # the best rotation U, (3, 3) float, read-only
    best_residual: float
    conjugated: Sym3
    starts_used: int
    message: str


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


def _relation(weight: np.ndarray, m: np.ndarray, u: np.ndarray):
    """(Re r, Im r) at U and its 2x3 Jacobian along U <- exp([d]x) U.

    With A = U M U^T, r = sum K o A and the derivative along the k-th
    generator G_k is sum K o (G_k A - A G_k).
    """
    a = u @ m @ u.T
    r = np.sum(weight * a)
    dr = np.sum(weight * (_GENERATORS @ a - a @ _GENERATORS), axis=(1, 2))
    return np.array([r.real, r.imag]), np.array([dr.real, dr.imag])


def least_squares(fun, u0: np.ndarray):
    """Gauss-Newton on SO(3) from the rotation u0: (the best rotation seen, its ||f||).

    ``fun(U)`` returns the real residual vector f and its Jacobian J along
    the generators of so(3).  The step is the minimum-norm solution of
    J d = -f, which stays well defined when J loses rank, and it is halved
    until ||f|| decreases.  The loop stops after ``MAX_EVALS`` calls of
    ``fun`` or when halving cannot move the rotation any more.
    """
    u = u0
    f, jac = fun(u)
    step = np.linalg.lstsq(jac, -f, rcond=None)[0]
    for _ in range(MAX_EVALS - 1):
        if np.linalg.norm(step) < np.finfo(float).eps:
            break
        trial = _rotation(step) @ u
        f_trial, jac = fun(trial)
        if np.linalg.norm(f_trial) < np.linalg.norm(f):
            u, f = trial, f_trial
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        else:
            step /= 2.0
    return u, float(np.linalg.norm(f))


def spectral_shortcut(s: Sym3) -> Optional[np.ndarray]:
    """Rotation U that diagonalizes a real symmetric input, else None.

    Real symmetric matrices are exactly the easy case: the spectral theorem
    hands us U with U S U^T diagonal, which satisfies the relation trivially.
    Used to seed the solver.  A non-finite S is a ValueError.
    """
    m = finite(s.array, "S")
    if not np.abs(m.imag).max() <= REAL_TOL * np.abs(m.view(float)).max():
        return None
    _, vecs = np.linalg.eigh(m.real)
    u = np.ascontiguousarray(vecs.T)  # row-major, as every other start
    return -u if np.linalg.det(u) < 0 else u


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
    spends at most ``MAX_EVALS`` evaluations of the relation and returns the
    residual it reached.  The first start reaching the tolerance wins and later
    starts are skipped; ties are impossible: the winner is (residual, start index).

    The tolerance is config.tol * ||S||_F, the threshold of
    ``clark_s6_test``, so the verdict does not change when S is scaled; the
    zero matrix is solved at start 0.  The search runs on ``s.normalized()``:
    the relation is linear in S and the step scale-free.
    """
    unit, e = s.normalized()
    fun = partial(_relation, relation_weight(cb), unit.array)
    target = config.tol * _frobenius(unit.vector)

    def start(index: int) -> np.ndarray:
        if index == 0:
            return np.eye(3)
        if index == 1:
            shortcut = spectral_shortcut(unit)
            if shortcut is not None:
                return shortcut
        rng = np.random.default_rng((config.seed, index))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        return _rotation(axis * (np.pi * rng.random()))

    best = None  # (residual, rotation)
    for index in range(config.starts):
        u = start(index)
        res = float(np.linalg.norm(fun(u)[0]))
        if res > target:
            u, res = least_squares(fun, u)
        if best is None or res < best[0]:
            best = (res, u)
        if res <= target:
            break

    residual, u = best
    u.flags.writeable = False
    conjugated = Sym3.from_array(u @ unit.array @ u.T)
    found = residual <= target
    message = "solution found" if found else "no solution found within budget (not a proof of non-existence)"
    back = _ldexp(np.concatenate([conjugated, [residual]]), e).tolist()
    return SolveReport(
        found=found,
        best_matrix=u,
        best_residual=back[6].real,
        conjugated=Sym3._make(back[:6]),
        starts_used=index + 1,
        message=message,
    )
