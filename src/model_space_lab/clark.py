"""Modified Clark bases and the rank-one perturbed shift they diagonalize.

For an interior point t and unimodular alpha, the operator

    U = S_t + (alpha + B(t)) (k_t (x) C k_t),    S_t f = P[ (z-t)/(1-conj(t) z) f ],

is unitary on the order-3 model space.  Its eigenvectors sit at the n circle
points where B equals the target

    omega = (alpha + B(t)) / (1 + conj(B(t)) alpha),

and suitably phased, normalized boundary kernels at those points form an
orthonormal basis fixed by the canonical conjugation.  The phase convention
is the half-argument square root: for unimodular w with arg w = gamma taken
by ``blaschke.circle_angle``, its root is exp(i*gamma/2).  It is implemented
once, as the phases of ``clark_rows``, whose ratios are the paper's relation ratios.

Everything is built in TMW coordinates from closed forms: the basis is the
coordinate matrix of the phased kernels, conj(e(eta_i)) * phase_i / norm_i,
and the matrix of U is the Moebius function (A_z - t)(I - conj(t) A_z)^-1 of
the compressed shift A_z plus a rank-one term from the kernel coordinates.

The construction is array-first: ``clark_rows`` runs the whole chain -- the
target, Clark's unitary, the level set, the phases and norms, the coordinates
and the Gram and conjugation residuals, with no J (``blaschke.kernel_pairs``)
-- over a leading axis of N draws, and ``modified_clark_basis`` is its batch of 1.
Each stage of the chain raises its error for its lowest failing row.

Random Clark bases are seeded draws of ``CLARK_DRAW`` uniforms per attempt,
decoded by ``decode_clark_draws``: zeros within ``ZERO_RADIUS`` and t within
``ANCHOR_RADIUS``, away from the circle so level sets stay well separated.
``clark_draws`` runs ``clark_rows`` on one block of attempts.  The counterexample
sweep draws from ``stdlib_uniforms``, so a CLI call never imports ``numpy.random``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .blaschke import BlaschkeProduct, circle_angle, kernel_outer, level_sets, product_stack, products_at
from .config import BASIS_TOL, TARGET_FLOOR, Checked, Indeterminate, number, open_disc, unimodular
from .modelspace import BasisError, OrthonormalBasis, basis_residuals, gram_error, gram_residuals

__all__ = [
    "ClarkParams",
    "ClarkBasis",
    "ClarkRows",
    "ClarkTargetError",
    "clark_targets",
    "clark_rows",
    "modified_clark_basis",
    "clark_operator_matrix",
    "CLARK_DRAW",
    "stdlib_uniforms",
    "decode_clark_draws",
    "clark_draws",
]

# Uniforms per Clark-basis attempt, in this order: three zeros (radius, angle),
# the front constant, t (radius, angle) and alpha.
CLARK_DRAW = 10
ZERO_RADIUS = 0.85  # zeros of a random product
ANCHOR_RADIUS = 0.6  # anchor point t of random Clark parameters


class ClarkTargetError(Indeterminate):
    """The (t, alpha) pair makes the unimodular target numerically undefined.

    |1 + conj(B(t)) alpha| >= 1 - |B(t)| > 0 for every valid pair: this is round-off.
    """


class ClarkParams(Checked, namedtuple("ClarkParams", "t alpha")):
    """Interior anchor point t and unimodular spectral parameter alpha."""

    __slots__ = ()

    def __new__(cls, t, alpha):
        t = open_disc(number(t, "anchor point t"), "anchor point t")
        return cls._make((t, unimodular(number(alpha, "alpha"), "alpha")))


def clark_targets(zeros, constants, t, alpha):
    """Targets omega = (alpha + B(t)) / (1 + conj(B(t)) alpha) for zeros (N, n), constants, t, alpha (N,).

    |omega| = 1 exactly (a Moebius map of the circle); the eps/|den| round-off is divided out.
    Returns omega, shape (N,).  The first row whose denominator is below
    TARGET_FLOOR in modulus raises its ``ClarkTargetError``.
    """
    bt = products_at(zeros, constants, t[:, None])[:, 0]
    den = 1.0 + np.conj(bt) * alpha
    bad = ~(np.abs(den) >= TARGET_FLOOR)
    if np.logical_or.reduce(bad):
        raise ClarkTargetError(
            "1 + conj(B(t)) * alpha is numerically zero for t=%r, alpha=%r"
            % (complex(t[bad.argmax()]), complex(alpha[bad.argmax()]))
        )
    omega = (alpha + bt) / den
    return omega / np.abs(omega)


class ClarkBasis(NamedTuple):
    """Phased, normalized boundary kernels at the level set of the Clark target.

    ``etas`` are the three level-set points sorted by argument, ``phases``
    the unimodular factors exp(i(arg conj(eta) + arg omega)/2), ``norms``
    the kernel norms, and ``basis`` the resulting orthonormal basis whose
    i-th element is phases[i]/norms[i] * k_{etas[i]}.
    """

    params: ClarkParams
    omega: complex
    etas: np.ndarray
    phases: np.ndarray
    norms: np.ndarray
    basis: OrthonormalBasis

    @property
    def theta(self) -> BlaschkeProduct:
        return self.basis.theta


class ClarkRows(NamedTuple):
    """The Clark chain over N draws: one array per quantity, row i for draw i.

    The fields of ``ClarkBasis`` stacked (``coords`` holds each row's basis
    coordinates, ``gram`` and ``conj`` its two residuals) and the draws themselves;
    every row passed every check of ``modified_clark_basis`` (``clark_rows`` raises otherwise).
    """

    zeros: np.ndarray
    constants: np.ndarray
    t: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    etas: np.ndarray
    phases: np.ndarray
    norms: np.ndarray
    coords: np.ndarray
    gram: np.ndarray
    conj: np.ndarray

    def basis(self, i: int, theta: BlaschkeProduct, params: ClarkParams) -> ClarkBasis:
        """Row i as the ``ClarkBasis`` of (theta, params), its residuals checked by ``clark_rows``."""
        basis = OrthonormalBasis._recorded(
            theta, self.coords[i], float(self.gram[i]), float(self.conj[i])
        )
        return ClarkBasis(
            params=params,
            omega=complex(self.omega[i]),
            etas=self.etas[i],
            phases=self.phases[i],
            norms=self.norms[i],
            basis=basis,
        )


def clark_rows(s, t, alpha) -> ClarkRows:
    """The modified Clark basis for each product of a ``ProductStack`` s of order 3 and t, alpha (N,).

    The checks run stage by stage: the target (``ClarkTargetError``, from ``clark_targets``),
    the level set's residual and separation (``LevelSetError``, from ``level_sets``), then
    the Gram and the conjugation residual of the basis against BASIS_TOL (``BasisError``);
    the first stage that fails raises for its lowest failing row.  No J is built: element i is b_i k_{eta_i},
    so its conjugate is conj(b_i) C k_{eta_i}; ``level_sets`` returns both from the pass that
    checked its residual (``kernel_pairs``), with the norms ||k_eta||^2 = ||e(eta)||^2.
    A point that hits a pole raises ``PoleEvaluationError`` for the whole call.
    """
    if s.zeros.shape[1] != 3:
        raise ValueError("the Clark basis construction here is order-3 only")
    omega = clark_targets(*s[:2], t, alpha)
    etas, (values, conj_kernels, _) = level_sets(s, omega)
    angles = circle_angle(np.concatenate([np.conj(etas), omega[:, None]], axis=1))
    phases = np.exp(0.5j * (angles[:, :3] + angles[:, 3:]))
    norms = np.sqrt(np.add.reduce(np.abs(values) ** 2, axis=1))
    coef = (phases / norms)[:, None, :]
    coords = np.conj(values) * coef
    gram, conj = basis_residuals(coords, np.conj(coef) * conj_kernels)
    bad = ~(gram < BASIS_TOL)
    if np.logical_or.reduce(bad):
        raise gram_error(gram[bad.argmax()])
    bad = ~(conj < BASIS_TOL)
    if np.logical_or.reduce(bad):
        raise BasisError(
            "an element moved by %.3e under conjugation; the phase "
            "convention must square to conj(eta) * omega" % conj[bad.argmax()]
        )
    return ClarkRows(*s[:2], t, alpha, omega, etas, phases, norms, coords, gram, conj)


def modified_clark_basis(b: BlaschkeProduct, params: ClarkParams) -> ClarkBasis:
    """Construct the conjugation-fixed eigenbasis for (t, alpha) at order 3.

    Raises ``ClarkTargetError`` if the target is numerically undefined,
    ``LevelSetError`` if the level set misses its accuracy check and
    ``BasisError`` if the basis misses orthonormality or conjugation-fixedness.
    Each element vanishing at the other level-set points needs no check of
    its own: |e_i(eta_j)| / ||k_{eta_j}|| is the Gram entry |G_ij|, which the
    orthonormality check already bounds by ||G - I||_F < BASIS_TOL.  This is
    ``clark_rows`` on the one row (b, params).
    """
    rows = clark_rows(b.stack, np.array([params.t]), np.array([params.alpha]))
    return rows.basis(0, b, params)


def clark_operator_matrix(b: BlaschkeProduct, params: ClarkParams, basis: OrthonormalBasis):
    """Matrix of the unitary U = S_t + (alpha + B(t)) (k^_t (x) C k^_t) w.r.t. ``basis``.

    Here k^_t is the NORMALIZED kernel at t: the raw kernel's term is divided by
    ||k_t||^2 = ||e(t)||^2, a sum of positive terms from the one pole-guarded TMW pass
    at t (``kernel_outer``), which also gives B(t) and k_t (x) C k_t.
    The closed form (1 - |B(t)|^2) / (1 - |t|^2) cancels near the circle (relative error
    7e-8 at 1 - |t| = 1e-8), enough to fail the unitarity check on valid input.

    Entry (i, j) is <U v_j, v_i>.  The compressed-multiplier part is
    (A_z - t)(I - conj(t) A_z)^-1 by the H^infinity functional calculus.
    Both parts are taken between the orthonormal coordinates of the basis.  The
    result is checked to be unitary within BASIS_TOL (``gram_residuals``, else ``BasisError``).
    """
    if basis.theta != b:
        raise ValueError("basis lives in a different model space")
    t, alpha = params.t, params.alpha
    rank_one, bt, e = kernel_outer(*b.stack[:2], np.array([[t]]))

    z = b.stack.shift[0]
    eye = np.eye(len(z))
    mobius = np.linalg.solve(eye - np.conj(t) * z, z - t * eye)
    x = basis.coords
    u = np.conj(x.T) @ (mobius + (alpha + bt[0]) / np.vdot(e, e).real * rank_one[0]) @ x

    defect = gram_residuals(u[None])[0]
    if not defect <= BASIS_TOL:
        raise BasisError(
            "operator matrix is not unitary (defect %.3e); the basis is not "
            "an orthonormal basis of the model space" % defect
        )
    return u


def stdlib_uniforms(seed: int) -> SimpleNamespace:
    """``random.Random(seed)`` with a ``Generator``'s ``random(shape)``: its stream in row-major order."""
    draw = random.Random(seed).random
    return SimpleNamespace(random=lambda shape: np.reshape([draw() for _ in range(np.prod(shape))], shape))


def _disc(radius, angle, rmax):
    return rmax * np.sqrt(radius) * np.exp(2j * np.pi * angle)


def _unimodular(angle):
    return np.exp(2j * np.pi * angle)


def decode_clark_draws(u):
    """(zeros (N, 3), constants, t, alpha (N,)) from N rows of ``CLARK_DRAW`` uniforms.

    Per row: zero k from uniforms 2k (area-uniform radius) and 2k+1 (angle) in the
    disc of radius ZERO_RADIUS, the constant's angle from 6, t from 7 and 8 in the
    disc of radius ANCHOR_RADIUS, and alpha's angle from 9.
    """
    return (
        _disc(u[:, 0:6:2], u[:, 1:6:2], ZERO_RADIUS),
        _unimodular(u[:, 6]),
        _disc(u[:, 7], u[:, 8], ANCHOR_RADIUS),
        _unimodular(u[:, 9]),
    )


def clark_draws(rng, count: int) -> ClarkRows:
    """The first ``count`` random Clark bases, as rows in draw order: one ``clark_rows`` block.

    Each attempt takes ``CLARK_DRAW`` uniforms, and none can fail a check.  With zeros within
    ZERO_RADIUS and t within ANCHOR_RADIUS, each factor of B is at most 1.45/1.51 at t, so
    |1 + conj(B(t)) alpha| >= 1 - 0.886 = 0.114; |B'| <= 3 * 1.85/0.15 = 37 on the circle, so level-set
    points are 2 pi/37 apart in argument, a chord >= 0.169.  So no stage of ``clark_rows`` raises.
    """
    zeros, constants, t, alpha = decode_clark_draws(rng.random((count, CLARK_DRAW)))
    return clark_rows(product_stack(zeros, constants), t, alpha)
