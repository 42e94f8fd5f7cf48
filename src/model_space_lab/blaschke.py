"""Finite Blaschke products, the TMW coordinates of their model spaces, and circle level sets.

A finite Blaschke product of order n is

    B(z) = c * prod_i (z - w_i) / (1 - conj(w_i) z),

with zeros w_i in the open unit disc (repetitions allowed) and a unimodular
front constant c.  On the unit circle |B| = 1 and the boundary argument is
strictly increasing, so every unimodular target value is attained at exactly
n distinct circle points -- the "level set" that drives the Clark-basis
construction downstream.

Model-space elements are coordinates in the orthonormal Takenaka-Malmquist-
Walsh (TMW) basis; its closed-form primitives live here: the values e(z),
the coordinates of k_lam and C k_lam, the compressed shift, and Clark's
unitary, whose eigenvalues are the level set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DISTINCT_TOL, POLE_TOL, ROOT_TOL, Indeterminate

__all__ = [
    "BlaschkeProduct",
    "PoleEvaluationError",
    "LevelSetError",
    "level_set",
    "cubic_coefficients",
    "boundary_kernel_norm_sq",
    "polynomial_pair",
    "circle_angle",
    "tmw_values",
    "conjugate_kernel_coords",
    "compressed_shift",
    "clark_unitary",
]


class PoleEvaluationError(Indeterminate):
    """An evaluation point collided with a pole at 1/conj(zero)."""


class LevelSetError(Indeterminate):
    """The computed level set missed its accuracy or separation check."""


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with zeros in the open disc.

    Parameters
    ----------
    zeros : sequence of complex
        Zeros, each with modulus < 1.  Order of the product = len(zeros).
    front_constant : complex
        Unimodular multiplier in front of the product (default 1).
    """

    zeros: tuple
    front_constant: complex = 1.0 + 0.0j

    def __post_init__(self):
        zeros = tuple(complex(w) for w in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "front_constant", complex(self.front_constant))
        if not zeros:
            raise ValueError("a Blaschke product needs at least one zero")
        radii = np.abs(np.asarray(zeros))
        if np.any(radii >= 1.0):
            raise ValueError(
                "zeros must lie strictly inside the unit disc, got moduli %s"
                % radii.tolist()
            )
        modulus = float(np.abs(self.front_constant))  # inf where abs() overflows
        if abs(modulus - 1.0) > 1e-12:
            raise ValueError("front constant must be unimodular, got |c| = %r" % modulus)

    @property
    def order(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        """Evaluate the product at z (scalar or array), guarding the poles."""
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.front_constant, dtype=complex)
        for w in self.zeros:
            den = 1.0 - np.conj(w) * z
            if np.any(np.abs(den) < POLE_TOL):
                raise PoleEvaluationError(
                    "evaluation point too close to the pole 1/conj(%r)" % w
                )
            out = out * (z - w) / den
        return out if out.shape else complex(out)


def polynomial_pair(b: BlaschkeProduct):
    """Ascending coefficient arrays (num, den) of prod(z - w_i), prod(1 - conj(w_i) z).

    Both arrays have length order+1, so B = c * num(z) / den(z) after
    clearing, and den is the common denominator of every model-space element.
    """
    num = np.array([1.0 + 0.0j])
    den = np.array([1.0 + 0.0j])
    for w in b.zeros:
        num = np.convolve(num, np.array([-w, 1.0]))
        den = np.convolve(den, np.array([1.0, -np.conj(w)]))
    return num, den


def circle_angle(z):
    """Argument of z in [0, 2*pi), but angles within 1e-9 below 2*pi count as just below 0.

    This one rule orders level sets and fixes the branch of every Clark-basis
    phase, so a point computed as 1 - 1e-16i is treated as the point 1.
    """
    angle = np.angle(z) % (2.0 * np.pi)
    return np.where(angle >= 2.0 * np.pi - 1e-9, angle - 2.0 * np.pi, angle)


def _tmw(zeros, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    prefix = np.ones(z.shape, dtype=complex)
    values = []
    for w in zeros:
        den = 1.0 - np.conj(w) * z
        values.append(np.sqrt(1.0 - abs(w) ** 2) * prefix / den)
        prefix = prefix * (z - w) / den
    return np.array(values)


def tmw_values(b: BlaschkeProduct, z) -> np.ndarray:
    """e(z): the n values e_k(z) of the orthonormal TMW basis, shape ``(n,) + np.shape(z)``.

    e_k(z) = sqrt(1 - |w_k|^2) / (1 - conj(w_k) z) * prod_{j<k} (z - w_j) / (1 - conj(w_j) z).
    The kernel k_lam = sum_k conj(e_k(lam)) e_k has coordinates conj(e(lam)).
    """
    return _tmw(b.zeros, z)


def conjugate_kernel_coords(b: BlaschkeProduct, lam) -> np.ndarray:
    """Coordinates of C k_lam, shape ``(n,) + np.shape(lam)``.

    C maps e_k to c times the TMW function of the reversed zeros at the
    mirrored index, so <C k_lam, e_k> = (C e_k)(lam) needs no division.
    """
    return b.front_constant * _tmw(b.zeros[::-1], lam)[::-1]


def compressed_shift(b: BlaschkeProduct) -> np.ndarray:
    """Matrix of A_z f = P(z f) in TMW coordinates.

    It is lower triangular: entry (i, i) is w_i and, for i > j, entry (i, j) is
    sqrt(1 - |w_i|^2) sqrt(1 - |w_j|^2) prod_{j<k<i} (-conj(w_k)).
    """
    w = np.array(b.zeros)
    r = np.sqrt(1.0 - np.abs(w) ** 2)
    z = np.diag(w)
    for i in range(len(w)):
        p = 1.0
        for j in range(i - 1, -1, -1):
            z[i, j] = r[i] * r[j] * p
            p *= -np.conj(w[j])
    return z


def clark_unitary(b: BlaschkeProduct, omega) -> np.ndarray:
    """Clark's unitary A_z + k_0 (x) C k_0 / conj(omega - B(0)) in TMW coordinates.

    Its eigenvalues are exactly the circle points where B equals omega, and
    its eigenvectors are the kernels there (Clark, 1972).
    """
    rank_one = np.outer(np.conj(tmw_values(b, 0.0)), np.conj(conjugate_kernel_coords(b, 0.0)))
    return compressed_shift(b) + rank_one / np.conj(omega - b(0.0))


def level_set(b: BlaschkeProduct, omega):
    """All circle solutions of B(eta) = omega, sorted by ``circle_angle``.

    They are the eigenvalues of ``clark_unitary``, a normal matrix, so each is
    accurate to round-off in position.  |B'| multiplies that error in the
    residual, so one Newton step on the boundary argument of B, which is
    evaluated to full relative precision, follows.  The points must satisfy
    |B(eta) - omega| below ``ROOT_TOL`` and be pairwise separated by more
    than ``DISTINCT_TOL``.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-12:
        raise ValueError("level-set target must be unimodular, got %r" % omega)
    phi = np.angle(np.linalg.eigvals(clark_unitary(b, omega)))
    eta = np.exp(1j * phi)
    phi = phi - np.angle(b(eta) * np.conj(omega)) / boundary_kernel_norm_sq(b, eta)
    eta = np.exp(1j * phi)
    residual = np.abs(b(eta) - omega)
    if np.any(residual > ROOT_TOL):
        raise LevelSetError(
            "level-set residuals %s exceed %.1e" % (residual.tolist(), ROOT_TOL)
        )
    for i in range(len(eta)):
        for j in range(i + 1, len(eta)):
            if abs(eta[i] - eta[j]) <= DISTINCT_TOL:
                raise LevelSetError(
                    "level-set points %r and %r are numerically coincident"
                    % (eta[i], eta[j])
                )
    return eta[np.argsort(circle_angle(eta))]


def cubic_coefficients(b: BlaschkeProduct):
    """Coefficients (K0, K1, K2, K3) of the cleared equation B(z) = 1 at order 3.

    For an order-3 product with front constant 1 and zeros w1, w2, w3 the
    level-set equation clears to

        K3 z^3 - K2 z^2 + K1 z - K0 = 0

    with K3 = 1 + conj(w1 w2 w3), K2 = w1+w2+w3 + conj(w1 w2 + w1 w3 + w2 w3),
    K1 = w1 w2 + w1 w3 + w2 w3 + conj(w1+w2+w3), K0 = w1 w2 w3 + 1.
    """
    if b.order != 3:
        raise ValueError("cubic coefficients are defined for order 3 only")
    if abs(b.front_constant - 1.0) > 1e-12:
        raise ValueError("cubic coefficients assume front constant 1")
    w1, w2, w3 = b.zeros
    e1 = w1 + w2 + w3
    e2 = w1 * w2 + w1 * w3 + w2 * w3
    e3 = w1 * w2 * w3
    k3 = 1.0 + np.conj(e3)
    k2 = e1 + np.conj(e2)
    k1 = e2 + np.conj(e1)
    k0 = e3 + 1.0
    return complex(k0), complex(k1), complex(k2), complex(k3)


def boundary_kernel_norm_sq(b: BlaschkeProduct, zeta):
    """Squared norm of the reproducing kernel at circle points (scalar or array).

    The limit of (1 - conj(B(zeta)) B(z)) / (1 - conj(zeta) z) as z -> zeta
    equals |B'(zeta)|, the angular speed of B on the circle, which for a
    finite Blaschke product is the manifestly positive sum of
    (1 - |w_i|^2) / |1 - conj(w_i) zeta|^2.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(np.abs(zeta) - 1.0) > 1e-10):
        raise ValueError("boundary kernel norm needs circle points, got %r" % zeta)
    speed = np.zeros(zeta.shape)
    for w in b.zeros:
        speed += (1.0 - abs(w) ** 2) / np.abs(1.0 - np.conj(w) * zeta) ** 2
    return speed if speed.shape else float(speed)
