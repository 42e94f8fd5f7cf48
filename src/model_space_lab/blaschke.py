"""Finite Blaschke products: evaluation, boundary angular speed, and circle level sets.

A finite Blaschke product of order n is

    B(z) = c * prod_i (z - w_i) / (1 - conj(w_i) z),

with zeros w_i in the open unit disc (repetitions allowed) and a unimodular
front constant c.  On the unit circle |B| = 1 and the boundary argument is
strictly increasing, so every unimodular target value is attained at exactly
n distinct circle points -- the "level set" that drives the Clark-basis
construction downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DISTINCT_TOL, POLE_TOL, ROOT_TOL

__all__ = [
    "BlaschkeProduct",
    "PoleEvaluationError",
    "LevelSetError",
    "DegenerateRootError",
    "level_set",
    "cubic_coefficients",
    "boundary_kernel_norm_sq",
    "polynomial_pair",
]


class PoleEvaluationError(ZeroDivisionError):
    """An evaluation point collided with a pole at 1/conj(zero)."""


class LevelSetError(RuntimeError):
    """Level-set root finding broke down numerically."""


class DegenerateRootError(LevelSetError):
    """Two polished level-set roots are numerically coincident."""


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
        if abs(abs(self.front_constant) - 1.0) > 1e-12:
            raise ValueError(
                "front constant must be unimodular, got |c| = %r"
                % abs(self.front_constant)
            )

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


def _angular_speed(b: BlaschkeProduct, eta):
    """d/dphi of arg B(e^{i phi}); equals |B'| on the circle and is > 0."""
    speed = np.zeros(np.shape(eta), dtype=float)
    for w in b.zeros:
        speed += (1.0 - abs(w) ** 2) / np.abs(1.0 - np.conj(w) * eta) ** 2
    return speed


def level_set(b: BlaschkeProduct, omega):
    """All circle solutions of B(eta) = omega, sorted by argument in [0, 2*pi).

    Clearing denominators turns the equation into a degree-n polynomial whose
    roots are found as companion-matrix eigenvalues; each root is projected
    radially onto the circle and polished with one Newton step on the boundary
    argument of B.  The polished roots must satisfy |B(eta) - omega| below
    ``ROOT_TOL`` and be pairwise separated by more than
    ``DISTINCT_TOL``.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-12:
        raise ValueError("level-set target must be unimodular, got %r" % omega)
    num, den = polynomial_pair(b)
    poly = b.front_constant * num - omega * den  # ascending, exact degree n
    roots = np.roots(poly[::-1])
    if len(roots) != b.order:
        raise LevelSetError(
            "expected %d roots, found %d" % (b.order, len(roots))
        )

    # Radial projection keeps only the argument; one Newton step on
    # psi(phi) = arg B(e^{i phi}) then restores full accuracy since the
    # companion-matrix roots are already close.
    phi = np.angle(roots)
    eta = np.exp(1j * phi)
    err = np.angle(b(eta) * np.conj(omega))
    phi = phi - err / _angular_speed(b, eta)
    eta = np.exp(1j * phi)

    residual = np.abs(b(eta) - omega)
    if np.any(residual > ROOT_TOL):
        raise LevelSetError(
            "level-set refinement failed, residuals %s" % residual.tolist()
        )
    for i in range(len(eta)):
        for j in range(i + 1, len(eta)):
            if abs(eta[i] - eta[j]) <= DISTINCT_TOL:
                raise DegenerateRootError(
                    "level-set points %r and %r are numerically coincident"
                    % (eta[i], eta[j])
                )

    key = np.angle(eta) % (2.0 * np.pi)
    # A point computed as e.g. exp(-1e-16j) belongs at the front, not at 2*pi.
    key[key >= 2.0 * np.pi - 1e-9] -= 2.0 * np.pi
    return eta[np.argsort(key)]


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


def boundary_kernel_norm_sq(b: BlaschkeProduct, zeta) -> float:
    """Squared norm of the reproducing kernel at a circle point.

    The limit of (1 - conj(B(zeta)) B(z)) / (1 - conj(zeta) z) as z -> zeta
    equals |B'(zeta)|, which for a finite Blaschke product is the manifestly
    positive sum of (1 - |w_i|^2) / |1 - conj(w_i) zeta|^2.
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-10:
        raise ValueError("boundary kernel norm needs a circle point, got %r" % zeta)
    return float(_angular_speed(b, zeta))
