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
the conjugate kernels C k_lam, the compressed shift, and Clark's unitary,
whose eigenvalues are the level set (the one spectrum taken).

The primitives are array-first: ``products_at``, ``tmw_rows``,
``kernel_norms_sq``, ``conjugate_kernels``, ``compressed_shifts``,
``clark_unitaries`` and ``level_sets`` take a stack of N products, zeros of
shape (N, n) and front constants of shape (N,), with points of shape (N, m).
The scalar functions and ``BlaschkeProduct.__call__`` run them on the stack
of one, ``BlaschkeProduct.stack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (DISTINCT_TOL, POLE_TOL, ROOT_TOL, UNIMODULAR_TOL, Indeterminate,
                     on_circle, open_disc, unimodular)

__all__ = [
    "BlaschkeProduct",
    "PoleEvaluationError",
    "LevelSetError",
    "level_set",
    "level_sets",
    "cubic_coefficients",
    "boundary_kernel_norm_sq",
    "kernel_norms_sq",
    "polynomial_pair",
    "circle_angle",
    "products_at",
    "tmw_values",
    "tmw_rows",
    "conjugation_matrix",
    "conjugate_kernel_coords",
    "conjugate_kernels",
    "compressed_shift",
    "compressed_shifts",
    "clark_unitary",
    "clark_unitaries",
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

    ``stack`` is the product as a stack of one for the array-first
    functions: zeros of shape (1, n) and the constant of shape (1,).
    """

    zeros: tuple
    front_constant: complex = 1.0 + 0.0j
    stack: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zeros = tuple(open_disc(complex(w), "zero") for w in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "front_constant", unimodular(complex(self.front_constant), "front constant"))
        if not zeros:
            raise ValueError("a Blaschke product needs at least one zero")
        object.__setattr__(self, "stack", (np.array([zeros]), np.array([self.front_constant])))

    @property
    def order(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        """Evaluate the product at z (scalar or array), guarding the poles."""
        z = np.asarray(z, dtype=complex)
        out = products_at(*self.stack, z.reshape(1, -1))[0].reshape(z.shape)
        return out if out.shape else complex(out)


def products_at(w, c, z) -> np.ndarray:
    """B at points z (N, m) for zeros w (N, n) and constants c (N,): shape (N, m).

    One guard per call: a point with |1 - conj(w_k) z| < POLE_TOL for any
    row and zero raises ``PoleEvaluationError`` naming that zero.
    """
    den = 1.0 - np.conj(w)[:, :, None] * z[:, None, :]
    near = np.abs(den) < POLE_TOL
    if near.any():
        row, k, _ = np.argwhere(near)[0]
        raise PoleEvaluationError(
            "evaluation point too close to the pole 1/conj(%r)" % complex(w[row, k])
        )
    return c[:, None] * np.multiply.reduce((z[:, None, :] - w[:, :, None]) / den, axis=1)


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


def tmw_values(b: BlaschkeProduct, z) -> np.ndarray:
    """e(z): the n values e_k(z) of the orthonormal TMW basis, shape ``(n,) + np.shape(z)``.

    e_k(z) = sqrt(1 - |w_k|^2) / (1 - conj(w_k) z) * prod_{j<k} (z - w_j) / (1 - conj(w_j) z).
    The kernel k_lam = sum_k conj(e_k(lam)) e_k has coordinates conj(e(lam)).
    """
    z = np.asarray(z, dtype=complex)
    return tmw_rows(b.stack[0], z.reshape(1, -1))[0].reshape((b.order,) + z.shape)


def tmw_rows(w, z) -> np.ndarray:
    """``tmw_values`` for zeros w (N, n) at points z (N, m): shape (N, n, m)."""
    den = 1.0 - np.conj(w)[:, :, None] * z[:, None, :]
    values = np.sqrt(1.0 - np.abs(w) ** 2)[:, :, None] / den
    values[:, 1:] *= np.cumprod((z[:, None, :] - w[:, :-1, None]) / den[:, :-1], axis=1)
    return values


def conjugation_matrix(b: BlaschkeProduct) -> np.ndarray:
    """J with C f = J conj(x) for the TMW coordinates x of f (C f = B conj(z f) on the circle).

    C e_k = c e~_{n-1-k}, e~ the TMW basis of the reversed zeros, so J = c M[:, ::-1]
    with M the coordinates of e~, a product of n(n-1)/2 adjacent swaps: swapping
    the zeros a, c at positions p, p+1 mixes e_p, e_{p+1} by the unitary
    G = [[d, a - c], [conj(c - a), d]] / (1 - conj(c) a), d = sqrt((1-|a|^2)(1-|c|^2)).
    Equal zeros need no swap, so J is exact for B = c z^n.  Kernels need no J
    (``conjugate_kernels``): J checks only a basis of arbitrary coordinates.
    """
    zeros, n = list(b.zeros), b.order
    rows = np.eye(n, dtype=complex).tolist()  # M, updated in scalar arithmetic
    for end in range(n - 1, 0, -1):
        for p in range(end):
            a, c = zeros[p], zeros[p + 1]
            if a != c:
                den = 1.0 - c.conjugate() * a
                g00 = math.sqrt((1.0 - abs(a) ** 2) * (1.0 - abs(c) ** 2)) / den
                g01, g10 = (a - c) / den, (c - a).conjugate() / den
                for row in rows:  # columns p, p+1 of M times G
                    x, y = row[p], row[p + 1]
                    row[p], row[p + 1] = x * g00 + y * g10, x * g01 + y * g00
                zeros[p : p + 2] = c, a
    return np.array([[b.front_constant * x for x in reversed(row)] for row in rows])


def conjugate_kernel_coords(b: BlaschkeProduct, lam) -> np.ndarray:
    """Coordinates J e(lam) of C k_lam, shape ``(n,) + np.shape(lam)`` for a point or 1-D lam."""
    lam = np.asarray(lam, dtype=complex)
    return conjugate_kernels(*b.stack, lam.reshape(1, -1))[0].reshape((b.order,) + lam.shape)


def conjugate_kernels(w, c, z) -> np.ndarray:
    """``conjugate_kernel_coords`` for zeros w (N, n), constants c (N,) at points z (N, m): (N, n, m).

    C is antiunitary, so <C k_z, e_j> = <C e_j, k_z> = (C e_j)(z) = c e~_{n-1-j}(z):
    C k_z has coordinates c e~(z) reversed, e~ the TMW basis of the reversed zeros.
    """
    return c[:, None, None] * tmw_rows(w[:, ::-1], z)[:, ::-1]


def compressed_shift(b: BlaschkeProduct) -> np.ndarray:
    """Matrix of A_z f = P(z f) in TMW coordinates.

    It is lower triangular: entry (i, i) is w_i and, for i > j, entry (i, j) is
    sqrt(1 - |w_i|^2) sqrt(1 - |w_j|^2) prod_{j<k<i} (-conj(w_k)).
    """
    return compressed_shifts(b.stack[0])[0]


def compressed_shifts(w) -> np.ndarray:
    """``compressed_shift`` for zeros w (N, n): shape (N, n, n)."""
    n = w.shape[1]
    r = np.sqrt(1.0 - np.abs(w) ** 2)
    q = -np.conj(w)
    z = np.zeros(w.shape + (n,), dtype=complex)
    z.reshape(len(w), n * n)[:, :: n + 1] = w
    for i in range(1, n):
        p = r[:, i]
        for j in range(i - 1, -1, -1):
            z[:, i, j] = p * r[:, j]
            if j:
                p = p * q[:, j]
    return z


def clark_unitary(b: BlaschkeProduct, omega) -> np.ndarray:
    """Clark's unitary A_z + k_0 (x) C k_0 / conj(omega - B(0)) in TMW coordinates.

    Its eigenvalues are exactly the circle points where B equals omega, and
    its eigenvectors are the kernels there (Clark, 1972).
    """
    return clark_unitaries(*b.stack, np.array([complex(omega)]))[0]


def clark_unitaries(w, c, omega) -> np.ndarray:
    """``clark_unitary`` for zeros w (N, n), constants c and targets omega (N,).

    Everything at the origin is a closed form in r_k = sqrt(1 - |w_k|^2):
    e_k(0) = r_k prod_{l<k} (-w_l), so k_0 has coordinates conj(e(0));
    C k_0 = (B - B(0)) / z = S* B has coordinates <B, z e_k> = c r_k prod_{l>k} (-w_l);
    and B(0) = c prod_l (-w_l).
    """
    q = -w
    r = np.sqrt(1.0 - np.abs(w) ** 2)
    ones = np.ones((len(w), 1), dtype=complex)
    before = np.cumprod(np.concatenate([ones, q[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, q[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    rank_one = np.conj(r * before)[:, :, None] * np.conj(c[:, None] * r * after)[:, None, :]
    b0 = c * before[:, -1] * q[:, -1]
    return compressed_shifts(w) + rank_one / np.conj(omega - b0)[:, None, None]


def level_set(b: BlaschkeProduct, omega):
    """All circle solutions of B(eta) = omega, sorted by ``circle_angle``.

    They are the eigenvalues of ``clark_unitary``, a normal matrix, so each is
    accurate to round-off in position.  |B'| multiplies that error in the
    residual, so one Newton step on the boundary argument of B, which is
    evaluated to full relative precision, follows.  The points must satisfy
    |B(eta) - omega| below ``ROOT_TOL`` and be pairwise separated by more
    than ``DISTINCT_TOL``.
    """
    omega = unimodular(complex(omega), "level-set target")
    etas, failures = level_sets(*b.stack, np.array([omega]))
    if failures:
        raise failures[0]
    return etas[0]


def level_sets(w, c, omega):
    """``level_set`` for zeros w (N, n), constants c and unimodular targets omega (N,).

    Returns (etas, failures): etas of shape (N, n), each row sorted by
    ``circle_angle``, and a dict mapping each row that misses the residual or
    separation check to the ``LevelSetError`` it raises (residual first).
    """
    phi = np.angle(np.linalg.eigvals(clark_unitaries(w, c, omega)))
    eta = np.exp(1j * phi)
    phi = phi - np.angle(products_at(w, c, eta) * np.conj(omega)[:, None]) / kernel_norms_sq(w, eta)
    eta = np.exp(1j * phi)
    residual = np.abs(products_at(w, c, eta) - omega[:, None])
    gaps = np.abs(eta[:, :, None] - eta[:, None, :])
    gaps.reshape(len(w), -1)[:, :: w.shape[1] + 1] = np.inf  # a point is not its own neighbour
    bad = (residual > ROOT_TOL).any(axis=1) | (gaps <= DISTINCT_TOL).any(axis=(1, 2))
    failures = {row: _level_set_error(residual[row], eta[row]) for row in bad.nonzero()[0]}
    order = np.argsort(circle_angle(eta), axis=1)
    return eta[np.arange(len(w))[:, None], order], failures


def _level_set_error(residual, eta) -> LevelSetError:
    """The error of one level set: its residuals if any exceeds ROOT_TOL, else its first close pair."""
    if np.any(residual > ROOT_TOL):
        return LevelSetError("level-set residuals %s exceed %.1e" % (residual.tolist(), ROOT_TOL))
    i, k = next((i, k) for i in range(len(eta)) for k in range(i + 1, len(eta))
                if abs(eta[i] - eta[k]) <= DISTINCT_TOL)
    return LevelSetError(
        "level-set points %r and %r are numerically coincident" % (eta[i], eta[k])
    )


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
    if not abs(b.front_constant - 1.0) <= UNIMODULAR_TOL:
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
    zeta = on_circle(np.asarray(zeta, dtype=complex), "boundary kernel point")
    speed = kernel_norms_sq(b.stack[0], zeta.reshape(1, -1))[0].reshape(zeta.shape)
    return speed if speed.shape else float(speed)


def kernel_norms_sq(w, zeta) -> np.ndarray:
    """``boundary_kernel_norm_sq`` for zeros w (N, n) at circle points zeta (N, m), unchecked."""
    den = 1.0 - np.conj(w)[:, :, None] * zeta[:, None, :]
    return np.add.reduce((1.0 - np.abs(w) ** 2)[:, :, None] / np.abs(den) ** 2, axis=1)
