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

The primitives are array-first: ``products_at``, ``tmw_rows``, ``kernel_pairs`` (k_z and
C k_z from one ``tmw_rows`` pass, whose ||e(z)||^2 is ||k_z||^2) and ``compressed_shifts`` take
a stack of N products, zeros (N, n) and front constants (N,), with points (N, m).  ``clark_unitaries`` and
``level_sets`` take a ``product_stack``, which adds A_z, k_0 (x) C k_0 and B(0), built
once.  The scalar functions run on the stack of one built at construction, ``BlaschkeProduct.stack``.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .config import (ANGLE_SNAP, DISTINCT_TOL, POLE_TOL, ROOT_TOL, Checked, Indeterminate, number,
                     open_disc, sequence, unimodular)

__all__ = [
    "BlaschkeProduct",
    "ProductStack",
    "product_stack",
    "PoleEvaluationError",
    "LevelSetError",
    "level_set",
    "level_sets",
    "circle_angle",
    "products_at",
    "tmw_rows",
    "conjugation_matrix",
    "kernel_pairs",
    "compressed_shifts",
    "clark_unitaries",
]


class PoleEvaluationError(Indeterminate):
    """An evaluation point collided with a pole at 1/conj(zero)."""


class LevelSetError(Indeterminate):
    """The computed level set missed its accuracy or separation check."""


# N products, then the pieces of Clark's unitary that depend only on them (``product_stack``).
ProductStack = namedtuple("ProductStack", "zeros constants shift rank_one b0")


def product_stack(w, c) -> ProductStack:
    """Zeros w (N, n), constants c (N,), A_z (N, n, n), k_0 (x) C k_0 (N, n, n) and B(0) (N,).

    Everything at the origin is a closed form in r_k = sqrt(1 - |w_k|^2):
    e_k(0) = r_k prod_{l<k} (-w_l), so k_0 has coordinates conj(e(0));
    C k_0 = (B - B(0)) / z = S* B has coordinates <B, z e_k> = c r_k prod_{l>k} (-w_l);
    and B(0) = c prod_l (-w_l).
    """
    q = -w
    r = np.sqrt(1.0 - np.abs(w) ** 2)
    before = np.cumprod(np.concatenate([np.ones_like(q[:, :1]), q[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([np.ones_like(q[:, :1]), q[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    rank_one = np.conj(r * before)[:, :, None] * np.conj(c[:, None] * r * after)[:, None, :]
    return ProductStack(w, c, compressed_shifts(w), rank_one, c * before[:, -1] * q[:, -1])


class BlaschkeProduct(Checked, namedtuple("BlaschkeProduct", "zeros front_constant")):
    """Finite Blaschke product with zeros in the open disc.

    Parameters
    ----------
    zeros : sequence of complex
        Zeros, each with modulus < 1.  Order of the product = len(zeros).
    front_constant : complex
        Unimodular multiplier in front of the product (default 1).

    ``stack`` is the product as a read-only ``ProductStack`` of one for the
    array-first functions, its pieces built here once.  It is a read-only
    property, not a field: equality and hashing stay on (zeros, front_constant).
    """

    def __new__(cls, zeros, front_constant=1.0 + 0.0j):
        zeros = tuple(open_disc(number(w, "zero"), "zero") for w in sequence(zeros, "zeros"))
        c = unimodular(number(front_constant, "front constant"), "front constant")
        if not zeros:
            raise ValueError("a Blaschke product needs at least one zero")
        b = cls._make((zeros, c))
        vars(b)["stack"] = product_stack(np.array([zeros]), np.array([c]))
        for piece in b.stack:
            piece.setflags(write=False)
        return b

    def __reduce__(self):  # copies and pickles of any protocol build their stack in __new__
        return type(self), tuple(self)

    stack = property(lambda self: vars(self)["stack"], doc="The read-only ProductStack of one.")

    @property
    def order(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        """Evaluate the product at z (scalar or array), guarding the poles."""
        z = np.asarray(z, dtype=complex)
        out = products_at(*self.stack[:2], z.reshape(1, -1))[0].reshape(z.shape)
        return out if out.shape else complex(out)


def products_at(w, c, z) -> np.ndarray:
    """B at points z (N, m) for zeros w (N, n) and constants c (N,): shape (N, m).

    One guard per call: a point with |1 - conj(w_k) z| < POLE_TOL for any
    row and zero raises ``PoleEvaluationError`` naming that zero.
    """
    return _products_over(w, c, z)[0]


def _products_over(w, c, z):
    """(``products_at``, its denominators 1 - conj(w_k) z of shape (N, n, m)), one guard."""
    den = _denominators(w, z)
    return c[:, None] * np.multiply.reduce((z[:, None, :] - w[:, :, None]) / den, axis=1), den


def _denominators(w, z):
    """1 - conj(w_k) z for zeros w (N, n) at points z (N, m), shape (N, n, m): the one pole guard.

    A point with |1 - conj(w_k) z| < POLE_TOL for any row and zero raises
    ``PoleEvaluationError`` naming that zero.
    """
    den = 1.0 - np.conj(w)[:, :, None] * z[:, None, :]
    near = np.abs(den) < POLE_TOL
    if np.logical_or.reduce(near, axis=None):
        row, k, _ = np.argwhere(near)[0]
        raise PoleEvaluationError("evaluation point too close to the pole 1/conj(%r)" % complex(w[row, k]))
    return den


def circle_angle(z):
    """Argument of z in [0, 2*pi), but angles within ANGLE_SNAP below 2*pi count as just below 0.

    This one rule orders level sets and fixes the branch of every Clark-basis
    phase, so a point computed as 1 - 1e-16i is treated as the point 1.
    """
    angle = np.arctan2(z.imag, z.real) % (2.0 * np.pi)
    return np.where(angle >= 2.0 * np.pi - ANGLE_SNAP, angle - 2.0 * np.pi, angle)


def tmw_rows(w, z) -> np.ndarray:
    """e(z), the values of the orthonormal TMW basis, for zeros w (N, n) at points z (N, m): (N, n, m).

    e_k(z) = sqrt(1 - |w_k|^2) / (1 - conj(w_k) z) * prod_{j<k} (z - w_j) / (1 - conj(w_j) z),
    pole guarded.  The kernel k_lam = sum_k conj(e_k(lam)) e_k has coordinates conj(e(lam)).
    """
    den = _denominators(w, z)
    values = np.sqrt(1.0 - np.abs(w) ** 2)[:, :, None] / den
    values[:, 1:] *= np.multiply.accumulate((z[:, None, :] - w[:, :-1, None]) / den[:, :-1], axis=1)
    return values


def conjugation_matrix(b: BlaschkeProduct) -> np.ndarray:
    """J with C f = J conj(x) for the TMW coordinates x of f (C f = B conj(z f) on the circle).

    C e_k = c e~_{n-1-k}, e~ the TMW basis of the reversed zeros, so J = c M[:, ::-1]
    with M the coordinates of e~, a product of n(n-1)/2 adjacent swaps: swapping
    the zeros a, c at positions p, p+1 mixes e_p, e_{p+1} by the unitary
    G = [[d, a - c], [conj(c - a), d]] / (1 - conj(c) a), d = sqrt((1-|a|^2)(1-|c|^2)).
    Equal zeros need no swap, so J is exact for B = c z^n.  Kernels need no J
    (``kernel_pairs``): J checks only a basis of arbitrary coordinates.
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


def kernel_pairs(w, c, z):
    """(e(z), coordinates of C k_z) for zeros w (N, n), constants c (N,) at points z (N, m): (N, n, m) each.

    C is antiunitary, so <C k_z, e_j> = <C e_j, k_z> = (C e_j)(z) = c e~_{n-1-j}(z):
    C k_z has coordinates c e~(z) reversed, e~ the TMW basis of the reversed zeros.
    One ``tmw_rows`` pass over the zeros stacked on the reversed zeros gives both.
    """
    values = tmw_rows(np.concatenate([w, w[:, ::-1]]), np.concatenate([z, z]))
    return values[: len(w)], c[:, None, None] * values[len(w) :, ::-1]


def compressed_shifts(w) -> np.ndarray:
    """Matrices of A_z f = P(z f) in TMW coordinates for zeros w (N, n): shape (N, n, n).

    Each is lower triangular: entry (i, i) is w_i and, for i > j, entry (i, j) is
    sqrt(1 - |w_i|^2) sqrt(1 - |w_j|^2) prod_{j<k<i} (-conj(w_k)).
    ``BlaschkeProduct.stack.shift[0]`` is the one of a product.
    """
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


def clark_unitaries(s: ProductStack, omega) -> np.ndarray:
    """Clark's unitary A_z + k_0 (x) C k_0 / conj(omega - B(0)) for a stack and targets omega (N,).

    Its eigenvalues are exactly the circle points where B equals omega, and its
    eigenvectors are the kernels there (Clark, 1972).
    """
    return s.shift + s.rank_one / np.conj(omega - s.b0)[:, None, None]


def level_set(b: BlaschkeProduct, omega):
    """All circle solutions of B(eta) = omega, sorted by ``circle_angle``.

    They are the eigenvalues of ``clark_unitaries``, a normal matrix, so each is
    accurate to round-off in position.  |B'| multiplies that error in the
    residual, so one Newton step on the boundary argument of B, which is
    evaluated to full relative precision, follows; B and |B'| share one
    denominator.  The points must satisfy |B(eta) - omega| below ``ROOT_TOL``
    and be pairwise separated by more than ``DISTINCT_TOL``.
    """
    omega = unimodular(number(omega, "level-set target"), "level-set target")
    etas, failures = level_sets(b.stack, np.array([omega]))
    if failures:
        raise failures[0]
    return etas[0]


def level_sets(s: ProductStack, omega):
    """``level_set`` for the products of a stack and unimodular targets omega (N,).

    Returns (etas, failures): etas of shape (N, n), each row sorted by
    ``circle_angle``, and a dict mapping each row that misses the residual or
    separation check to the ``LevelSetError`` it raises (residual first).
    """
    lam = np.linalg.eigvals(clark_unitaries(s, omega))
    phi = np.arctan2(lam.imag, lam.real)
    eta = np.exp(1j * phi)
    values, den = _products_over(*s[:2], eta)
    moved = values * np.conj(omega)[:, None]
    speed = np.add.reduce((1.0 - np.abs(s.zeros) ** 2)[:, :, None] / np.abs(den) ** 2, axis=1)  # |B'(eta)|
    phi = phi - np.arctan2(moved.imag, moved.real) / speed
    eta = np.exp(1j * phi)
    residual = np.abs(products_at(*s[:2], eta) - omega[:, None])
    gaps = np.abs(eta[:, :, None] - eta[:, None, :])
    gaps.reshape(len(eta), -1)[:, :: eta.shape[1] + 1] = np.inf  # a point is not its own neighbour
    bad = np.logical_or.reduce(residual > ROOT_TOL, axis=1)
    bad |= np.logical_or.reduce(gaps <= DISTINCT_TOL, axis=(1, 2))
    failures = {row: _level_set_error(residual[row], eta[row]) for row in bad.nonzero()[0]}
    order = np.argsort(circle_angle(eta), axis=1)
    return eta[np.arange(len(eta))[:, None], order], failures


def _level_set_error(residual, eta) -> LevelSetError:
    """The error of one level set: its residuals if any exceeds ROOT_TOL, else its first close pair."""
    if np.any(residual > ROOT_TOL):
        return LevelSetError("level-set residuals %s exceed %.1e" % (residual.tolist(), ROOT_TOL))
    i, k = next((i, k) for i in range(len(eta)) for k in range(i + 1, len(eta))
                if abs(eta[i] - eta[k]) <= DISTINCT_TOL)
    return LevelSetError("level-set points %r and %r are numerically coincident" % (eta[i], eta[k]))

