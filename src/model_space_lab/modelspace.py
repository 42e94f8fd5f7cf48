"""Order-n model space attached to a finite Blaschke product.

The space is represented by coordinates in its orthonormal
Takenaka-Malmquist-Walsh basis e_0, ..., e_{n-1} (``blaschke.tmw_rows``):
an orthonormal basis is its (n, k) coordinate matrix, so every inner product
is a dot product, and its values at z are coords^T e(z).  The two structural
players have closed-form coordinates: the reproducing kernel

    k_lam(z) = (1 - conj(B(lam)) B(z)) / (1 - conj(lam) z)

has coordinates conj(e(lam)), and the canonical conjugation
C f = B conj(z f) (on the circle) maps coordinates x to J conj(x), with J
the closed-form ``blaschke.conjugation_matrix``; a kernel needs no J
(``blaschke.kernel_pairs``), so ``basis_residuals`` takes C's output.
Both records here are checked named tuples (``config.Checked``), and a basis
holds its two residuals as fields, computed once when it is built.

``KThetaElement`` is the other view of an element: a rational function

    f(z) = (a_0 + a_1 z + ... + a_{n-1} z^{n-1}) / prod_i (1 - conj(w_i) z)

over the fixed denominator, stored by its numerator; in that view the
conjugation is "conjugate and reverse" times the front constant.  The
functions that take elements (``coordinates``, ``inner_product``,
``gram_matrix`` and ``kernel_element``) bridge the two views through the
matrix T of the TMW numerators; nothing else goes through T.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .blaschke import BlaschkeProduct, _denominators, conjugation_matrix, tmw_rows
from .config import BASIS_TOL, Checked, Indeterminate, closed_disc, finite, number, sequence

__all__ = [
    "KThetaElement",
    "OrthonormalBasis",
    "BasisError",
    "inner_product",
    "kernel_element",
    "gram_matrix",
    "conjugation_residual",
    "basis_residuals",
    "gram_residuals",
    "gram_error",
    "coordinates",
]


class BasisError(Indeterminate):
    """A basis missed BASIS_TOL: orthonormality or conjugation-fixedness."""


class KThetaElement(Checked, namedtuple("KThetaElement", "theta numerator")):
    """Model-space element stored as numerator coefficients over the fixed denominator.

    ``numerator[k]`` multiplies z^k, each a ``config.number``; the length always
    equals the order of ``theta``.  Elements are immutable.  Calling an element divides by the
    factors 1 - conj(w_k) z, each through the pole guard of ``blaschke.products_at``.
    """

    __slots__ = ()

    def __new__(cls, theta, numerator):
        coeffs = tuple(number(a, "numerator entry") for a in sequence(numerator, "numerator"))
        if len(coeffs) != theta.order:
            raise ValueError(f"numerator needs {theta.order} coefficients, got {len(coeffs)}")
        return cls._make((theta, coeffs))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        den = _denominators(self.theta.stack.zeros, z.reshape(1, -1))[0]
        out = (np.polyval(self.numerator[::-1], z.reshape(-1)) / np.multiply.reduce(den)).reshape(z.shape)
        return out if out.shape else complex(out)


def _tmw_numerators(b: BlaschkeProduct) -> np.ndarray:
    """Columns: ascending numerator coefficients of the orthonormal e_k over the denominator."""
    n = b.order
    t = np.zeros((n, n), dtype=complex)
    for k, wk in enumerate(b.zeros):
        col = np.array([np.sqrt(1.0 - abs(wk) ** 2)], dtype=complex)
        for j, w in enumerate(b.zeros):
            if j < k:
                col = np.convolve(col, [-w, 1.0])
            elif j > k:
                col = np.convolve(col, [1.0, -np.conj(w)])
        t[:, k] = col
    return t


def coordinates(b: BlaschkeProduct, elements) -> np.ndarray:
    """Orthonormal coordinates of elements of K_b, one column per element.

    Column j holds x with elements[j] = sum_k x[k] e_k, so <f, g> is
    x_f . conj(x_g) exactly.
    """
    if any(e.theta != b for e in elements):
        raise ValueError("elements live in different model spaces")
    numerators = np.array([e.numerator for e in elements], dtype=complex).T
    return np.linalg.solve(_tmw_numerators(b), numerators)


def inner_product(f: KThetaElement, g: KThetaElement):
    """Boundary pairing (1/2pi) * integral of f * conj(g), conjugate-linear in g."""
    x = coordinates(f.theta, (f, g))
    return complex(x[:, 0] @ np.conj(x[:, 1]))


def kernel_element(b: BlaschkeProduct, lam) -> KThetaElement:
    """Reproducing kernel at ``lam`` (closed disc) as a ``KThetaElement``.

    Its coordinates are conj(e(lam)); the numerator is T times them.
    """
    lam = closed_disc(complex(lam), "kernel point")
    e = tmw_rows(b.stack.zeros, np.array([[lam]]))[0, :, 0]
    return KThetaElement(b, tuple(_tmw_numerators(b) @ np.conj(e)))


def gram_matrix(elements):
    """Matrix of pairwise inner products, entry (i, j) = <v_i, v_j>."""
    elements = tuple(elements)
    x = coordinates(elements[0].theta, elements)
    return x.T @ np.conj(x)


class OrthonormalBasis(Checked, namedtuple("OrthonormalBasis", "theta coords gram_residual conj_residual")):
    """Orthonormal elements of one model space, given by their TMW coordinates.

    ``OrthonormalBasis(theta, coords)`` takes the coordinates of the elements,
    one column each, and computes both residuals by ``basis_residuals``:
    ``gram_residual`` is ||Gram - I||_F, which must be below BASIS_TOL (else
    BasisError), and ``conj_residual`` is ``conjugation_residual`` of the basis.
    ``coords`` is read-only.  Calling the basis at points z gives all element
    values, one row per element.
    """

    __slots__ = ()

    def __new__(cls, theta, coords):
        x = finite(np.array(coords, dtype=complex), "basis coordinates")
        gram, conj = basis_residuals(x[None], (conjugation_matrix(theta) @ np.conj(x))[None])
        if not gram[0] < BASIS_TOL:
            raise gram_error(gram[0])
        return cls._recorded(theta, x, float(gram[0]), float(conj[0]))

    def __getnewargs__(self):  # copies and ``_replace`` compute the residuals again
        return self.theta, self.coords

    @classmethod
    def _recorded(cls, theta, coords, gram_residual: float, conj_residual: float):
        """A basis whose ``basis_residuals`` were taken and checked already: a Clark-chain row, without J."""
        x = np.array(coords, dtype=complex)
        x.setflags(write=False)
        return cls._make((theta, x, gram_residual, conj_residual))

    def __call__(self, z) -> np.ndarray:
        """Values of every element at a point or 1-D array z, shape ``(len(elements),) + np.shape(z)``."""
        z = np.asarray(z, dtype=complex)
        values = tmw_rows(self.theta.stack.zeros, z.reshape(1, -1))[0]
        return self.coords.T @ values.reshape((len(values),) + z.shape)


def conjugation_residual(basis: OrthonormalBasis) -> float:
    """max_i || C v_i - v_i ||: how far the basis is from being conjugation-fixed.

    C v = J conj(x) for the coordinates x of v (``conjugation_matrix``).
    """
    cx = conjugation_matrix(basis.theta) @ np.conj(basis.coords)
    return float(basis_residuals(basis.coords[None], cx[None])[1][0])


def gram_residuals(x):
    """||G - I||_F, shape (N,), for the coordinates x (N, n, k) of v_i, G = x^T conj(x) their Gram matrix."""
    gram = x.transpose(0, 2, 1) @ np.conj(x)
    gram.reshape(len(x), -1)[:, :: x.shape[2] + 1] -= 1.0
    return np.sqrt(np.add.reduce(np.abs(gram.reshape(len(x), -1)) ** 2, axis=1))


def basis_residuals(x, cx):
    """(``gram_residuals``(x), max_i ||cx_i - x_i||), (N,) each, for coordinates x of v_i, cx of C v_i."""
    moved = np.add.reduce(np.abs(cx - x) ** 2, axis=1)
    return gram_residuals(x), np.sqrt(np.maximum.reduce(moved, axis=1))


def gram_error(residual: float) -> BasisError:
    """The error of a basis whose Gram residual is not below BASIS_TOL."""
    return BasisError("Gram residual %.3e is not below %.1e" % (residual, BASIS_TOL))
