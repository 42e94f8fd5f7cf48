"""Order-n model space attached to a finite Blaschke product.

The space is represented by coordinates in its orthonormal
Takenaka-Malmquist-Walsh basis e_0, ..., e_{n-1} (``blaschke.tmw_values``):
an orthonormal basis is its (n, k) coordinate matrix, so every inner product
is a dot product, and its values at z are coords^T e(z).  The two structural
players have closed-form coordinates: the reproducing kernel

    k_lam(z) = (1 - conj(B(lam)) B(z)) / (1 - conj(lam) z)

has coordinates conj(e(lam)), and the canonical conjugation
C f = B conj(z f) (on the circle) maps coordinates x to J conj(x), with J
the closed-form ``blaschke.conjugation_matrix``; a kernel needs no J
(``blaschke.conjugate_kernels``), so ``basis_residuals`` takes C's output.

``KThetaElement`` is the other view of an element: a rational function

    f(z) = (a_0 + a_1 z + ... + a_{n-1} z^{n-1}) / prod_i (1 - conj(w_i) z)

over the fixed denominator, stored by its numerator; in that view the
conjugation is "conjugate and reverse" times the front constant.  The
functions that take elements (``coordinates``, ``inner_product``, ``norm``,
``gram_matrix``, ``kernel_element``, ``OrthonormalBasis.from_elements`` and
``OrthonormalBasis.elements``) bridge the two views through the matrix T of
the TMW numerators; nothing else goes through T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import BlaschkeProduct, conjugation_matrix, polynomial_pair, tmw_values
from .config import BASIS_TOL, Indeterminate, closed_disc, finite

__all__ = [
    "KThetaElement",
    "OrthonormalBasis",
    "BasisError",
    "inner_product",
    "norm",
    "kernel_element",
    "conjugate",
    "reference_onb",
    "gram_matrix",
    "conjugation_residual",
    "basis_residuals",
    "gram_error",
    "coordinates",
]


class BasisError(Indeterminate):
    """A basis missed BASIS_TOL: orthonormality or conjugation-fixedness."""


@dataclass(frozen=True)
class KThetaElement:
    """Model-space element stored as numerator coefficients over the fixed denominator.

    ``numerator[k]`` multiplies z^k; the length always equals the order of
    ``theta``.  Elements are immutable; arithmetic returns new instances.
    """

    theta: BlaschkeProduct
    numerator: tuple

    def __post_init__(self):
        coeffs = tuple(complex(a) for a in self.numerator)
        object.__setattr__(self, "numerator", coeffs)
        if len(coeffs) != self.theta.order:
            raise ValueError(
                "numerator needs %d coefficients, got %d"
                % (self.theta.order, len(coeffs))
            )

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        _, den = polynomial_pair(self.theta)
        out = np.polyval(self.numerator[::-1], z) / np.polyval(den[::-1], z)
        return out if out.shape else complex(out)

    def __add__(self, other: "KThetaElement") -> "KThetaElement":
        if self.theta != other.theta:
            raise ValueError("elements live in different model spaces")
        return KThetaElement(
            self.theta,
            tuple(a + b for a, b in zip(self.numerator, other.numerator)),
        )

    def __sub__(self, other: "KThetaElement") -> "KThetaElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "KThetaElement":
        s = complex(scalar)
        return KThetaElement(self.theta, tuple(s * a for a in self.numerator))


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


def norm(f: KThetaElement) -> float:
    return float(np.linalg.norm(coordinates(f.theta, (f,))))


def kernel_element(b: BlaschkeProduct, lam) -> KThetaElement:
    """Reproducing kernel at ``lam`` (closed disc) as a ``KThetaElement``.

    Its coordinates are conj(e(lam)); the numerator is T times them.
    """
    lam = closed_disc(complex(lam), "kernel point")
    return KThetaElement(b, tuple(_tmw_numerators(b) @ np.conj(tmw_values(b, lam))))


def conjugate(f: KThetaElement) -> KThetaElement:
    """Canonical conjugation in coefficient form.

    On the circle the conjugation acts as f -> B * conj(z f); over the common
    denominator this reduces exactly to reversing the numerator coefficients,
    conjugating them, and multiplying by the front constant.  It is antilinear,
    isometric and involutive.
    """
    c = f.theta.front_constant
    coeffs = tuple(c * np.conj(a) for a in reversed(f.numerator))
    return KThetaElement(f.theta, coeffs)


def gram_matrix(elements):
    """Matrix of pairwise inner products, entry (i, j) = <v_i, v_j>."""
    elements = tuple(elements)
    x = coordinates(elements[0].theta, elements)
    return x.T @ np.conj(x)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Orthonormal elements of one model space, given by their TMW coordinates.

    ``coords`` holds the coordinates of the elements, one column each;
    ``gram_residual`` is ||Gram - I||_F, which must be below BASIS_TOL (else
    BasisError); ``conj_residual`` is ``conjugation_residual`` of the basis.
    Both come from ``basis_residuals``.
    Calling the basis at points z gives all element values, one row per
    element.
    """

    theta: BlaschkeProduct
    coords: np.ndarray = field(repr=False)
    gram_residual: float = field(init=False)
    conj_residual: float = field(init=False)

    def __post_init__(self):
        x = finite(np.array(self.coords, dtype=complex), "basis coordinates")
        gram, conj = basis_residuals(x[None], (conjugation_matrix(self.theta) @ np.conj(x))[None])
        self._record(x, float(gram[0]), float(conj[0]))

    def _record(self, x, gram_residual: float, conj_residual: float) -> None:
        if not gram_residual < BASIS_TOL:
            raise gram_error(gram_residual)
        x.setflags(write=False)  # the residuals are recorded once
        object.__setattr__(self, "coords", x)
        object.__setattr__(self, "gram_residual", gram_residual)
        object.__setattr__(self, "conj_residual", conj_residual)

    @classmethod
    def _recorded(cls, theta, coords, gram_residual: float, conj_residual: float):
        """A basis whose ``basis_residuals`` were taken already: a Clark-chain row, without J."""
        basis = cls.__new__(cls)
        object.__setattr__(basis, "theta", theta)
        basis._record(np.array(coords, dtype=complex), gram_residual, conj_residual)
        return basis

    @classmethod
    def from_elements(cls, elements):
        elements = tuple(elements)
        theta = elements[0].theta
        return cls(theta, coordinates(theta, elements))

    @property
    def elements(self) -> tuple:
        numerators = _tmw_numerators(self.theta) @ self.coords
        return tuple(KThetaElement(self.theta, tuple(col)) for col in numerators.T)

    def __call__(self, z) -> np.ndarray:
        """Values of every element at z, shape ``(len(elements),) + np.shape(z)``."""
        return np.tensordot(self.coords.T, tmw_values(self.theta, z), axes=1)


def reference_onb(b: BlaschkeProduct) -> OrthonormalBasis:
    """Orthonormal basis from Gram-Schmidt on the monomial numerators.

    The monomials have coordinates T^-1 (T the numerator matrix of the
    orthonormal Takenaka-Malmquist-Walsh basis).  Gram-Schmidt on those
    columns is their QR factorization with a positive diagonal in R, so the
    phases of numpy's diagonal are divided out of Q.
    """
    q, r = np.linalg.qr(np.linalg.inv(_tmw_numerators(b)))
    d = np.diag(r)
    return OrthonormalBasis(b, q * (d / np.abs(d)))


def conjugation_residual(basis: OrthonormalBasis) -> float:
    """max_i || C v_i - v_i ||: how far the basis is from being conjugation-fixed.

    C v = J conj(x) for the coordinates x of v (``conjugation_matrix``).
    """
    cx = conjugation_matrix(basis.theta) @ np.conj(basis.coords)
    return float(basis_residuals(basis.coords[None], cx[None])[1][0])


def basis_residuals(x, cx):
    """(||G - I||_F, max_i ||cx_i - x_i||) for the coordinates x (N, n, k) of v_i and cx of C v_i.

    G = x^T conj(x) is the Gram matrix of the v_i; both residuals have shape (N,).
    """
    gram = x.transpose(0, 2, 1) @ np.conj(x)
    gram.reshape(len(x), -1)[:, :: x.shape[2] + 1] -= 1.0
    moved = np.add.reduce(np.abs(cx - x) ** 2, axis=1)
    return (
        np.sqrt(np.add.reduce(np.abs(gram.reshape(len(x), -1)) ** 2, axis=1)),
        np.sqrt(np.maximum.reduce(moved, axis=1)),
    )


def gram_error(residual: float) -> BasisError:
    """The error of a basis whose Gram residual is not below BASIS_TOL."""
    return BasisError("Gram residual %.3e is not below %.1e" % (residual, BASIS_TOL))
