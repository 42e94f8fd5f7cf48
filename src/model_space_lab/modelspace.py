"""Order-n model space attached to a finite Blaschke product.

Every element of the space is a rational function

    f(z) = (a_0 + a_1 z + ... + a_{n-1} z^{n-1}) / prod_i (1 - conj(w_i) z)

over the fixed denominator built from the zeros w_i of the product B, so the
space is parametrized by the n numerator coefficients.  The inner product is
the boundary L^2 pairing, evaluated exactly in coefficient space: the
Takenaka-Malmquist-Walsh functions

    e_k(z) = sqrt(1 - |w_k|^2) / (1 - conj(w_k) z) * prod_{j<k} (z - w_j) / (1 - conj(w_j) z)

are an orthonormal basis (repeated zeros allowed), so solving for an element's
coordinates in it turns every pairing into a dot product.  In the same
coordinates the compressed shift f -> P(z f) is the companion matrix of
prod_i (z - w_i) brought over by the change of basis.  The two structural
players are the reproducing kernel

    k_lam(z) = (1 - conj(B(lam)) B(z)) / (1 - conj(lam) z)

and the canonical conjugation, whose action in coefficient form is
"conjugate and reverse" times the front constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import BlaschkeProduct, polynomial_pair
from .config import BASIS_TOL, DIVISION_TOL

__all__ = [
    "KThetaElement",
    "OrthonormalBasis",
    "DivisionRemainderError",
    "BasisError",
    "inner_product",
    "norm",
    "kernel_element",
    "conjugate",
    "reference_onb",
    "gram_matrix",
    "conjugation_residual",
    "coordinates",
    "compressed_shift",
]


class DivisionRemainderError(ArithmeticError):
    """Synthetic division left a non-negligible remainder."""


class BasisError(ArithmeticError):
    """A set of elements failed the orthonormality check of ``OrthonormalBasis``."""


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
        out = _values(self.theta, np.array(self.numerator)[:, None], z)[0]
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


def _values(b: BlaschkeProduct, numerators: np.ndarray, z) -> np.ndarray:
    """Values at z of the elements whose numerators are the columns of ``numerators``.

    The result has shape ``(k,) + np.shape(z)`` for k columns.
    """
    z = np.asarray(z, dtype=complex)[..., None]
    den = np.prod(1.0 - np.conj(np.array(b.zeros)) * z, axis=-1)
    num = (z ** np.arange(b.order)) @ numerators
    return np.moveaxis(num / den[..., None], -1, 0)


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


def compressed_shift(b: BlaschkeProduct) -> np.ndarray:
    """Matrix of A_z f = P(z f) in the orthonormal coordinates of ``coordinates``.

    On numerators A_z multiplies by z and reduces modulo prod_i (z - w_i):
    the part removed is a constant times B, which is orthogonal to K_b.
    That is the companion matrix S of prod_i (z - w_i); the result is
    T^-1 S T for the numerator matrix T of the orthonormal basis.
    """
    n = b.order
    num, _ = polynomial_pair(b)
    s = np.eye(n, k=-1, dtype=complex)
    s[:, -1] = -num[:n]
    t = _tmw_numerators(b)
    return np.linalg.solve(t, s @ t)


def inner_product(f: KThetaElement, g: KThetaElement):
    """Boundary pairing (1/2pi) * integral of f * conj(g), conjugate-linear in g."""
    x = coordinates(f.theta, (f, g))
    return complex(x[:, 0] @ np.conj(x[:, 1]))


def norm(f: KThetaElement) -> float:
    return float(np.linalg.norm(coordinates(f.theta, (f,))))


def kernel_element(b: BlaschkeProduct, lam) -> KThetaElement:
    """Reproducing kernel at ``lam`` (closed disc) in coefficient form.

    The numerator of 1 - conj(B(lam)) B(z) over the common denominator is a
    degree-n polynomial exactly divisible by (1 - conj(lam) z); synthetic
    division produces the n kernel coefficients, and the remainder is
    asserted to vanish relative to the coefficient scale.
    """
    lam = complex(lam)
    if abs(lam) > 1.0 + 1e-12:
        raise ValueError("kernel point must lie in the closed disc, got %r" % lam)
    value = b(lam)
    num, den = polynomial_pair(b)
    q = den - np.conj(value) * b.front_constant * num  # ascending, length n+1
    n = b.order
    a = np.zeros(n, dtype=complex)
    a[0] = q[0]
    lam_bar = np.conj(lam)
    for j in range(1, n):
        a[j] = q[j] + lam_bar * a[j - 1]
    remainder = q[n] + lam_bar * a[n - 1]
    scale = max(float(np.max(np.abs(q))), 1e-300)
    if abs(remainder) > DIVISION_TOL * scale:
        raise DivisionRemainderError(
            "kernel division remainder %.3e exceeds %.1e of coefficient scale"
            % (abs(remainder), DIVISION_TOL)
        )
    return KThetaElement(b, tuple(a))


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
    """Orthonormal elements of one model space and what is known of them once built.

    ``coords`` holds the orthonormal coordinates of the elements, one column
    each; ``gram_residual`` is ||Gram - I||_F, which must be below BASIS_TOL
    (else BasisError); ``conj_residual`` is ``conjugation_residual`` of the
    basis.  Calling the basis at points z gives all element values, one row
    per element.
    """

    elements: tuple
    tag: str = "onb"
    coords: np.ndarray = field(init=False, repr=False)
    gram_residual: float = field(init=False)
    conj_residual: float = field(init=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        x = coordinates(elements[0].theta, elements)
        residual = float(np.linalg.norm(x.T @ np.conj(x) - np.eye(len(elements))))
        if residual >= BASIS_TOL:
            raise BasisError(
                "Gram residual %.3e is not below %.1e" % (residual, BASIS_TOL)
            )
        object.__setattr__(self, "coords", x)
        object.__setattr__(self, "gram_residual", residual)
        object.__setattr__(self, "conj_residual", conjugation_residual(self))

    @classmethod
    def from_elements(cls, elements, *, tag: str = "onb"):
        return cls(elements, tag)

    @property
    def theta(self) -> BlaschkeProduct:
        return self.elements[0].theta

    @property
    def numerators(self) -> np.ndarray:
        """Column j holds the numerator coefficients of ``elements[j]``."""
        return np.array([e.numerator for e in self.elements], dtype=complex).T

    def __call__(self, z) -> np.ndarray:
        """Values of every element at z, shape ``(len(elements),) + np.shape(z)``."""
        return _values(self.theta, self.numerators, z)


def reference_onb(b: BlaschkeProduct) -> OrthonormalBasis:
    """Orthonormal basis from Gram-Schmidt on the monomial numerators.

    The monomials have coordinates T^-1 (T the numerator matrix of the
    orthonormal Takenaka-Malmquist-Walsh basis).  Gram-Schmidt on those
    columns is their QR factorization with a positive diagonal in R, so the
    phases of numpy's diagonal are divided out of Q.
    """
    t = _tmw_numerators(b)
    q, r = np.linalg.qr(np.linalg.inv(t))
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return OrthonormalBasis.from_elements(
        (KThetaElement(b, tuple(col)) for col in (t @ q).T), tag="reference"
    )


def conjugation_residual(basis: OrthonormalBasis) -> float:
    """max_i || C v_i - v_i ||: how far the basis is from being conjugation-fixed."""
    moved = [conjugate(e) - e for e in basis.elements]
    return float(np.linalg.norm(coordinates(basis.theta, moved), axis=0).max())
