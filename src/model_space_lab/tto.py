"""Truncated Toeplitz operators: matrices from symbols and random draws from the span.

A trigonometric-polynomial symbol phi = sum_k c_k z^k acts as
f -> P(phi * f).  By Sarason's functional calculus A_{z^k} = A_z^k and
A_{conj(z)^k} = (A_z^*)^k, so its matrix w.r.t. an orthonormal basis, with
entries <A v_j, v_i>, is exact polynomial arithmetic on the compressed shift.

A seeded random operator of the whole (2n-1 = 5)-dimensional space at order 3
is a Gaussian combination of the five rank-one generators k_t (x) k_t and
k_lam (x) C k_lam built by ``repcheck.build_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, compressed_shift
from .config import finite
from .modelspace import OrthonormalBasis
from .repcheck import PointConfig, Sym3, _spanning_columns, default_points

__all__ = [
    "Symbol",
    "TTOMatrix",
    "tto_matrix_from_symbol",
    "random_tto",
]


@dataclass(frozen=True)
class Symbol:
    """Finite trigonometric polynomial sum c_k z^k, k ranging over integers."""

    coeffs: tuple  # ((k, c), ...) sorted by k

    def __post_init__(self):
        pairs = tuple((int(k), finite(complex(c), "symbol coefficient")) for k, c in self.coeffs)
        pairs = tuple(sorted(pairs, key=lambda p: p[0]))
        if len({k for k, _ in pairs}) != len(pairs):
            raise ValueError("duplicate frequencies in symbol")
        object.__setattr__(self, "coeffs", pairs)

    @classmethod
    def from_dict(cls, d) -> "Symbol":
        return cls(tuple(d.items()))

    @classmethod
    def shift(cls) -> "Symbol":
        return cls(((1, 1.0),))

    @classmethod
    def identity(cls) -> "Symbol":
        return cls(((0, 1.0),))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for k, c in self.coeffs:
            out = out + c * z ** k
        return out if out.shape else complex(out)


@dataclass(frozen=True, eq=False)
class TTOMatrix:
    """Matrix of a truncated Toeplitz operator given by its symbol."""

    array: np.ndarray

    @classmethod
    def from_array(cls, m) -> "TTOMatrix":
        m = np.array(m, dtype=complex)
        m.setflags(write=False)
        return cls(m)

    def symmetry_defect(self) -> float:
        return float(np.linalg.norm(self.array - self.array.T))


def tto_matrix_from_symbol(b: BlaschkeProduct, phi: Symbol, basis: OrthonormalBasis) -> TTOMatrix:
    """Matrix with entries <P(phi v_j), v_i>.

    sum_{k>=0} c_k Z^k + sum_{k<0} c_k (Z^H)^|k| is the operator in the
    orthonormal coordinates, where Z is the compressed shift.
    """
    if basis.theta != b:
        raise ValueError("basis lives in a different model space")
    z = compressed_shift(b)
    op = np.zeros_like(z)
    for k, c in phi.coeffs:
        op += c * np.linalg.matrix_power(z if k >= 0 else np.conj(z.T), abs(k))
    x = basis.coords
    return TTOMatrix.from_array(np.conj(x.T) @ op @ x)


def random_tto(b: BlaschkeProduct, basis: OrthonormalBasis, seed: int, *, points=None):
    """Seeded random element of the operator space: (mu, sum_i mu_i G_i) as a Sym3.

    The generators G_i are the columns of ``build_columns`` at ``points``
    (boundary, interior), by default ``default_points(b)``.  The five
    coefficients are standard complex Gaussians drawn from
    ``numpy.random.default_rng(seed)``, so the draw is deterministic given
    the seed and independent of the basis.
    """
    pc = default_points(b) if points is None else PointConfig(*points)
    cols = _spanning_columns(basis, pc)
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return mu, Sym3(*(cols @ mu))
