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

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .blaschke import BlaschkeProduct
from .config import Checked, finite, integer, sequence
from .modelspace import OrthonormalBasis
from .repcheck import PointConfig, Sym3, build_columns, default_points

__all__ = [
    "Symbol",
    "TTOMatrix",
    "tto_matrix_from_symbol",
    "random_tto",
]


class Symbol(Checked, namedtuple("Symbol", "coeffs")):
    """Trigonometric polynomial sum c_k z^k: ``coeffs`` the pairs (k, c) sorted by k, k an integer."""

    __slots__ = ()

    def __new__(cls, coeffs):
        terms = [tuple(sequence(term, "symbol term")) for term in sequence(coeffs, "symbol")]
        if any(len(term) != 2 for term in terms):
            raise ValueError("each symbol term must be a (frequency, coefficient) pair")
        pairs = ((integer(k, -math.inf, "symbol frequency"), complex(finite(c, "symbol coefficient")))
                 for k, c in terms)
        pairs = tuple(sorted(pairs, key=lambda p: p[0]))
        if len({k for k, _ in pairs}) != len(pairs):
            raise ValueError("duplicate frequencies in symbol")
        return cls._make((pairs,))

    @classmethod
    def shift(cls) -> "Symbol":
        return cls(((1, 1.0),))


class TTOMatrix(NamedTuple):
    """Matrix of a truncated Toeplitz operator given by its symbol, a read-only complex array."""

    array: np.ndarray


def tto_matrix_from_symbol(b: BlaschkeProduct, phi: Symbol, basis: OrthonormalBasis) -> TTOMatrix:
    """Matrix with entries <P(phi v_j), v_i>.

    sum_{k>=0} c_k Z^k + sum_{k<0} c_k (Z^H)^|k| is the operator in the
    orthonormal coordinates, where Z is the compressed shift.
    """
    if basis.theta != b:
        raise ValueError("basis lives in a different model space")
    z = b.stack.shift[0]
    op = np.zeros_like(z)
    for k, c in phi.coeffs:
        op += c * np.linalg.matrix_power(z if k >= 0 else np.conj(z.T), abs(k))
    x = basis.coords
    m = np.conj(x.T) @ op @ x
    m.setflags(write=False)
    return TTOMatrix(m)


def random_tto(b: BlaschkeProduct, basis: OrthonormalBasis, seed: int, *, points=None):
    """Seeded random element of the operator space: (mu, sum_i mu_i G_i) as a Sym3.

    The generators G_i are the columns of ``build_columns`` at ``points``
    (boundary, interior), by default ``default_points(b)``, for a basis of b's
    model space (else ValueError).  The five coefficients are standard complex
    Gaussians drawn from ``numpy.random.default_rng(seed)``, seed an integer >= 0
    (ValueError), so the draw is deterministic given the seed and independent of the basis.
    """
    if basis.theta != b:
        raise ValueError("basis lives in a different model space")
    pc = default_points(b) if points is None else PointConfig(*points)
    rng = np.random.default_rng(integer(seed, 0, "seed"))  # invalid input before indeterminacy
    cols = build_columns(basis, pc).columns
    mu = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return mu, Sym3._make((cols @ mu).tolist())
