"""Truncated Toeplitz operators: matrices from symbols, and seeded random symbols.

A trigonometric-polynomial symbol phi = sum_k c_k z^k acts as
f -> P(phi * f).  By Sarason's functional calculus A_{z^k} = A_z^k and
A_{conj(z)^k} = (A_z^*)^k, so its matrix w.r.t. an orthonormal basis, with
entries <A v_j, v_i>, is exact polynomial arithmetic on the compressed shift.

The A_{z^k}, |k| < n, are a basis of the (2n-1)-dimensional operator space, repeated zeros too:
Z = A_z is lower triangular with a nonzero subdiagonal, so nonderogatory.  If P(Z) = -Q(Z)^H (degrees
< n, Q(0) = 0), both sides are diagonal, hence scalar (they commute with Z): P = d, Q = -conj(d), d = 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .blaschke import BlaschkeProduct
from .config import TTO_SYM_TOL, Checked, finite, integer, sequence
from .modelspace import OrthonormalBasis
from .repcheck import PointConfig, Sym3, _conjugation_fixed

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
        return _SHIFT


_SHIFT = Symbol(((1, 1.0),))


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
    """Seeded random element of the operator space: (mu, the Sym3 of phi = sum_k mu_k z^k, |k| < n).

    mu, k ascending, holds standard complex Gaussians from ``numpy.random.default_rng(seed)``; the
    Sym3 is ``tto_matrix_from_symbol`` read at TTO_SYM_TOL.  The A_{z^k} are a basis of the space
    (module docstring): every draw is in it, and one seed is one operator in every basis of b.
    ValueError, in order: seed not an integer >= 0, a basis of another space or not conjugation-fixed,
    ``points`` not a (boundary, interior) ``PointConfig``; it does not change the draw (ROADMAP item 2).
    """
    rng = np.random.default_rng(integer(seed, 0, "seed"))
    if basis.theta != b:
        raise ValueError("basis lives in a different model space")
    _conjugation_fixed(basis)
    if points is not None:
        if len(pair := tuple(sequence(points, "points"))) != 2:
            raise ValueError(f"points must be a (boundary, interior) pair, got length {len(pair)}")
        PointConfig(*pair)
    mu = rng.standard_normal(2 * b.order - 1) + 1j * rng.standard_normal(2 * b.order - 1)
    symbol = Symbol._make((tuple(zip(range(1 - b.order, b.order), mu.tolist())),))
    return mu, Sym3.from_array(tto_matrix_from_symbol(b, symbol, basis).array, tol=TTO_SYM_TOL)
