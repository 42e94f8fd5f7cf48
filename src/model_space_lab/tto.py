"""Truncated Toeplitz operators: matrices from symbols and rank-one generators.

A trigonometric-polynomial symbol phi = sum_k c_k z^k acts as
f -> P(phi * f).  By Sarason's functional calculus A_{z^k} = A_z^k and
A_{conj(z)^k} = (A_z^*)^k, so its matrix w.r.t. an orthonormal basis, with
entries <A v_j, v_i>, is exact polynomial arithmetic on the compressed shift.
Two families of rank-one operators are the building blocks of the whole
operator space at order 3:

    k_t (x) k_t          for a circle point t,
    k_lam (x) C k_lam    for an interior point lam,

and any three distinct circle points plus two distinct interior points give
five generators spanning the (2n-1 = 5)-dimensional space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, level_set
from .config import DEFAULT, NumericConfig
from .modelspace import OrthonormalBasis, compressed_shift, conjugate, coordinates

__all__ = [
    "Symbol",
    "TTOMatrix",
    "GeneratorRankError",
    "tto_matrix_from_symbol",
    "rank_one_boundary",
    "rank_one_conjugate",
    "tto_generators",
    "random_tto",
    "generator_singular_values",
    "default_generator_points",
]


class GeneratorRankError(ArithmeticError):
    """The five generator matrices failed to span a 5-dimensional space."""


@dataclass(frozen=True)
class Symbol:
    """Finite trigonometric polynomial sum c_k z^k, k ranging over integers."""

    coeffs: tuple  # ((k, c), ...) sorted by k

    def __post_init__(self):
        pairs = tuple(
            sorted(((int(k), complex(c)) for k, c in self.coeffs), key=lambda p: p[0])
        )
        ks = [k for k, _ in pairs]
        if len(set(ks)) != len(ks):
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


@dataclass(frozen=True)
class TTOMatrix:
    """Matrix of a truncated Toeplitz operator w.r.t. a tagged basis."""

    entries: tuple  # tuple of row tuples
    basis_tag: str

    def __post_init__(self):
        rows = tuple(tuple(complex(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_array(cls, m, basis_tag: str) -> "TTOMatrix":
        return cls(tuple(tuple(row) for row in np.asarray(m, dtype=complex)), basis_tag)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    def symmetry_defect(self) -> float:
        m = self.array
        return float(np.linalg.norm(m - m.T))


def tto_matrix_from_symbol(b: BlaschkeProduct, phi: Symbol, basis: OrthonormalBasis) -> TTOMatrix:
    """Matrix with entries <P(phi v_j), v_i>.

    sum_{k>=0} c_k Z^k + sum_{k<0} c_k (Z^H)^|k| is the operator in the
    orthonormal coordinates, where Z is the compressed shift.
    """
    z = compressed_shift(b)
    op = np.zeros_like(z)
    for k, c in phi.coeffs:
        op += c * np.linalg.matrix_power(z if k >= 0 else np.conj(z.T), abs(k))
    x = coordinates(b, basis.elements)
    return TTOMatrix.from_array(np.conj(x.T) @ op @ x, basis.tag)


def rank_one_boundary(
    b: BlaschkeProduct, t, basis: OrthonormalBasis, *, config: NumericConfig = DEFAULT
) -> TTOMatrix:
    """Matrix of k_t (x) k_t for a circle point t: entry (i,j) = v_j(t) conj(v_i(t))."""
    t = complex(t)
    if abs(abs(t) - 1.0) > 1e-10:
        raise ValueError("boundary rank-one point must lie on the circle")
    vals = np.array([e(t) for e in basis.elements])
    return TTOMatrix.from_array(np.outer(np.conj(vals), vals), basis.tag)


def rank_one_conjugate(
    b: BlaschkeProduct, lam, basis: OrthonormalBasis, *, config: NumericConfig = DEFAULT
) -> TTOMatrix:
    """Matrix of k_lam (x) C k_lam for interior lam.

    Entry (i, j) = <v_j, C k_lam> conj(v_i(lam)) with
    <v_j, C k_lam> = conj((C v_j)(lam)); for a conjugation-fixed basis this
    reduces to conj(v_i(lam) v_j(lam)).
    """
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise ValueError("conjugate-kernel rank-one point must lie in the open disc")
    vals = np.array([e(lam) for e in basis.elements])
    cvals = np.array([conjugate(e)(lam) for e in basis.elements])
    return TTOMatrix.from_array(np.outer(np.conj(vals), np.conj(cvals)), basis.tag)


def tto_generators(
    b: BlaschkeProduct,
    boundary,
    interior,
    basis: OrthonormalBasis,
    *,
    config: NumericConfig = DEFAULT,
):
    """The five spanning rank-one matrices for three circle and two disc points.

    Distinctness (within each group) is enforced with the configured gap, and
    the result is checked to have full rank 5: the fifth singular value of the
    stacked vectorizations must exceed 1e-8 of the largest.
    """
    boundary = [complex(t) for t in boundary]
    interior = [complex(l) for l in interior]
    if len(boundary) != 3 or len(interior) != 2:
        raise ValueError("need exactly 3 circle points and 2 interior points")
    for group in (boundary, interior):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if abs(group[i] - group[j]) <= config.distinct_tol:
                    raise ValueError(
                        "generator points %r and %r are not distinct"
                        % (group[i], group[j])
                    )
    gens = [rank_one_boundary(b, t, basis, config=config) for t in boundary]
    gens += [rank_one_conjugate(b, l, basis, config=config) for l in interior]
    sv = generator_singular_values(gens)
    if sv[4] <= config.rep_tol * sv[0]:
        raise GeneratorRankError(
            "generators span only rank %d (singular values %s)"
            % (int(np.sum(sv > config.rep_tol * sv[0])), sv.tolist())
        )
    return gens


def generator_singular_values(gens) -> np.ndarray:
    """Singular values of the stacked 9-entry vectorizations, descending."""
    stack = np.stack([g.array.reshape(9) for g in gens])
    return np.linalg.svd(stack, compute_uv=False)


def default_generator_points(b: BlaschkeProduct, *, config: NumericConfig = DEFAULT):
    """Default point configuration: the level set of 1 plus two fixed disc points."""
    return tuple(level_set(b, 1.0, config=config)), (0.0 + 0.0j, 0.41 + 0.13j)


def random_tto(
    b: BlaschkeProduct,
    basis: OrthonormalBasis,
    seed: int,
    *,
    points=None,
    config: NumericConfig = DEFAULT,
):
    """Seeded random element of the operator space: (mu, sum_i mu_i G_i).

    The five coefficients are standard complex Gaussians drawn from
    ``numpy.random.default_rng(seed)``, so the draw is deterministic given
    the seed and independent of the basis.
    """
    if points is None:
        boundary, interior = default_generator_points(b, config=config)
    else:
        boundary, interior = points
    gens = tto_generators(b, boundary, interior, basis, config=config)
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    total = sum(m * g.array for m, g in zip(mu, gens))
    return mu, TTOMatrix.from_array(total, basis.tag)
