"""Seeded random draws of products, parameters, bases, and matrices.

Radii are capped away from the circle so level sets stay well separated.
"""

from __future__ import annotations

import numpy as np

from .blaschke import BlaschkeProduct, LevelSetError
from .clark import ClarkBasis, ClarkParams, ClarkTargetError, modified_clark_basis

__all__ = [
    "random_unimodular",
    "random_disc",
    "random_blaschke",
    "random_clark_params",
    "random_clark_basis",
    "random_special_orthogonal",
]


def random_unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def random_disc(rng, rmax: float = 0.85) -> complex:
    """Area-uniform point in the disc of radius rmax."""
    return complex(rmax * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


def random_blaschke(rng, order: int = 3, rmax: float = 0.85, unit_constant: bool = False) -> BlaschkeProduct:
    zeros = [random_disc(rng, rmax) for _ in range(order)]
    c = 1.0 if unit_constant else random_unimodular(rng)
    return BlaschkeProduct(zeros=tuple(zeros), front_constant=c)


def random_clark_params(rng, tmax: float = 0.6) -> ClarkParams:
    return ClarkParams(t=random_disc(rng, tmax), alpha=random_unimodular(rng))


def random_clark_basis(rng) -> ClarkBasis:
    """Clark basis of a random order-3 product; after 8 bad draws the last error is raised."""
    for _ in range(8):
        try:
            b = random_blaschke(rng, order=3)
            return modified_clark_basis(b, random_clark_params(rng))
        except (LevelSetError, ClarkTargetError) as exc:
            error = exc
    raise error


def random_special_orthogonal(rng) -> np.ndarray:
    """Haar-ish random rotation from a QR decomposition with positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
