"""Seeded random Clark bases: a product, its parameters and the basis of each draw.

Zeros lie in the disc of radius ``ZERO_RADIUS`` and Clark anchor points t in
that of ``ANCHOR_RADIUS``, away from the circle so level sets stay well separated.

A random Clark basis is one attempt of ``CLARK_DRAW`` uniforms, decoded by ``decode_clark_draws``;
``clark_draws`` runs the Clark chain on blocks of attempts and returns the bases as stacked rows.
The counterexample sweep draws from ``stdlib_uniforms``, so a CLI call never imports ``numpy.random``.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np

from .blaschke import LevelSetError, product_stack
from .clark import ClarkRows, ClarkTargetError, clark_rows

__all__ = [
    "CLARK_DRAW",
    "stdlib_uniforms",
    "decode_clark_draws",
    "clark_draws",
]

# Uniforms per Clark-basis attempt, in this order: three zeros (radius, angle),
# the front constant, t (radius, angle) and alpha.
CLARK_DRAW = 10
RETRIES = 8  # consecutive failed attempts before the last error is raised
ZERO_RADIUS = 0.85  # zeros of a random product
ANCHOR_RADIUS = 0.6  # anchor point t of random Clark parameters


def stdlib_uniforms(seed: int) -> SimpleNamespace:
    """``random.Random(seed)`` with a ``Generator``'s ``random(shape)``: its stream in row-major order."""
    draw = random.Random(seed).random
    return SimpleNamespace(random=lambda shape: np.reshape([draw() for _ in range(np.prod(shape))], shape))


def _disc(radius, angle, rmax):
    return rmax * np.sqrt(radius) * np.exp(2j * np.pi * angle)


def _unimodular(angle):
    return np.exp(2j * np.pi * angle)


def decode_clark_draws(u):
    """(zeros (N, 3), constants, t, alpha (N,)) from N rows of ``CLARK_DRAW`` uniforms.

    Per row: zero k from uniforms 2k (area-uniform radius) and 2k+1 (angle) in the
    disc of radius ZERO_RADIUS, the constant's angle from 6, t from 7 and 8 in the
    disc of radius ANCHOR_RADIUS, and alpha's angle from 9.
    """
    return (
        _disc(u[:, 0:6:2], u[:, 1:6:2], ZERO_RADIUS),
        _unimodular(u[:, 6]),
        _disc(u[:, 7], u[:, 8], ANCHOR_RADIUS),
        _unimodular(u[:, 9]),
    )


def clark_draws(rng, count: int) -> ClarkRows:
    """The first ``count`` random Clark bases, as rows in draw order.

    Each attempt takes ``CLARK_DRAW`` uniforms.  Blocks of as many attempts as bases
    are still missing run through ``clark_rows`` on one ``product_stack``, so no
    uniform is drawn beyond the last attempt used.  An attempt whose target or level
    set fails is skipped; after ``RETRIES`` consecutive skips the last error is
    raised.  Any other failure (``BasisError``) is raised at its row.  After an
    error the generator stands at the end of the failing row's block.
    """
    parts, kept, skipped = [], 0, 0
    while kept < count:
        zeros, constants, t, alpha = decode_clark_draws(rng.random((count - kept, CLARK_DRAW)))
        rows = clark_rows(product_stack(zeros, constants), t, alpha)
        good = []
        for i in range(len(rows.omega)):
            error = rows.failures.get(i)
            if error is None:
                good.append(i)
                skipped = 0
            elif isinstance(error, (LevelSetError, ClarkTargetError)):
                skipped += 1
                if skipped == RETRIES:
                    raise error
            else:
                raise error
        parts.append(rows.take(good))
        kept += len(good)
    return ClarkRows(*map(np.concatenate, zip(*(part[:-1] for part in parts))), {})
