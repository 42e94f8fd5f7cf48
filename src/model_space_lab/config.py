"""Shared numeric configuration: the tolerance defaults."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances shared across the library.

    The defaults are the ones the test suite pins down: level-set roots
    refined to 1e-10, point distinctness above 1e-8, orthonormality and
    representability verdicts at 1e-8, and an absolute singular-value
    floor of 1e-10 below which verdicts are refused as indeterminate.
    """

    root_tol: float = 1e-10           # |theta(eta) - omega| after polishing
    distinct_tol: float = 1e-8        # minimum gap between points meant to differ
    basis_tol: float = 1e-8           # Gram / conjugation-fixedness residuals
    rep_tol: float = 1e-8             # representability verdict threshold
    sv_floor: float = 1e-10           # absolute floor before "indeterminate"
    pole_tol: float = 1e-14           # evaluation this close to a pole is an error
    division_tol: float = 1e-10       # synthetic-division remainder, relative


DEFAULT = NumericConfig()
