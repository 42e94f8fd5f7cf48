"""The library's tolerances, its input domains, and the one exception class for missing them.

Only the representability threshold is a per-call argument (``tol`` of the
two decision procedures, set by the CLI's ``--tol``); the other tolerances
are fixed, and the test suite pins them down.

Invalid input raises ``ValueError`` from the one "accept if" check of its
domain below, so NaN fails.  A check returns its input (as int or float for
``integer`` and ``rep_tol``), takes a huge complex's modulus as inf, and checks
a number in plain Python, an array (``finite``, ``on_circle``) with numpy.
Valid input whose computation misses a threshold raises ``Indeterminate``.
"""

import math
import numbers
import sys

import numpy as np

ROOT_TOL = 1e-10        # |theta(eta) - omega| at each level-set point
DISTINCT_TOL = 1e-8     # minimum gap between points meant to differ
BASIS_TOL = 1e-8        # Gram / conjugation-fixedness residuals
REP_TOL = 1e-8          # default representability verdict threshold
SV_FLOOR = 1e-10        # absolute floor before "indeterminate"
POLE_TOL = 1e-14        # evaluation this close to a pole is an error
UNIMODULAR_TOL = 1e-12  # ||z| - 1| of a unimodular input; |c - 1| of a constant that must be 1
CIRCLE_TOL = 1e-10      # ||z| - 1| of an input point on the circle
DISC_SLACK = 1e-12      # |z| - 1 allowed for an input point of the closed disc
ORTH_TOL = 1e-10        # ||U U^T - I||_F and ||det U| - 1| of an input orthogonal U
FAMILY_TOL = 1e-12      # entrywise gap of a matrix read as a counterexample family
_FLOAT_MAX = sys.float_info.max


class Indeterminate(ArithmeticError):
    """Numerical indeterminacy: round-off leaves the answer on valid input undecided."""


def _refuse(value, name: str, domain: str):
    raise ValueError(f"{name} must be {domain}, got {value!r}")


def _modulus(z):
    try:
        return abs(z)  # elementwise for an array
    except OverflowError:  # a complex whose modulus is beyond float range: math.hypot's inf
        return math.inf


def unimodular(z, name: str):
    return z if abs(_modulus(z) - 1.0) <= UNIMODULAR_TOL else _refuse(z, name, "unimodular")


def on_circle(z, name: str):
    """z, a number or an array of them, if each ||z| - 1| <= CIRCLE_TOL."""
    ok = abs(_modulus(z) - 1.0) <= CIRCLE_TOL
    return z if ok is True or np.all(ok) else _refuse(z, name, "on the unit circle")


def open_disc(z, name: str):
    return z if _modulus(z) < 1.0 else _refuse(z, name, "in the open unit disc")


def closed_disc(z, name: str):
    return z if _modulus(z) <= 1.0 + DISC_SLACK else _refuse(z, name, "in the closed unit disc")


def finite(x, name: str):
    """x, an array or a number (bools refused), if no part is inf, NaN or beyond float range."""
    if isinstance(x, np.ndarray):
        ok = np.isfinite(x).all()
    else:
        ok = isinstance(x, numbers.Number) and not isinstance(x, bool)
        ok = ok and abs(x.real) <= _FLOAT_MAX and abs(x.imag) <= _FLOAT_MAX
    return x if ok else _refuse(x, name, "finite")


def integer(n, low: int, name: str) -> int:
    """int(n) if n is an integer >= low (``numbers.Integral``, bools refused)."""
    ok = isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= low
    return int(n) if ok else _refuse(n, name, f"an integer >= {low}")


def rep_tol(tol) -> float:
    """float(tol) if the representability threshold tol is a finite number > 0 (no bool)."""
    ok = isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < tol <= _FLOAT_MAX
    return float(tol) if ok else _refuse(tol, "tol", "a finite number > 0")
