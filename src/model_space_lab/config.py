"""The library's tolerances, its input domains, its checked record, and the one exception class.

Every threshold that decides a verdict or an indeterminacy is written here
once (``tests/test_errors.py`` finds no exponent-form number elsewhere).
Only the representability threshold is a per-call argument (``tol`` of the
two decision procedures, set by the CLI's ``--tol``); the other tolerances
are fixed, and the test suite pins them down.

Invalid input raises ``ValueError`` from the one "accept if" check of its
domain below, so NaN fails.  A check returns its input (as int or float for
``integer`` and ``rep_tol``), takes a huge complex's modulus as inf, and checks
a number in plain Python, an array (``finite``, ``on_circle``) with numpy.
Valid input whose computation misses a threshold raises ``Indeterminate``.

Every record is a named tuple.  One that checks its fields subclasses
``Checked``: ``X(...)`` and ``_replace`` go through its ``__new__``, which
returns the checked fields, and ``X._make`` takes values the library has just
computed and checks nothing.
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
UNIMODULAR_TOL = 1e-12  # ||z| - 1| of a unimodular input
CIRCLE_TOL = 1e-10      # ||z| - 1| of an input point on the circle
DISC_SLACK = 1e-12      # |z| - 1 allowed for an input point of the closed disc
FAMILY_TOL = 1e-12      # entrywise gap of a matrix read as a counterexample family
SYM_TOL = 1e-10         # default |m - m^T| / (largest part of m) of a matrix read as symmetric
TTO_SYM_TOL = 1e-7      # the same for a computed operator matrix (tto-matrix task)
TARGET_FLOOR = 1e-12    # |1 + conj(B(t)) alpha| below which the Clark target is indeterminate
REAL_TOL = 1e-12        # largest imaginary part / largest part of a matrix taken as real
ANGLE_SNAP = 1e-9       # angles this close below 2*pi count as just below 0
_FLOAT_MAX = sys.float_info.max


class Indeterminate(ArithmeticError):
    """Numerical indeterminacy: round-off leaves the answer on valid input undecided."""


class Checked:
    """Mixin of a named tuple whose ``__new__`` checks its fields: ``_replace`` checks too."""

    __slots__ = ()
    # Not a sequence to join or repeat, nor a numpy operand: r + r, (1,) + r, 2 * r, np.float64(2) * r raise.
    __add__ = __radd__ = __mul__ = __rmul__ = __array_ufunc__ = None

    def _replace(self, **fields):
        """The record with ``fields`` changed, built by ``__new__`` from ``__getnewargs__``."""
        return type(self)(**{**dict(zip(self._fields, self.__getnewargs__())), **fields})


def _refuse(value, name: str, domain: str):
    raise ValueError(f"{name} must be {domain}, got {value!r}")


def _modulus(z):
    try:
        return abs(z)  # elementwise for an array
    except OverflowError:  # a complex whose modulus is beyond float range: math.hypot's inf
        return math.inf


def number(z, name: str) -> complex:
    """complex(z) of a number z, bools refused; inf and NaN are left to the domain check."""
    ok = isinstance(z, (float, complex, np.inexact))  # the common numbers first: a cheaper check
    ok = ok or isinstance(z, numbers.Number) and not isinstance(z, bool)
    return complex(z) if ok else _refuse(z, name, "a number")


def real(x, name: str) -> float:
    """float(x) if x is a finite real number (``numbers.Real``, bools refused)."""
    ok = isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX
    return float(x) if ok else _refuse(x, name, "a finite real number")


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


def sequence(x, name: str):
    """x if it is iterable, so a number where a sequence belongs is invalid input, not a TypeError."""
    return x if np.iterable(x) else _refuse(x, name, "a sequence")


def integer(n, low: float, name: str) -> int:
    """int(n) if n is an integer >= low (``numbers.Integral``, bools refused)."""
    ok = isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= low
    return int(n) if ok else _refuse(n, name, f"an integer >= {low}")


def rep_tol(tol) -> float:
    """float(tol) if the representability threshold tol is a finite number > 0 (no bool)."""
    ok = isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < tol <= _FLOAT_MAX
    return float(tol) if ok else _refuse(tol, "tol", "a finite number > 0")
