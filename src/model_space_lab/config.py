"""The library's tolerances and the one exception class for missing them.

These are the values the test suite pins down: level-set points accurate to
1e-10, point distinctness above 1e-8, orthonormality and representability
verdicts at 1e-8, and an absolute singular-value floor of 1e-10 below which
verdicts are refused as indeterminate.  Only the representability threshold
is a per-call argument (``tol`` of the two decision procedures, set by the
CLI's ``--tol``); everything else is fixed.

Invalid input raises ``ValueError``; valid input whose computation misses
one of these thresholds raises a subclass of ``Indeterminate``.
"""

ROOT_TOL = 1e-10        # |theta(eta) - omega| at each level-set point
DISTINCT_TOL = 1e-8     # minimum gap between points meant to differ
BASIS_TOL = 1e-8        # Gram / conjugation-fixedness residuals
REP_TOL = 1e-8          # default representability verdict threshold
SV_FLOOR = 1e-10        # absolute floor before "indeterminate"
POLE_TOL = 1e-14        # evaluation this close to a pole is an error


class Indeterminate(ArithmeticError):
    """Numerical indeterminacy: round-off leaves the answer on valid input undecided."""
