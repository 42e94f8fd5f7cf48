"""The library's tolerances: one fixed table shared by every module.

These are the values the test suite pins down: level-set roots refined to
1e-10, point distinctness above 1e-8, orthonormality and representability
verdicts at 1e-8, and an absolute singular-value floor of 1e-10 below which
verdicts are refused as indeterminate.  Only the representability threshold
is a per-call argument (``tol`` of the two decision procedures, set by the
CLI's ``--tol``); everything else is fixed.
"""

ROOT_TOL = 1e-10        # |theta(eta) - omega| after polishing
DISTINCT_TOL = 1e-8     # minimum gap between points meant to differ
BASIS_TOL = 1e-8        # Gram / conjugation-fixedness residuals
REP_TOL = 1e-8          # default representability verdict threshold
SV_FLOOR = 1e-10        # absolute floor before "indeterminate"
POLE_TOL = 1e-14        # evaluation this close to a pole is an error
DIVISION_TOL = 1e-10    # synthetic-division remainder, relative
