"""Decision procedures for representability of 3x3 complex symmetric matrices.

Two independent tests decide whether a complex symmetric matrix is the matrix
of a truncated Toeplitz operator with respect to a fixed conjugation-fixed
basis:

* a determinant test that vectorizes five rank-one generator matrices into
  columns and checks whether the candidate matrix lies in their span, and
* a single closed-form relation that predicts the (2,3) entry from the (1,2)
  and (1,3) entries when the basis is a modified Clark basis.

``build_columns`` is the library's one generator span: a ``GeneratorSpan``, the
columns with the SVD of the rank test that refuses near-degenerate points as
indeterminate; the determinant test reads its certificate (mu and the residual)
from its SVD.  ``PointConfig`` is the one place where generator points are validated.

The module also packages the family of normal matrices that always fail the
Clark-basis relation while still being unitarily equivalent to such an
operator, and ``counterexample_report``, which sweeps a matrix over ``TRIALS``
random Clark bases (``clark.clark_draws``).
"""

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .blaschke import level_set, tmw_rows
from .clark import ClarkBasis, clark_draws, stdlib_uniforms
from .config import (BASIS_TOL, DISTINCT_TOL, FAMILY_TOL, REP_TOL, SV_FLOOR, SYM_TOL, Checked,
                     Indeterminate, finite, integer, number, on_circle, open_disc, real, rep_tol, sequence)
from .modelspace import OrthonormalBasis

__all__ = [
    "IndeterminateError",
    "Sym3",
    "PointConfig",
    "GeneratorSpan",
    "Certificate",
    "DetThmResult",
    "S6Result",
    "CounterexampleReport",
    "build_columns",
    "detthm_test",
    "relation_weight",
    "clark_s6_test",
    "counterexample_family",
    "match_counterexample_family",
    "counterexample_report",
    "default_points",
]

# Row order used to flatten a symmetric 3x3 matrix into a 6-vector.
ROW_INDEX = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_ROWS_A, _ROWS_B = np.array(ROW_INDEX).T
_SQUARE = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # 6-vector index of each 3x3 entry
TRIALS = 100  # random Clark bases in the counterexample sweep


class IndeterminateError(Indeterminate):
    """The generator columns are too ill-conditioned to decide either way."""


def _ldexp(x, e: int):
    """x * 2**e for a complex array x: ``np.ldexp`` on its float view.

    One rounding, exact (signed zeros too) unless a part over- or underflows.
    Verdicts are decided before a value is scaled back; an overflow gives inf
    without a warning, for the report to refuse as non-finite.
    """
    with np.errstate(over="ignore"):
        return np.ldexp(x.view(float), e).view(complex)


class Sym3(Checked, namedtuple("Sym3", "s1 s2 s3 s4 s5 s6")):
    """Complex symmetric 3x3 matrix stored by its six independent entries.

    Layout: diagonal (s1, s2, s3); s4 = entry (1,2); s5 = (1,3); s6 = (2,3),
    the order of ``ROW_INDEX``.  ``Sym3(...)`` and ``_replace`` check each entry by
    ``config.number`` (bools refused, inf and NaN kept); ``Sym3._make`` takes
    six complex numbers the library has just computed and checks none.
    """

    __slots__ = ()

    def __new__(cls, s1, s2, s3, s4, s5, s6):
        return cls._make(map(number, (s1, s2, s3, s4, s5, s6), cls._fields))

    @property
    def vector(self) -> np.ndarray:
        """The six entries stacked in the row order used by build_columns."""
        return np.array(self)

    @property
    def array(self) -> np.ndarray:
        return self.vector[_SQUARE]

    def normalized(self):
        """(S * 2**-e, e), e the binary exponent of the largest real or imaginary part.

        Every part of the result is below 1 in modulus (a part, unlike the
        modulus of an entry, never overflows).  The decision procedures run on
        this matrix and scale their numbers back by 2**e, one exact ``ldexp``, so
        no finite S over- or underflows on the way; a non-finite S is a ValueError.
        """
        parts = self.vector.view(float)
        e = math.frexp(finite(float(np.maximum.reduce(np.abs(parts))), "largest part of S"))[1]
        # Every part ends below 1, so a bare ldexp needs no overflow guard (``_ldexp``'s errstate).
        return Sym3._make(np.ldexp(parts, -e).view(complex).tolist()), e

    @classmethod
    def from_array(cls, m, tol: float = SYM_TOL) -> "Sym3":
        """m/2 + m^T/2 of a finite m, refused unless |m/2 - m^T/2| <= tol * (largest part of m/2).

        A part is a real or imaginary part.  A bool, string or object array, or such
        an entry of a nested sequence, is refused as in ``Sym3(...)``.  Halving first
        is exact, so no finite m overflows and normal inputs give the bits of (m + m^T) / 2.
        """
        if not isinstance(m, np.ndarray):  # each entry checked before numpy converts it
            m = np.vectorize(number, otypes=[complex])(np.asarray(m, dtype=object), "matrix entry")
        if m.dtype.kind not in "iufc":
            raise ValueError(f"matrix entries must be numbers, got an array of {m.dtype}")
        half = finite(m.astype(complex), "matrix") / 2.0
        if half.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        if not np.abs(half - half.T).max() <= tol * np.abs(half.view(float)).max():
            raise ValueError("matrix is not complex symmetric")
        return cls._make((half + half.T)[_ROWS_A, _ROWS_B].tolist())


class PointConfig(Checked, namedtuple("PointConfig", "boundary interior")):
    """Three distinct boundary points and two distinct interior points."""

    __slots__ = ()

    def __new__(cls, boundary, interior):
        boundary, interior = sequence(boundary, "boundary points"), sequence(interior, "interior points")
        boundary = tuple(on_circle(number(p, "boundary point"), "boundary point") for p in boundary)
        interior = tuple(open_disc(number(p, "interior point"), "interior point") for p in interior)
        if len(boundary) != 3 or len(interior) != 2:
            raise ValueError("need exactly 3 boundary and 2 interior points")
        for group in (boundary, interior):
            gaps = [abs(p - q) for i, p in enumerate(group) for q in group[i + 1 :]]
            if not min(gaps) > DISTINCT_TOL:
                raise ValueError(f"points must be pairwise distinct (gap > {DISTINCT_TOL:g})")
        return cls._make((boundary, interior))


def default_points(b) -> PointConfig:
    """Level set of 1 on the boundary plus two fixed interior points, all checked by now (``_make``)."""
    return PointConfig._make((tuple(level_set(b, 1.0).tolist()), (0j, 0.41 + 0.13j)))


# The 6x5 generator columns and their full SVD (``build_columns``).
GeneratorSpan = namedtuple("GeneratorSpan", "columns u sv vh")


class Certificate(NamedTuple):
    """Least-squares witness: ``columns @ mu`` projects S on the span, at weighted distance ``residual``."""

    mu: tuple
    residual: float


class DetThmResult(NamedTuple):
    is_rep: bool
    certificate: Certificate
    det_value: complex


class S6Result(NamedTuple):
    is_rep: bool
    predicted_s6: complex
    gap: float  # |s6 - predicted_s6|


def _conjugation_fixed(basis: OrthonormalBasis) -> None:
    """ValueError unless the recorded conjugation residual of the basis is within BASIS_TOL."""
    if not basis.conj_residual <= BASIS_TOL:
        raise ValueError(f"basis is not conjugation-fixed (defect {basis.conj_residual:.3e}); "
                         "the determinant test is only valid for conjugation-fixed bases")


def build_columns(basis: OrthonormalBasis, pc: PointConfig) -> GeneratorSpan:
    """Vectorize the five rank-one generators as the columns of a 6x5 matrix, with its SVD.

    The generators are k_t (x) k_t at the three circle points and
    k_lam (x) C k_lam at the two disc points; distinct points give a spanning
    set of the 5-dimensional space of truncated Toeplitz operators at order 3
    (Cima-Ross-Wogen).  Row order is (1,1),(2,2),(3,3),(1,2),(1,3),(2,3).  For
    a boundary point t the row (a,b) holds v_a(t)*conj(v_b(t)); for an
    interior point lam it holds conj(v_a(lam))*conj(v_b(lam)).  Both are
    symmetric in (a,b) exactly when the basis is conjugation-fixed, so a basis
    whose recorded conjugation residual exceeds BASIS_TOL is refused with
    ValueError, and columns whose fifth singular value is below SV_FLOOR (points
    too close to degenerate to span) with IndeterminateError.  That rank test
    takes the full SVD (u, sv, vh), which the returned span keeps for
    ``detthm_test`` to read its certificate from.
    """
    _conjugation_fixed(basis)
    vals = basis.coords.T @ tmw_rows(basis.theta.stack.zeros, np.array([pc.boundary + pc.interior]))[0]
    cols = np.concatenate([vals[:, :3], np.conj(vals[:, 3:])], axis=1)[_ROWS_A] * np.conj(vals[_ROWS_B])
    u, sv, vh = np.linalg.svd(cols)
    if sv[4] < SV_FLOOR:
        raise IndeterminateError(f"fifth singular value {sv[4]:.3e} below floor {SV_FLOOR:.1e}; "
                                 "choose better-separated points")
    return GeneratorSpan(cols, u, sv, vh)


# Off-diagonal rows count twice in the Frobenius norm of a symmetric matrix.
_FROBENIUS_WEIGHTS = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])


def _frobenius(v) -> float:
    """||S||_F of the symmetric S with 6-vector v: the 2-norm of v weighted by ``_FROBENIUS_WEIGHTS``."""
    x = v * _FROBENIUS_WEIGHTS
    return math.sqrt(np.vdot(x, x).real)


def detthm_test(
    s: Sym3, basis: OrthonormalBasis, pc: PointConfig, tol: float = REP_TOL
) -> DetThmResult:
    """Determinant membership test for the span of the five generators.

    Forms the 6x6 matrix [c1..c5, S] and declares the input representable when
    |det| <= tol * (product of all six column norms) and the certificate's residual
    <= tol * ||S||_F (ill-conditioned columns shrink |det| far below the norm product),
    so the verdict is invariant under rescaling of S and the zero matrix passes.
    The certificate (mu, residual) is read from the SVD of ``build_columns``: with
    u6 the sixth left singular vector (the span is the kernel of u6^H) and the Frobenius
    weights w, fit = S - (u6^H S) / ||u6/w||^2 * u6/w^2 = columns @ mu is the weighted
    projection of S, mu = V diag(1/sv) U5^H fit, and residual = |u6^H S| / ||u6/w||.
    Both run on ``s.normalized()``; one ``_ldexp`` scales all the numbers back.

    ValueError for a non-finite S or a bad ``tol``, checked before the span is built;
    IndeterminateError from ``build_columns`` when the span is degenerate.
    """
    tol = rep_tol(tol)
    unit, e = s.normalized()
    cols, u, sv, vh = build_columns(basis, pc)
    v = unit.vector
    square = np.concatenate([cols, v[:, None]], axis=1)
    det_value = complex(np.linalg.det(square))
    norm_product = float(np.multiply.reduce(np.sqrt(np.add.reduce((np.conj(square) * square).real, axis=0))))

    normal = u[:, 5] / _FROBENIUS_WEIGHTS  # the span's normal in the weighted norm
    along, norm_sq = np.vdot(u[:, 5], v), np.vdot(normal, normal).real
    residual = abs(along) / math.sqrt(norm_sq)
    is_rep = bool(abs(det_value) <= tol * norm_product and residual <= tol * _frobenius(v))
    fit = v - along / norm_sq * normal / _FROBENIUS_WEIGHTS
    mu = np.conj(vh.T) @ (np.conj(u[:, :5].T) @ fit / sv)
    back = _ldexp(np.concatenate([mu, [residual, det_value]]), e).tolist()
    return DetThmResult(is_rep, Certificate(tuple(back[:5]), back[5].real), back[6])


def relation_weight(cb: ClarkBasis) -> np.ndarray:
    """K with sum K o S = (eta3 - eta2) s6 - c4 s4 - c5 s5, zero exactly on the relation.

    c4 = conj(b3/b1) (eta1 - eta2) and c5 = conj(b2/b1) (eta3 - eta1), b_i = phase_i / ||k_{eta_i}||
    the scalars with cb_i = b_i k_{eta_i}.  The paper prints the ratios without the kernel
    norms, which rejects the shift matrix wherever the norms differ (``tests/oracles.py``
    keeps that form).  The s6 test, the counterexample sweep and the SO(3) search all
    read this K.  For a stack of bases (``ClarkRows``) K has shape (N, 3, 3).
    """
    eta1, eta2, eta3 = cb.etas.T
    b = (cb.phases / cb.norms).T
    k = np.zeros(np.shape(eta1) + (3, 3), dtype=complex)
    k[..., 1, 2] = eta3 - eta2
    k[..., 0, 1] = -(np.conj(b[2] / b[0]) * (eta1 - eta2))
    k[..., 0, 2] = -(np.conj(b[1] / b[0]) * (eta3 - eta1))
    return k


def _s6_prediction(unit: Sym3, k, tol: float):
    """(predicted s6, gap, gap <= tol * ||S||_F) of a unit-size S, per relation weight K."""
    c4, c5 = -k[..., 0, 1], -k[..., 0, 2]
    predicted = (c4 * unit.s4 + c5 * unit.s5) / k[..., 1, 2]
    gap = np.abs(unit.s6 - predicted)
    return predicted, gap, gap <= tol * _frobenius(unit.vector)


def clark_s6_test(s: Sym3, cb: ClarkBasis, tol: float = REP_TOL) -> S6Result:
    """Single-relation representability test for a modified Clark basis.

    Declares the input representable when the gap |s6 - predicted| is at
    most tol * ||S||_F.  The threshold scales with S, so the verdict is
    invariant under rescaling of S, and the zero matrix passes (both sides
    vanish), as it does in ``detthm_test``.  The prediction solves
    sum K o S = 0 for s6 (see ``relation_weight``) on ``s.normalized()``.
    """
    tol = rep_tol(tol)
    unit, e = s.normalized()
    predicted, gap, is_rep = _s6_prediction(unit, relation_weight(cb), tol)
    predicted, gap = _ldexp(np.array([predicted, gap]), e).tolist()
    return S6Result(bool(is_rep), predicted, gap.real)


def counterexample_family(family: int, a: float, b: float, c: float) -> Sym3:
    """One of three real normal families that never pass the Clark relation.

    Family 1 puts the unit in the (1,3) slot, family 2 in (1,2), family 3 in
    (2,3); the diagonal is (a, b, c) in every case.  ValueError unless
    ``family`` is an integer 1, 2 or 3 and a, b, c are finite real numbers
    (bools refused).
    """
    if integer(family, 1, "family") > 3:
        raise ValueError("family must be 1, 2 or 3")
    a, b, c = (real(x, "family diagonal entry") for x in (a, b, c))
    return Sym3(a, b, c, float(family == 2), float(family == 1), float(family == 3))


def match_counterexample_family(s: Sym3):
    """(family, a, b, c) with s equal to ``counterexample_family(family, a, b, c)``.

    Entries match within FAMILY_TOL; any other matrix raises ValueError.
    """
    a, b, c = s.vector.real[:3]
    for family in (1, 2, 3):
        if np.abs(counterexample_family(family, a, b, c).vector - s.vector).max() < FAMILY_TOL:
            return family, a, b, c
    raise ValueError("not a counterexample family: need real entries, off-diagonal 1, 0, 0")


class CounterexampleReport(NamedTuple):
    normal_defect: float  # ||[M, M*]||_F of the matrix scaled to unit size
    rejections: int  # of the TRIALS random Clark bases, by the s6 relation at REP_TOL
    min_gap: float  # smallest S6Result.gap / ||S||_F seen over all trials


def counterexample_report(s: Sym3, seed: int = 0) -> CounterexampleReport:
    """Test s against ``TRIALS`` (100) random Clark bases.

    Records the normality defect of the normalized matrix (zero for a family
    matrix, which is real symmetric), then draws the random modified Clark bases
    (random order-3 product, random interior point and target) as one batch
    from ``random.Random(seed)`` (``clark.clark_draws`` on ``stdlib_uniforms``: ten
    consecutive uniforms per attempt, and no attempt fails) and
    runs the s6 relation test against each, on the stacked bases.  A family
    matrix is expected to fail every time; the report records how often s did and
    the smallest relative gap gap / ||S||_F, the quantity the test compares
    with its tolerance, so a trial is rejected exactly when it exceeds
    REP_TOL.  `seed` must be an integer >= 0 and s finite (ValueError, before any
    basis is drawn).

    Family 3 has s4 = s5 = 0, so the predicted s6 is 0 and the gap is |s6| on
    every basis: with a zero diagonal (the f1-corollary fixture) the relative
    gap is 1/sqrt(2) for each trial, a structural fact that the sweep confirms.
    """
    seed = integer(seed, 0, "seed")
    unit, _ = s.normalized()
    m = unit.array
    normal_defect = float(np.linalg.norm(m @ np.conj(m.T) - np.conj(m.T) @ m))
    bases = clark_draws(stdlib_uniforms(seed), TRIALS)
    _, gaps, is_rep = _s6_prediction(unit, relation_weight(bases), REP_TOL)
    return CounterexampleReport(normal_defect, int(np.count_nonzero(~is_rep)),
                                float((gaps / _frobenius(unit.vector)).min()))
