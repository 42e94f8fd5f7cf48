"""Decision procedures for representability of 3x3 complex symmetric matrices.

Two independent tests decide whether a complex symmetric matrix is the matrix
of a truncated Toeplitz operator with respect to a fixed conjugation-fixed
basis:

* a determinant test that vectorizes five rank-one generator matrices into
  columns and checks whether the candidate matrix lies in their span, and
* a single closed-form relation that predicts the (2,3) entry from the (1,2)
  and (1,3) entries when the basis is a modified Clark basis.

``build_columns`` is the library's one implementation of the generator span:
the determinant test and ``tto.random_tto`` both draw on it, through one rank
test that refuses a near-degenerate point configuration as indeterminate.
``PointConfig`` is the one place where generator points are validated.

The module also packages the family of normal matrices that always fail the
Clark-basis relation while still being unitarily equivalent to such an
operator.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blaschke import level_set
from .clark import ClarkBasis, half_arg_root
from .config import (BASIS_TOL, DISTINCT_TOL, FAMILY_TOL, REP_TOL, SV_FLOOR, Indeterminate,
                     finite, integer, on_circle, open_disc, rep_tol)
from .modelspace import OrthonormalBasis
from .sampling import clark_draws

__all__ = [
    "IndeterminateError",
    "Sym3",
    "PointConfig",
    "Certificate",
    "DetThmResult",
    "S6Result",
    "CounterexampleReport",
    "build_columns",
    "detthm_test",
    "relation_coefficients",
    "relation_weight",
    "clark_s6_test",
    "counterexample_family",
    "match_counterexample_family",
    "counterexample_report",
    "default_points",
]

# Row order used to flatten a symmetric 3x3 matrix into a 6-vector.
ROW_INDEX = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


class IndeterminateError(Indeterminate):
    """The generator columns are too ill-conditioned to decide either way."""


def _times_pow2(x, e: int):
    """x * 2**e for a real or complex x and any float exponent e, part by part.

    Exact, signed zeros included, unless a part over- or underflows.  Verdicts
    are decided before a value is scaled back, and Python float arithmetic
    overflows to inf without a warning, for the report to refuse as non-finite.
    """
    if isinstance(x, complex):
        return complex(_times_pow2(x.real, e), _times_pow2(x.imag, e))
    return float(x) * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)


@dataclass(frozen=True)
class Sym3:
    """Complex symmetric 3x3 matrix stored by its six independent entries.

    Layout: diagonal (s1, s2, s3); s4 = entry (1,2); s5 = (1,3); s6 = (2,3).
    """

    s1: complex
    s2: complex
    s3: complex
    s4: complex
    s5: complex
    s6: complex

    def __post_init__(self):
        for name in ("s1", "s2", "s3", "s4", "s5", "s6"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def array(self) -> np.ndarray:
        return np.array(
            [
                [self.s1, self.s4, self.s5],
                [self.s4, self.s2, self.s6],
                [self.s5, self.s6, self.s3],
            ]
        )

    @property
    def vector(self) -> np.ndarray:
        """The six entries stacked in the row order used by build_columns."""
        return np.array([self.s1, self.s2, self.s3, self.s4, self.s5, self.s6])

    def normalized(self):
        """(S * 2**-e, e), e the binary exponent of the largest real or imaginary part.

        Every part of the result is below 1 in modulus (a part, unlike the
        modulus of an entry, never overflows).  The decision procedures run on
        this matrix and scale their numbers back by 2**e, which is exact, so
        no finite S over- or underflows on the way; a non-finite S is a ValueError.
        """
        e = math.frexp(finite(float(np.abs(self.vector.view(float)).max()), "largest part of S"))[1]
        return self.scaled(-e), e

    def scaled(self, e: int) -> "Sym3":
        """S * 2**e, exact unless an entry over- or underflows."""
        return Sym3(*(_times_pow2(x, e) for x in self.vector.tolist()))

    @classmethod
    def from_array(cls, m, tol: float = 1e-10) -> "Sym3":
        """m/2 + m^T/2 of a finite m, refused unless |m/2 - m^T/2| <= tol * (largest part of m/2).

        A part is a real or imaginary part.  Halving first is exact, so no
        finite m overflows and normal inputs give the bits of (m + m^T) / 2.
        """
        half = finite(np.array(m, dtype=complex), "matrix") / 2.0
        if half.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        if not np.abs(half - half.T).max() <= tol * np.abs(half.view(float)).max():
            raise ValueError("matrix is not complex symmetric")
        sym = half + half.T
        return cls(sym[0, 0], sym[1, 1], sym[2, 2], sym[0, 1], sym[0, 2], sym[1, 2])


@dataclass(frozen=True)
class PointConfig:
    """Three distinct boundary points and two distinct interior points."""

    boundary: tuple
    interior: tuple

    def __post_init__(self):
        boundary = tuple(on_circle(complex(t), "boundary point") for t in self.boundary)
        interior = tuple(open_disc(complex(lam), "interior point") for lam in self.interior)
        if len(boundary) != 3 or len(interior) != 2:
            raise ValueError("need exactly 3 boundary and 2 interior points")
        for group in (boundary, interior):
            gaps = [abs(p - q) for i, p in enumerate(group) for q in group[i + 1 :]]
            if not min(gaps) > DISTINCT_TOL:
                raise ValueError(f"points must be pairwise distinct (gap > {DISTINCT_TOL:g})")
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "interior", interior)


def default_points(b) -> PointConfig:
    """Level set of 1 on the boundary plus two fixed interior points."""
    return PointConfig(tuple(level_set(b, 1.0)), (0.0, 0.41 + 0.13j))


@dataclass(frozen=True)
class Certificate:
    """Least-squares witness: coefficients over the five generators."""

    mu: tuple
    residual: float
    reconstructed: Sym3

    def scaled(self, e: int) -> "Certificate":
        """The certificate of S * 2**e, given this one of S."""
        mu = tuple(_times_pow2(m, e) for m in self.mu)
        return Certificate(mu, _times_pow2(self.residual, e), self.reconstructed.scaled(e))


class DetThmResult(NamedTuple):
    is_rep: bool
    certificate: Certificate
    det_value: complex


class S6Result(NamedTuple):
    is_rep: bool
    predicted_s6: complex
    gap: float  # |s6 - predicted_s6|


def build_columns(basis: OrthonormalBasis, pc: PointConfig) -> np.ndarray:
    """Vectorize the five rank-one generators as columns of a 6x5 matrix.

    The generators are k_t (x) k_t at the three circle points and
    k_lam (x) C k_lam at the two disc points; distinct points give a spanning
    set of the 5-dimensional space of truncated Toeplitz operators at order 3
    (Cima-Ross-Wogen).  Row order is (1,1),(2,2),(3,3),(1,2),(1,3),(2,3).  For
    a boundary point t the row (a,b) holds v_a(t)*conj(v_b(t)); for an
    interior point lam it holds conj(v_a(lam)*v_b(lam)).  Both expressions
    are symmetric in (a,b) exactly when the basis is conjugation-fixed, so a
    basis whose recorded conjugation residual exceeds BASIS_TOL is refused
    with ValueError.
    """
    if not basis.conj_residual <= BASIS_TOL:
        raise ValueError(
            f"basis is not conjugation-fixed (defect {basis.conj_residual:.3e}); "
            "the determinant test is only valid for conjugation-fixed bases"
        )
    vals = basis(np.array(pc.boundary + pc.interior))  # (3 elements, 5 points)
    rows_a, rows_b = np.array(ROW_INDEX).T
    va, vb = vals[rows_a], vals[rows_b]
    return np.hstack([va[:, :3] * np.conj(vb[:, :3]), np.conj(va[:, 3:] * vb[:, 3:])])


# Off-diagonal rows count twice in the Frobenius norm of a symmetric matrix.
_FROBENIUS_WEIGHTS = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])


def _spanning_columns(basis: OrthonormalBasis, pc: PointConfig) -> np.ndarray:
    """build_columns plus the one rank test of the generator span.

    Raises IndeterminateError when the fifth singular value is below
    SV_FLOOR: the points are then too close to degenerate for the span to
    mean anything.
    """
    cols = build_columns(basis, pc)
    sv = np.linalg.svd(cols, compute_uv=False)
    if sv[4] < SV_FLOOR:
        raise IndeterminateError(
            f"fifth singular value {sv[4]:.3e} below floor {SV_FLOOR:.1e}; "
            "choose better-separated points"
        )
    return cols


def detthm_test(
    s: Sym3, basis: OrthonormalBasis, pc: PointConfig, tol: float = REP_TOL
) -> DetThmResult:
    """Determinant membership test for the span of the five generators.

    Forms the 6x6 matrix [c1..c5, S] and declares the input representable when
    |det| <= tol * (product of all six column norms), which makes the verdict
    invariant under rescaling of S.  The zero matrix therefore passes (both
    sides vanish).  Independently solves the least-squares problem for a
    coefficient certificate; the reported residual is the Frobenius distance
    between the reconstruction and the input.  Both run on ``s.normalized()``.

    Raises IndeterminateError when the fifth singular value of the column
    matrix drops below SV_FLOOR; ValueError for a non-finite S or a bad ``tol``.
    """
    tol = rep_tol(tol)
    cols = _spanning_columns(basis, pc)
    unit, e = s.normalized()
    square = np.column_stack([cols, unit.vector])
    det_value = complex(np.linalg.det(square))
    norm_product = float(np.prod(np.linalg.norm(square, axis=0)))
    is_rep = abs(det_value) <= tol * norm_product

    w = _FROBENIUS_WEIGHTS
    mu, *_ = np.linalg.lstsq(cols * w[:, None], unit.vector * w, rcond=None)
    reconstructed = Sym3(*(cols @ mu))
    residual = float(np.linalg.norm(reconstructed.array - unit.array))
    cert = Certificate(tuple(mu), residual, reconstructed).scaled(e)
    return DetThmResult(is_rep, cert, _times_pow2(det_value, e))


def relation_coefficients(cb: ClarkBasis, variant: str = "general"):
    """Multipliers (c4, c5) of the Clark-basis relation.

    The relation predicts s6 = (c4*s4 + c5*s5) / (eta3 - eta2).  The "paper"
    variant uses the unimodular half-argument root ratios of conj(eta_i); the
    "general" variant uses the conjugated ratios of the actual basis
    coefficients b_i = phase_i / ||k_{eta_i}||, which differ from the former by
    real kernel-norm ratios whenever the three boundary kernels have unequal
    norms.  ``cb`` may also be a stack of bases (``ClarkRows``); the
    multipliers then have shape (N,).
    """
    eta1, eta2, eta3 = cb.etas.T
    if variant == "paper":
        r4 = half_arg_root(np.conj(eta1)) / half_arg_root(np.conj(eta3))
        r5 = half_arg_root(np.conj(eta1)) / half_arg_root(np.conj(eta2))
    elif variant == "general":
        b = cb.coefficients.T
        r4 = np.conj(b[2] / b[0])
        r5 = np.conj(b[1] / b[0])
    else:
        raise ValueError(f"unknown variant {variant!r} (expected 'paper' or 'general')")
    return r4 * (eta1 - eta2), r5 * (eta3 - eta1)


def relation_weight(cb: ClarkBasis, variant: str = "general") -> np.ndarray:
    """K with sum K o S = (eta3 - eta2) s6 - c4 s4 - c5 s5, zero exactly on the relation.

    ``clark_s6_test``, the counterexample sweep and the SO(3) search all
    evaluate the relation in this one form.  For a stack of bases K has
    shape (N, 3, 3).
    """
    c4, c5 = relation_coefficients(cb, variant)
    k = np.zeros(np.shape(c4) + (3, 3), dtype=complex)
    k[..., 1, 2] = cb.etas[..., 2] - cb.etas[..., 1]
    k[..., 0, 1] = -c4
    k[..., 0, 2] = -c5
    return k


def _s6_prediction(unit: Sym3, k, tol: float):
    """(predicted s6, gap, gap <= tol * ||S||_F) of a unit-size S, per relation weight K."""
    c4, c5 = -k[..., 0, 1], -k[..., 0, 2]
    predicted = (c4 * unit.s4 + c5 * unit.s5) / k[..., 1, 2]
    gap = np.abs(unit.s6 - predicted)
    return predicted, gap, gap <= tol * np.linalg.norm(unit.array)


def clark_s6_test(
    s: Sym3, cb: ClarkBasis, variant: str = "general", tol: float = REP_TOL
) -> S6Result:
    """Single-relation representability test for a modified Clark basis.

    Declares the input representable when the gap |s6 - predicted| is at
    most tol * ||S||_F.  The threshold scales with S, so the verdict is
    invariant under rescaling of S, and the zero matrix passes (both sides
    vanish), as it does in ``detthm_test``.  The prediction solves
    sum K o S = 0 for s6 (see ``relation_weight``) on ``s.normalized()``.
    """
    tol = rep_tol(tol)
    unit, e = s.normalized()
    predicted, gap, is_rep = _s6_prediction(unit, relation_weight(cb, variant), tol)
    return S6Result(bool(is_rep), _times_pow2(complex(predicted), e), _times_pow2(float(gap), e))


def counterexample_family(family: int, a: float, b: float, c: float) -> Sym3:
    """One of three real normal families that never pass the Clark relation.

    Family 1 puts the unit in the (1,3) slot, family 2 in (1,2), family 3 in
    (2,3); the diagonal is (a, b, c) in every case, and must be finite.
    """
    a, b, c = (finite(float(x), "family diagonal entry") for x in (a, b, c))
    if family == 1:
        return Sym3(a, b, c, 0.0, 1.0, 0.0)
    if family == 2:
        return Sym3(a, b, c, 1.0, 0.0, 0.0)
    if family == 3:
        return Sym3(a, b, c, 0.0, 0.0, 1.0)
    raise ValueError("family must be 1, 2 or 3")


def match_counterexample_family(s: Sym3):
    """(family, a, b, c) with s equal to ``counterexample_family(family, a, b, c)``.

    Entries match within FAMILY_TOL; any other matrix raises ValueError.
    """
    a, b, c = s.vector.real[:3]
    for family in (1, 2, 3):
        if np.abs(counterexample_family(family, a, b, c).vector - s.vector).max() < FAMILY_TOL:
            return family, a, b, c
    raise ValueError("not a counterexample family: need real entries, off-diagonal 1, 0, 0")


@dataclass(frozen=True)
class CounterexampleReport:
    family: int
    a: float
    b: float
    c: float
    normal_defect: float  # ||[M, M*]||_F of the matrix scaled to unit size
    trials: int
    seed: int
    rejections: int
    all_rejected: bool
    min_gap: float  # smallest S6Result.gap / ||S||_F seen over all trials


def counterexample_report(
    family: int,
    a: float,
    b: float,
    c: float,
    trials: int = 100,
    seed: int = 0,
    variant: str = "general",
) -> CounterexampleReport:
    """Test one counterexample matrix against many random Clark bases.

    Verifies the normalized matrix is normal, then draws `trials` random
    modified Clark bases (random order-3 product, random interior point and
    target) as one batch (``sampling.clark_draws``: ten uniforms per attempt,
    failed attempts skipped, eight in a row raise) and runs the s6 relation
    test against each, on the stacked bases.  The matrix is expected to fail
    every time; the report records how often it did and the smallest relative
    gap gap / ||S||_F, the quantity the test compares with its tolerance, so a
    trial is rejected exactly when it exceeds REP_TOL.  `trials` must be a
    positive integer (ValueError).

    Family 3 has s4 = s5 = 0, so the predicted s6 is 0 and the gap is |s6| on
    every basis: with a zero diagonal (the f1-corollary fixture) the relative
    gap is 1/sqrt(2) for each trial, a structural fact that the sweep confirms.
    """
    trials = integer(trials, 1, "trials")
    s, _ = counterexample_family(family, a, b, c).normalized()
    m = s.array
    normal_defect = float(np.linalg.norm(m @ np.conj(m.T) - np.conj(m.T) @ m))
    if normal_defect >= 1e-12:
        raise RuntimeError(f"family matrix unexpectedly non-normal ({normal_defect:.3e})")
    bases = clark_draws(np.random.default_rng(seed), trials)
    _, gaps, is_rep = _s6_prediction(s, relation_weight(bases, variant), REP_TOL)
    rejections = int(np.count_nonzero(~is_rep))
    return CounterexampleReport(
        family=family, a=a, b=b, c=c, normal_defect=normal_defect, trials=trials, seed=seed,
        rejections=rejections, all_rejected=rejections == trials,
        min_gap=float((gaps / np.linalg.norm(m)).min()),
    )
