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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blaschke import level_set
from .clark import ClarkBasis, half_arg_root
from .config import BASIS_TOL, DISTINCT_TOL, REP_TOL, SV_FLOOR, Indeterminate
from .modelspace import OrthonormalBasis
from .sampling import random_clark_basis

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

    @classmethod
    def from_array(cls, m, tol: float = 1e-10) -> "Sym3":
        m = np.asarray(m, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > tol * scale:
            raise ValueError("matrix is not complex symmetric")
        sym = (m + m.T) / 2.0
        return cls(sym[0, 0], sym[1, 1], sym[2, 2], sym[0, 1], sym[0, 2], sym[1, 2])


@dataclass(frozen=True)
class PointConfig:
    """Three distinct boundary points and two distinct interior points."""

    boundary: tuple
    interior: tuple

    def __post_init__(self):
        boundary = tuple(complex(t) for t in self.boundary)
        interior = tuple(complex(lam) for lam in self.interior)
        if len(boundary) != 3 or len(interior) != 2:
            raise ValueError("need exactly 3 boundary and 2 interior points")
        for t in boundary:
            if abs(abs(t) - 1.0) > 1e-10:
                raise ValueError(f"boundary point {t} is not unimodular")
        for lam in interior:
            if abs(lam) >= 1.0:
                raise ValueError(f"interior point {lam} is not in the open disc")
        for group in (boundary, interior):
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if abs(group[i] - group[j]) <= DISTINCT_TOL:
                        raise ValueError(
                            f"points must be pairwise distinct (gap > {DISTINCT_TOL:g})"
                        )
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


class DetThmResult(NamedTuple):
    is_rep: bool
    certificate: Certificate
    det_value: complex


class S6Result(NamedTuple):
    is_rep: bool
    predicted_s6: complex


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
    if basis.conj_residual > BASIS_TOL:
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
    between the reconstruction and the input.

    Raises IndeterminateError when the fifth singular value of the column
    matrix drops below SV_FLOOR.
    """
    cols = _spanning_columns(basis, pc)
    stilde = s.vector
    square = np.column_stack([cols, stilde])
    det_value = complex(np.linalg.det(square))
    norm_product = float(np.prod(np.linalg.norm(square, axis=0)))
    is_rep = abs(det_value) <= tol * norm_product

    w = _FROBENIUS_WEIGHTS
    mu, *_ = np.linalg.lstsq(cols * w[:, None], stilde * w, rcond=None)
    recon_vec = cols @ mu
    reconstructed = Sym3(*recon_vec)
    residual = float(np.linalg.norm(reconstructed.array - s.array))
    cert = Certificate(tuple(mu), residual, reconstructed)
    return DetThmResult(is_rep, cert, det_value)


def relation_coefficients(cb: ClarkBasis, variant: str = "general"):
    """Multipliers (c4, c5) of the Clark-basis relation.

    The relation predicts s6 = (c4*s4 + c5*s5) / (eta3 - eta2).  The "paper"
    variant uses the unimodular half-argument root ratios of conj(eta_i); the
    "general" variant uses the conjugated ratios of the actual basis
    coefficients b_i = phase_i / ||k_{eta_i}||, which differ from the former by
    real kernel-norm ratios whenever the three boundary kernels have unequal
    norms.
    """
    eta1, eta2, eta3 = cb.etas
    if variant == "paper":
        r4 = half_arg_root(np.conj(eta1)) / half_arg_root(np.conj(eta3))
        r5 = half_arg_root(np.conj(eta1)) / half_arg_root(np.conj(eta2))
    elif variant == "general":
        b = cb.coefficients
        r4 = np.conj(b[2] / b[0])
        r5 = np.conj(b[1] / b[0])
    else:
        raise ValueError(f"unknown variant {variant!r} (expected 'paper' or 'general')")
    return r4 * (eta1 - eta2), r5 * (eta3 - eta1)


def clark_s6_test(
    s: Sym3, cb: ClarkBasis, variant: str = "general", tol: float = REP_TOL
) -> S6Result:
    """Single-relation representability test for a modified Clark basis.

    Declares the input representable when |s6 - predicted| <= tol * ||S||_F.
    The threshold scales with S, so the verdict is invariant under rescaling
    of S, and the zero matrix passes (both sides vanish), as it does in
    ``detthm_test``.
    """
    c4, c5 = relation_coefficients(cb, variant)
    eta1, eta2, eta3 = cb.etas
    predicted = (c4 * s.s4 + c5 * s.s5) / (eta3 - eta2)
    is_rep = abs(s.s6 - predicted) <= tol * np.linalg.norm(s.array)
    return S6Result(bool(is_rep), complex(predicted))


def counterexample_family(family: int, a: float, b: float, c: float) -> Sym3:
    """One of three real normal families that never pass the Clark relation.

    Family 1 puts the unit in the (1,3) slot, family 2 in (1,2), family 3 in
    (2,3); the diagonal is (a, b, c) in every case.
    """
    a, b, c = float(a), float(b), float(c)
    if family == 1:
        return Sym3(a, b, c, 0.0, 1.0, 0.0)
    if family == 2:
        return Sym3(a, b, c, 1.0, 0.0, 0.0)
    if family == 3:
        return Sym3(a, b, c, 0.0, 0.0, 1.0)
    raise ValueError("family must be 1, 2 or 3")


def match_counterexample_family(s: Sym3):
    """(family, a, b, c) with s equal to ``counterexample_family(family, a, b, c)``.

    Entries match within 1e-12; any other matrix raises ValueError.
    """
    a, b, c = s.vector.real[:3]
    for family in (1, 2, 3):
        if np.abs(counterexample_family(family, a, b, c).vector - s.vector).max() < 1e-12:
            return family, a, b, c
    raise ValueError("not a counterexample family: need real entries, off-diagonal 1, 0, 0")


@dataclass(frozen=True)
class CounterexampleReport:
    family: int
    a: float
    b: float
    c: float
    normal_defect: float
    trials: int
    seed: int
    rejections: int
    all_rejected: bool
    min_gap: float  # smallest |s6 - predicted_s6| / ||S||_F seen over all trials


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

    Verifies the matrix is normal, then draws `trials` random modified Clark
    bases (random order-3 product, random interior point and target) and runs
    the s6 relation test against each.  The matrix is expected to fail every
    time; the report records how often it did and the smallest gap
    |s6 - predicted_s6| / ||S||_F, the quantity the test compares with its
    tolerance, so a trial is rejected exactly when its gap exceeds REP_TOL.
    """
    s = counterexample_family(family, a, b, c)
    m = s.array
    normal_defect = float(
        np.linalg.norm(m @ np.conj(m.T) - np.conj(m.T) @ m)
    )
    if normal_defect >= 1e-12:
        raise RuntimeError(f"family matrix unexpectedly non-normal ({normal_defect:.3e})")
    rng = np.random.default_rng(seed)
    rejections = 0
    min_gap = np.inf
    for _ in range(trials):
        cb = random_clark_basis(rng)
        result = clark_s6_test(s, cb, variant=variant)
        gap = abs(s.s6 - result.predicted_s6) / np.linalg.norm(m)
        min_gap = min(min_gap, gap)
        if not result.is_rep:
            rejections += 1
    return CounterexampleReport(
        family=family,
        a=a,
        b=b,
        c=c,
        normal_defect=normal_defect,
        trials=trials,
        seed=seed,
        rejections=rejections,
        all_rejected=rejections == trials,
        min_gap=float(min_gap),
    )
