import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_space_lab import repcheck, sampling
from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.clark import ClarkParams, modified_clark_basis
from model_space_lab.config import REP_TOL
from model_space_lab.modelspace import KThetaElement
from model_space_lab.repcheck import (
    IndeterminateError,
    PointConfig,
    ROW_INDEX,
    TRIALS,
    Sym3,
    build_columns,
    clark_s6_test,
    counterexample_family,
    counterexample_report,
    default_points,
    detthm_test,
    match_counterexample_family,
    relation_weight,
)
from model_space_lab.sampling import random_clark_basis
from model_space_lab.so3solver import OrthMatrix3, SolverConfig, creal_basis_from_orthogonal
from model_space_lab.tto import Symbol, random_tto, tto_matrix_from_symbol

from conftest import oracle_inner, oracle_kernel_values
from oracles import (basis_elements, basis_from_elements, paper_prediction, paper_relation_coefficients,
                     random_special_orthogonal, random_unimodular, reference_onb, rotate_basis)


@pytest.fixture(scope="module")
def f1_clark(f1):
    return modified_clark_basis(f1, ClarkParams(0.0, 1.0))


@pytest.fixture(scope="module")
def f2_clark(f2):
    return modified_clark_basis(f2, ClarkParams(0.0, 1.0))


def random_sym3(rng, scale=1.0):
    vals = scale * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    return Sym3(*vals)


# -- Sym3 / PointConfig ------------------------------------------------------


def test_sym3_array_round_trip():
    s = Sym3(1, 2, 3, 4j, 5, 6 - 1j)
    again = Sym3.from_array(s.array)
    assert s == again
    np.testing.assert_array_equal(
        s.vector, np.array([1, 2, 3, 4j, 5, 6 - 1j], dtype=complex)
    )


def test_sym3_nested_sequences_and_replace():
    # A nested list of numbers converts like the array of it, and _replace
    # checks the entries it is given as Sym3(...) does.
    s = Sym3(1, 2, 3, 4j, 5, 6 - 1j)
    assert Sym3.from_array(s.array.tolist()) == s
    assert Sym3.from_array([[1, 0, 0], [0, 1, 0], [0, 0, np.int64(2)]]) == Sym3(1, 1, 2, 0, 0, 0)
    assert s._replace(s1=7, s6=np.float64(0.5)) == Sym3(7, 2, 3, 4j, 5, 0.5)
    assert type(s._replace(s1=7).s1) is complex


def test_sym3_rejects_asymmetric():
    m = np.array([[1, 2, 3], [2.5, 1, 0], [3, 0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        Sym3.from_array(m)


def test_sym3_symmetry_check_is_relative():
    # The bound is tol times the largest part: a lone tiny off-diagonal entry
    # is as asymmetric as a lone large one, at every scale.
    for lone in (1e-11, 10.0):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = lone
        with pytest.raises(ValueError):
            Sym3.from_array(m)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sym, skew = a + a.T, a - a.T
    for scale in (1e-300, 1.0, 1e300):
        np.testing.assert_allclose(
            Sym3.from_array(scale * (sym + 1e-12 * skew)).vector / scale,
            Sym3.from_array(sym).vector,
            rtol=1e-11,
        )
        with pytest.raises(ValueError):
            Sym3.from_array(scale * (sym + 1e-8 * skew))


def test_sym3_from_array_near_float_maximum():
    # Parts above half the float maximum: halving before the difference and
    # the sum keeps both finite.
    huge = 1.7e308 + 1.7e308j
    assert Sym3.from_array(np.full((3, 3), huge)) == Sym3(*[huge] * 6)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1], m[1, 0] = 1.7e308, -1.7e308
    with pytest.raises(ValueError):
        Sym3.from_array(m)


def test_point_config_validation():
    good = PointConfig((1.0, 1j, -1.0), (0.0, 0.3))
    assert len(good.boundary) == 3
    with pytest.raises(ValueError):
        PointConfig((0.5, 1j, -1.0), (0.0, 0.3))  # not unimodular
    with pytest.raises(ValueError):
        PointConfig((1.0, 1j, -1.0), (0.0, 1.2))  # outside disc
    with pytest.raises(ValueError):
        PointConfig((1.0, 1.0, -1.0), (0.0, 0.3))  # coincident boundary
    with pytest.raises(ValueError):
        PointConfig((1.0, 1j, -1.0), (0.3, 0.3 + 1e-9))  # sub-gap interior


def test_default_points_f1(f1):
    pc = default_points(f1)
    np.testing.assert_allclose(
        sorted(np.angle(pc.boundary) % (2 * np.pi)),
        [0.0, 2 * np.pi / 3, 4 * np.pi / 3],
        atol=1e-12,
    )
    assert pc.interior[0] == 0.0


# -- build_columns -----------------------------------------------------------


def test_columns_clark_basis_at_level_points(f1, f1_clark):
    # With boundary points at the basis' own level set, each basis element
    # vanishes at the other two points, so boundary column i is 3*e_i.
    pc = PointConfig(tuple(f1_clark.etas), (0.0, 0.37 + 0.2j))
    cols = build_columns(f1_clark.basis, pc).columns
    for i in range(3):
        expected = np.zeros(6, dtype=complex)
        expected[i] = 3.0
        np.testing.assert_allclose(cols[:, i], expected, atol=1e-10)


def test_columns_match_quadrature_oracle(f2_clark):
    # Interior column (a,b) is the (a,b) entry <v_b, C k_lam> <k_lam, v_a> of
    # k_lam (x) C k_lam, with both pairings done by circle quadrature on the
    # defining formulas (C f = B conj(z f) on the circle).
    rng = np.random.default_rng(23)
    for cb in (f2_clark, random_clark_basis(rng)):
        b, v = cb.theta, basis_elements(cb.basis)
        pc = default_points(b)
        cols = build_columns(cb.basis, pc).columns
        for k, lam in enumerate(pc.interior):
            kernel = lambda z, lam=lam: oracle_kernel_values(b, lam, z)
            conj_kernel = lambda z, kernel=kernel: b(z) * np.conj(z * kernel(z))
            oracle = [
                oracle_inner(v[bb], conj_kernel) * oracle_inner(kernel, v[a])
                for a, bb in ROW_INDEX
            ]
            np.testing.assert_allclose(cols[:, 3 + k], oracle, atol=1e-10)


def test_columns_handmade_creal_basis(f1):
    s = 1 / np.sqrt(2)
    elems = (
        KThetaElement(f1, (s, 0.0, s)),
        KThetaElement(f1, (0.0, 1.0, 0.0)),
        KThetaElement(f1, (1j * s, 0.0, -1j * s)),
    )
    basis = basis_from_elements(elems)
    pc = default_points(f1)
    cols = build_columns(basis, pc).columns
    lam = pc.interior[1]
    vals = np.array([e(lam) for e in basis_elements(basis)])
    expected = np.array([np.conj(vals[a] * vals[b]) for a, b in ROW_INDEX])
    np.testing.assert_allclose(cols[:, 4], expected, atol=1e-12)


def test_columns_interior_zero_entries(f1, f1_clark):
    pc = default_points(f1)
    cols = build_columns(f1_clark.basis, pc).columns
    vals = np.array([e(0.0) for e in basis_elements(f1_clark.basis)])
    expected = np.array([np.conj(vals[a] * vals[b]) for a, b in ROW_INDEX])
    np.testing.assert_allclose(cols[:, 3], expected, atol=1e-12)


def test_columns_reject_non_creal_basis(f1):
    with pytest.raises(ValueError, match="conjugation-fixed"):
        build_columns(reference_onb(f1), default_points(f1))


# -- determinant test --------------------------------------------------------


def test_detthm_identity_is_representable(f1, f1_clark):
    s = Sym3(1, 1, 1, 0, 0, 0)
    pc = default_points(f1)
    span = build_columns(f1_clark.basis, pc)
    result = detthm_test(s, f1_clark.basis, pc)
    assert result.is_rep
    assert result.certificate.residual < 1e-8
    np.testing.assert_allclose(
        Sym3._make((span.columns @ result.certificate.mu).tolist()).array, np.eye(3), atol=1e-8
    )


def test_detthm_shift_matrix(f1, f1_clark):
    m = tto_matrix_from_symbol(f1, Symbol.shift(), f1_clark.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    result = detthm_test(s, f1_clark.basis, default_points(f1))
    assert result.is_rep
    assert abs(result.det_value) < 1e-10


def test_detthm_rejects_family_three(f1, f1_clark):
    s = counterexample_family(3, 0, 0, 0)
    result = detthm_test(s, f1_clark.basis, default_points(f1))
    assert not result.is_rep
    assert result.certificate.residual > 1e-3


def test_detthm_zero_matrix_passes(f1, f1_clark):
    # Zero operator is a TTO; determinant and threshold both vanish.
    result = detthm_test(Sym3(0, 0, 0, 0, 0, 0), f1_clark.basis, default_points(f1))
    assert result.is_rep
    assert result.certificate.residual < 1e-12


def test_detthm_indeterminate_on_clustered_points(f1, f1_clark):
    eps = 1e-5
    pc = PointConfig(
        boundary=tuple(np.exp(1j * (0.3 + eps * k)) for k in range(3)),
        interior=(0.2 + 0.1j, 0.2 + 0.1j + eps),
    )
    with pytest.raises(IndeterminateError):
        detthm_test(Sym3(1, 1, 1, 0, 0, 0), f1_clark.basis, pc)


def test_detthm_scale_invariance(f1, f1_clark):
    rng = np.random.default_rng(3)
    s = random_sym3(rng)
    pc = default_points(f1)
    r1 = detthm_test(s, f1_clark.basis, pc)
    scaled = Sym3(*(1e6 * v for v in s.vector))
    r2 = detthm_test(scaled, f1_clark.basis, pc)
    assert r1.is_rep == r2.is_rep


# -- Clark relation ----------------------------------------------------------


def test_f1_relation_reduces_to_difference(f1_clark):
    # At the cube roots of unity the relation collapses to s6 = s4 - s5.
    eta1, eta2, eta3 = f1_clark.etas
    for c4, c5 in (paper_relation_coefficients(f1_clark), -relation_weight(f1_clark)[0, 1:]):
        assert c4 / (eta3 - eta2) == pytest.approx(1.0, abs=1e-12)
        assert c5 / (eta3 - eta2) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(5)
    s = random_sym3(rng)
    result = clark_s6_test(s, f1_clark)
    assert result.predicted_s6 == pytest.approx(s.s4 - s.s5, abs=1e-12)


def test_s6_accepts_shift_matrix(f1, f1_clark):
    m = tto_matrix_from_symbol(f1, Symbol.shift(), f1_clark.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    result = clark_s6_test(s, f1_clark)
    assert result.is_rep
    assert result.predicted_s6 == pytest.approx(1 / 3, abs=1e-10)


def test_s6_rejects_counterexample_families(f1_clark):
    rng = np.random.default_rng(11)
    for family in (1, 2, 3):
        s = counterexample_family(family, *rng.standard_normal(3))
        assert not clark_s6_test(s, f1_clark).is_rep


def test_s6_unknown_variant_rejected(f1_clark):
    # There is one Clark relation, so no call names one: ``variant`` is no parameter
    # (a stale positional name reaches ``tol`` and is invalid input, in test_errors.py).
    for call in (lambda: clark_s6_test(Sym3(0, 0, 0, 0, 0, 0), f1_clark, variant="general"),
                 lambda: counterexample_report(3, 0.0, 0.0, 0.0, variant="general"),
                 lambda: SolverConfig(variant="general")):
        with pytest.raises(TypeError):
            call()


def test_proof_intermediates_rederive_prediction():
    # Internal self-test: rebuild the prediction from the raw 2x2-minor form
    # (the x/y products below) and check it against the closed form.
    rng = np.random.default_rng(17)
    for _ in range(5):
        cb = random_clark_basis(rng)
        eta1, eta2, eta3 = cb.etas
        b = cb.phases / cb.norms
        theta = cb.theta
        lam = 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()) + 0.05
        b0 = 1 - np.conj(theta(0.0)) * theta(eta1)
        blam = 1 - np.conj(theta(lam)) * theta(eta1)

        def pair(i, j):
            return blam**2 / ((1 - np.conj(lam) * cb.etas[i]) * (1 - np.conj(lam) * cb.etas[j]))

        x4 = np.conj(b[1] * b[0]) * b0**2
        x5 = np.conj(b[2] * b[0]) * b0**2
        x6 = np.conj(b[2] * b[1]) * b0**2
        y4 = np.conj(b[1] * b[0]) * pair(1, 0)
        y5 = np.conj(b[2] * b[0]) * pair(2, 0)
        y6 = np.conj(b[2] * b[1]) * pair(2, 1)

        s4 = complex(rng.standard_normal() + 1j * rng.standard_normal())
        s5 = complex(rng.standard_normal() + 1j * rng.standard_normal())
        minor_form = (s4 * (y5 * x6 - x5 * y6) + s5 * (x4 * y6 - y4 * x6)) / (
            x4 * y5 - y4 * x5
        )
        closed = clark_s6_test(Sym3(0, 0, 0, s4, s5, 0.0), cb).predicted_s6
        assert minor_form == pytest.approx(closed, abs=1e-9 * (1 + abs(closed)))


def test_equal_norm_variants_coincide():
    # Whenever the three boundary kernels share one norm (true for c*z^3),
    # the printed unimodular-ratio form and the coefficient-ratio relation are the same numbers.
    rng = np.random.default_rng(23)
    for _ in range(10):
        b = BlaschkeProduct((0.0, 0.0, 0.0), front_constant=random_unimodular(rng))
        cb = modified_clark_basis(
            b, ClarkParams(0.55 * rng.random() * np.exp(2j * np.pi * rng.random()),
                           random_unimodular(rng))
        )
        np.testing.assert_allclose(cb.norms, cb.norms[0] * np.ones(3), atol=1e-10)
        c_paper = paper_relation_coefficients(cb)
        c_general = -relation_weight(cb)[0, 1:]
        np.testing.assert_allclose(c_paper, c_general, atol=1e-12)


def _paper_gap(cb):
    """Largest relative gap of (c4, c5) of K, the kernel norms divided out, from the printed form."""
    want = np.stack(paper_relation_coefficients(cb), axis=-1)
    n1, n2, n3 = cb.norms.T
    got = -relation_weight(cb)[..., 0, 1:] * np.stack([n3 / n1, n2 / n1], axis=-1)
    return float((np.abs(got - want) / np.abs(want)).max())


def test_paper_relation_is_the_printed_formula():
    # K is built from b_i = phase_i / ||k_{eta_i}||; the paper prints its ratios as
    # half-argument roots of conj(eta_i), which are the phase ratios alone.  So K with
    # the norm ratios divided out is the printed form to round-off on random draws,
    # and across the branch cut of the roots: alpha = e^{+-1e-15 i} puts a level-set
    # point of z^3 = alpha within 1e-15 of 1.
    gaps = [_paper_gap(sampling.clark_draws(np.random.default_rng(seed), 200)) for seed in range(10)]
    rng = np.random.default_rng(31)
    alphas = [1, -1, 1j, -1j, np.exp(1e-15j), np.exp(-1e-15j)] + [random_unimodular(rng) for _ in range(200)]
    for zeros in ((0.0, 0.0, 0.0), (0.5, 0.0, -0.5), (0.3j, -0.2, 0.1)):
        b = BlaschkeProduct(zeros)
        gaps += [_paper_gap(modified_clark_basis(b, ClarkParams(0.0, alpha))) for alpha in alphas]
    assert max(gaps) <= 1e-14, max(gaps)
    print(f"\npaper relation against the printed formula: worst relative gap {max(gaps):.2e}")


def test_f2_adjudicates_between_variants(f2, f2_clark):
    # Asymmetric fixture: the boundary kernel norms are unequal, so the library's
    # relation and the printed form (tests/oracles.py) genuinely disagree.  The
    # determinant test is the ground truth here (the matrix IS a TTO matrix by
    # construction); the library's coefficient-ratio relation agrees with it, the
    # printed unimodular-ratio form does not.  Recorded, not presumed.
    assert abs(f2_clark.norms[0] - f2_clark.norms[1]) > 0.1
    m = tto_matrix_from_symbol(f2, Symbol.shift(), f2_clark.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    oracle = detthm_test(s, f2_clark.basis, default_points(f2))
    general = clark_s6_test(s, f2_clark)
    gap = abs(s.s6 - paper_prediction(s, f2_clark))
    assert oracle.is_rep
    assert general.is_rep
    assert gap > REP_TOL * np.linalg.norm(s.array)  # the printed form rejects S
    assert gap > 0.01
    print(
        f"\nvariant adjudication on the asymmetric fixture: general gap "
        f"{abs(s.s6 - general.predicted_s6):.2e}, paper gap {gap:.2e} -> general wins"
    )


# -- agreement and scale invariants ------------------------------------------


def test_soundness_random_ttos():
    # Random operators in the generator span must pass, Clark or rotated.
    rng = np.random.default_rng(41)
    checked = 0
    for draw in range(20):
        cb = random_clark_basis(rng)
        basis = cb.basis
        if draw % 2:
            basis = rotate_basis(basis, random_special_orthogonal(rng))
        pc = default_points(cb.theta)
        for k in range(5):
            _, m = random_tto(cb.theta, basis, seed=1000 * draw + k)
            s = Sym3.from_array(m.array, tol=1e-7)
            result = detthm_test(s, basis, pc)
            assert result.is_rep
            assert result.certificate.residual < 1e-8
            checked += 1
    assert checked == 100


def test_completeness_random_matrices(f1, f1_clark):
    rng = np.random.default_rng(43)
    pc = default_points(f1)
    rejected = 0
    while rejected < 100:
        s = random_sym3(rng)
        result = detthm_test(s, f1_clark.basis, pc)
        if result.certificate.residual < 1e-6:
            continue  # accidentally inside the span; draw again
        assert not result.is_rep
        rejected += 1


@pytest.fixture(scope="module")
def scale_bases(f1_clark, f2_clark):
    return {"f1": f1_clark, "f2": f2_clark, "random": random_clark_basis(np.random.default_rng(59))}


def scale_matrix(kind, cb):
    if kind == "tto":
        return random_tto(cb.theta, cb.basis, seed=61)[1]
    if kind == "identity":
        return Sym3(1, 1, 1, 0, 0, 0)
    if kind == "random":
        return random_sym3(np.random.default_rng(67))
    return Sym3(0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("basis_name", ["f1", "f2", "random"])
@pytest.mark.parametrize("kind", ["tto", "identity", "random", "zero"])
@settings(max_examples=25, deadline=None)
@given(e=st.floats(min_value=-300, max_value=300))
def test_verdicts_invariant_under_scaling(scale_bases, basis_name, kind, e):
    # verdict(cS) = verdict(S) for c = 10^e, in both procedures; the
    # span members (a TTO draw, the identity, zero) pass and a random
    # symmetric matrix fails at every scale, down to where ||S||_F would
    # underflow and up to where the determinant would overflow.
    cb = scale_bases[basis_name]
    pc = default_points(cb.theta)
    s = scale_matrix(kind, cb)
    scaled = Sym3(*(10.0**e * s.vector))
    expected = kind != "random"
    assert detthm_test(s, cb.basis, pc).is_rep == expected
    assert clark_s6_test(s, cb).is_rep == expected
    assert detthm_test(scaled, cb.basis, pc).is_rep == expected
    assert clark_s6_test(scaled, cb).is_rep == expected


def test_s6_gap_is_exact_at_every_scale(f2_clark):
    # The gap is |s6 - predicted_s6|, and scaling S by a power of two
    # scales it exactly, at both ends of the float range.  A TTO plus a
    # perturbation of relative size 1e-20, below round-off, has a gap of
    # round-off size, which 2**-1000 takes into the subnormal range: the
    # reported gap is then the unit-scale gap times 2**-1000 rounded once,
    # and no warning is raised.
    rng = np.random.default_rng(71)
    inputs = [random_sym3(rng) for _ in range(10)]
    tto = random_tto(f2_clark.theta, f2_clark.basis, seed=73)[1].vector
    inputs.append(Sym3(*(tto + 1e-20 * np.linalg.norm(tto) * rng.standard_normal(6))))
    gaps = {}
    for s in inputs:
        result = clark_s6_test(s, f2_clark)
        assert result.gap == pytest.approx(abs(s.s6 - result.predicted_s6), rel=1e-12)
        for e in (-1000, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gaps[e] = clark_s6_test(s.scaled(e), f2_clark).gap
            assert gaps[e] == float(mpmath.ldexp(mpmath.mpf(result.gap), e))
    assert 0.0 < gaps[-1000] < sys.float_info.min  # the TTO, the last input


def test_detthm_and_s6_agree_on_clark_bases():
    rng = np.random.default_rng(47)
    for _ in range(10):
        cb = random_clark_basis(rng)
        pc = default_points(cb.theta)
        for _ in range(10):
            s = random_sym3(rng)
            det_res = detthm_test(s, cb.basis, pc)
            s6_res = clark_s6_test(s, cb)
            assert det_res.is_rep == s6_res.is_rep


def _printed_weight(cb):
    """K with the printed (c4, c5) of ``oracles.paper_relation_coefficients`` in place of the theorem's."""
    k = relation_weight(cb)
    k[0, 1:] = -np.array(paper_relation_coefficients(cb))
    return k


def _normal_cosine(cb, u, weight_of=relation_weight):
    """1 - |<n, k>| / (|n| |k|) for the C-real basis V with coordinates X U, X those of cb.

    n = conj(u6), u6 the sixth left singular vector of V's generator columns at
    the default points, is the functional that vanishes on the span.  k is the
    relation carried to V: U^T K U, K = weight_of(cb), flattened in the row
    order of ``ROW_INDEX`` with each off-diagonal pair summed, since the matrix
    of an operator in V is U^T S U when S is its matrix in cb.
    """
    weight = weight_of(cb)
    assert not np.diag(weight).any()  # the relation has no diagonal part
    basis = creal_basis_from_orthogonal(cb, OrthMatrix3.from_array(u))
    n = np.conj(build_columns(basis, default_points(cb.theta)).u[:, 5])
    w = u.T @ weight @ u
    k = (w + w.T - np.diag(np.diag(w)))[repcheck._ROWS_A, repcheck._ROWS_B]
    return 1.0 - abs(np.vdot(n, k)) / (np.linalg.norm(n) * np.linalg.norm(k))


def _span_normal_cosines(weight_of):
    """``_normal_cosine`` on 200 seeded Clark bases, each rotated by a seeded U in SO(3)."""
    rows = sampling.clark_draws(np.random.default_rng(5), 200)
    rng = np.random.default_rng(6)
    out = []
    for i in range(200):
        b = BlaschkeProduct(tuple(rows.zeros[i]), rows.constants[i])
        cb = rows.basis(i, b, ClarkParams(rows.t[i], rows.alpha[i]))
        out.append(_normal_cosine(cb, random_special_orthogonal(rng), weight_of))
    return np.array(out)


def test_span_normal_is_the_clark_relation():
    # An oracle between the two decision procedures: at order 3 the span has
    # codimension 1, so one functional decides membership.  On a modified Clark
    # basis it is the library's relation, and on any C-real basis V = X U it is
    # that relation carried to V, sum (U^T K U) o S (measured worst 2.2e-16).  The
    # paper's printed form is another functional on some bases (worst about 0.22 on
    # these), as test_f2_adjudicates_between_variants finds by verdict.
    assert _span_normal_cosines(relation_weight).max() <= 1e-12
    assert _span_normal_cosines(_printed_weight).max() > 1e-3


def test_span_normal_is_the_rotated_relation_near_the_circle():
    # Triple zeros at radii 0.9, 0.999 and 0.9999, 100 draws each from one
    # generator (seed 2026): an angle, t with |t| = 0.3, alpha and U, drawn per
    # case in that order.  Each draw meets the bound or is refused by the rank
    # test: the level set of 1 crowds near the circle, so the default points, not
    # the basis, can be degenerate (measured: 1 of the 300, at 0.9999 with
    # sigma5 = 3.2e-11; every other draw within 2.2e-16).
    rng = np.random.default_rng(2026)
    for radius in (0.9, 0.999, 0.9999):
        cosines, refused = [], []
        for _ in range(100):
            w = radius * np.exp(2j * np.pi * rng.random())
            t = 0.3 * np.exp(2j * np.pi * rng.random())
            alpha = np.exp(2j * np.pi * rng.random())
            cb = modified_clark_basis(BlaschkeProduct((w,) * 3), ClarkParams(t, alpha))
            u = random_special_orthogonal(rng)
            try:
                cosines.append(_normal_cosine(cb, u))
            except IndeterminateError as exc:
                assert "fifth singular value" in str(exc)
                refused.append(str(exc))
        assert max(cosines) <= 1e-12
        print(f"radius {radius}: worst 1 - |cos| {max(cosines):.1e} over {len(cosines)} draws; "
              f"{len(refused)} refused by the rank test {refused}")


_WEIGHTS = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])


def _lstsq_certificate(cols, s):
    """[mu, reconstruction, residual] of S by the Frobenius-weighted ``np.linalg.lstsq``.

    An independent reference for the certificate that ``detthm_test`` reads from
    the SVD: the fit runs on S times an exact power of two with parts below 1,
    and every number is scaled back by the same power (inf where it overflows).
    """
    v = s.vector
    e = math.frexp(float(np.abs(v.view(float)).max()))[1]
    unit = np.ldexp(v.view(float), -e).view(complex)
    mu = np.linalg.lstsq(cols * _WEIGHTS[:, None], unit * _WEIGHTS, rcond=None)[0]
    fit = cols @ mu
    residual = np.linalg.norm(_WEIGHTS * (fit - unit)) + 0j
    with np.errstate(over="ignore"):
        return [np.ldexp(x.view(float), e).view(complex) for x in (mu, fit, np.array([residual]))]


def _agree(got, ref, size):
    """Each real and imaginary part of got equals ref's within 1e-12 * size, or one
    rounding at the subnormal floor; inf where ref overflowed."""
    got, ref = (np.asarray(x, dtype=complex).view(float) for x in (got, ref))
    assert np.array_equal(got[np.isinf(ref)], ref[np.isinf(ref)]) and np.isfinite(got[np.isfinite(ref)]).all()
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12 * size + 2.0**-1074)


@pytest.mark.parametrize("e", [0, 1020, -1000, -1070])
def test_certificate_matches_weighted_lstsq(e):
    # The certificate is the Frobenius-weighted projection on the span, read from
    # the SVD of the rank test; the weighted lstsq computes the same projection
    # independently.  Accepted (a random TTO) and rejected (random) matrices with
    # parts below 1, times 2**e: mu within 1e-12 of its size, the reconstruction and the residual
    # within 1e-12 of the size of S.  At 2**-1070 scaling rounds S itself, so the
    # verdict is compared with that of the rounded S brought back to unit size,
    # which at the exact scales is the verdict of S.  The reconstruction
    # columns @ mu is formed from that unit-size certificate and scaled by 2**e:
    # at 2**-1070, mu itself keeps too few bits to be summed there.
    rows = sampling.clark_draws(np.random.default_rng(13), 40)
    rng = np.random.default_rng(17)
    for i in range(40):
        b = BlaschkeProduct(tuple(rows.zeros[i]), rows.constants[i])
        cb = rows.basis(i, b, ClarkParams(rows.t[i], rows.alpha[i]))
        pc = default_points(b)
        cols = build_columns(cb.basis, pc).columns
        accepted = random_tto(b, cb.basis, seed=100 + i, points=(pc.boundary, pc.interior))[1]
        for s, expected in ((accepted, True), (random_sym3(rng), False)):
            scaled = s.normalized()[0].scaled(e)  # parts below 2**e, so no entry overflows
            result = detthm_test(scaled, cb.basis, pc)
            unit = detthm_test(scaled.scaled(-e), cb.basis, pc)
            assert result.is_rep == unit.is_rep
            if e != -1070:
                assert result.is_rep is expected
            mu, fit, residual = _lstsq_certificate(cols, scaled)
            size = np.abs(scaled.vector).max()
            _agree(result.certificate.mu, mu, np.abs(mu.view(float)[np.isfinite(mu.view(float))]).max())
            _agree(repcheck._ldexp(cols @ unit.certificate.mu, e), fit, size)
            _agree([result.certificate.residual], residual, size)


# -- counterexample corollary -------------------------------------------------


def test_counterexample_family_layouts():
    np.testing.assert_array_equal(
        counterexample_family(1, 1, 2, 3).array,
        np.array([[1, 0, 1], [0, 2, 0], [1, 0, 3]], dtype=complex),
    )
    np.testing.assert_array_equal(
        counterexample_family(2, 0, 0, 0).array,
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    )
    np.testing.assert_array_equal(
        counterexample_family(3, -1, 0, 1).array,
        np.array([[-1, 0, 0], [0, 0, 1], [0, 1, 1]], dtype=complex),
    )
    with pytest.raises(ValueError):
        counterexample_family(4, 0, 0, 0)


def test_match_counterexample_family_inverts_layouts():
    for family in (1, 2, 3):
        s = counterexample_family(family, 1.5, -2.0, 0.0)
        assert match_counterexample_family(s) == (family, 1.5, -2.0, 0.0)
    for s in (
        Sym3(0, 0, 0, 1, 1, 0),  # two units
        Sym3(0, 0, 0, 0, 0, 2),  # a unit of the wrong size
        Sym3(1j, 0, 0, 0, 0, 1),  # a complex diagonal
    ):
        with pytest.raises(ValueError):
            match_counterexample_family(s)


def test_counterexample_report_family3():
    report = counterexample_report(3, 0, 0, 0, seed=7)
    assert report.normal_defect < 1e-12
    assert report.all_rejected
    assert report.rejections == report.trials == 100
    assert report.min_gap > 1e-6


@pytest.mark.parametrize("a", [1.0, 1e6, 1e8, 1e9, 1e300])
def test_counterexample_min_gap_explains_verdict(a):
    # The reported gap is the quantity clark_s6_test compares with REP_TOL,
    # so every trial is rejected exactly when even the smallest gap exceeds it.
    report = counterexample_report(1, a, 0.5, -0.25, seed=0)
    assert report.all_rejected == (report.min_gap > REP_TOL)


def test_counterexample_report_other_families():
    r1 = counterexample_report(1, 1, 2, 3, seed=11)
    r2 = counterexample_report(2, 0.3, -0.7, 2.1, seed=13)
    assert r1.all_rejected and r2.all_rejected


def oracle_counterexample(s, seed):
    """(rejections, min relative gap) of ``clark_s6_test`` on one random Clark basis at a time."""
    rng = np.random.default_rng(seed)
    rejections, min_gap = 0, np.inf
    for _ in range(TRIALS):
        result = clark_s6_test(s, random_clark_basis(rng))
        min_gap = min(min_gap, result.gap / np.linalg.norm(s.array))
        rejections += not result.is_rep
    return rejections, min_gap


@pytest.mark.parametrize("seed", [0, 7, 2026])
@pytest.mark.parametrize("family", [1, 2, 3])
def test_counterexample_sweep_matches_per_trial_loop(family, seed):
    s, _ = counterexample_family(family, 0.3, -0.7, 2.1).normalized()
    rejections, min_gap = oracle_counterexample(s, seed)
    report = counterexample_report(family, 0.3, -0.7, 2.1, seed=seed)
    assert report.rejections == rejections
    assert report.min_gap == pytest.approx(min_gap, rel=1e-12, abs=0)


def test_counterexample_sweep_has_no_per_trial_loop(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the sweep built or tested one basis at a time")

    monkeypatch.setattr(repcheck, "clark_s6_test", refuse)
    monkeypatch.setattr(sampling, "random_clark_basis", refuse)
    assert counterexample_report(3, 0, 0, 0, seed=0).min_gap == pytest.approx(
        1 / np.sqrt(2), rel=1e-15
    )


def test_counterexample_report_deterministic():
    a = counterexample_report(3, 0, 0, 0, seed=5)
    b = counterexample_report(3, 0, 0, 0, seed=5)
    assert a == b
