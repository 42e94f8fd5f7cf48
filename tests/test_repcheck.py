import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.clark import ClarkParams, modified_clark_basis
from model_space_lab.config import REP_TOL
from model_space_lab.modelspace import KThetaElement, OrthonormalBasis, reference_onb
from model_space_lab.repcheck import (
    Certificate,
    IndeterminateError,
    PointConfig,
    ROW_INDEX,
    Sym3,
    build_columns,
    clark_s6_test,
    counterexample_family,
    counterexample_report,
    default_points,
    detthm_test,
    match_counterexample_family,
    relation_coefficients,
)
from model_space_lab.sampling import (
    random_clark_basis,
    random_special_orthogonal,
    random_unimodular,
)
from model_space_lab.tto import Symbol, random_tto, tto_matrix_from_symbol

from conftest import oracle_inner, oracle_kernel_values


@pytest.fixture(scope="module")
def f1_clark(f1):
    return modified_clark_basis(f1, ClarkParams(0.0, 1.0))


@pytest.fixture(scope="module")
def f2_clark(f2):
    return modified_clark_basis(f2, ClarkParams(0.0, 1.0))


def random_sym3(rng, scale=1.0):
    vals = scale * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    return Sym3(*vals)


def rotate_basis(basis, q):
    """Real-orthogonal recombination; stays orthonormal and conjugation-fixed."""
    elems = []
    for i in range(3):
        e = q[0, i] * basis.elements[0] + q[1, i] * basis.elements[1]
        e = e + q[2, i] * basis.elements[2]
        elems.append(e)
    return OrthonormalBasis.from_elements(tuple(elems))


# -- Sym3 / PointConfig ------------------------------------------------------


def test_sym3_array_round_trip():
    s = Sym3(1, 2, 3, 4j, 5, 6 - 1j)
    again = Sym3.from_array(s.array)
    assert s == again
    np.testing.assert_array_equal(
        s.vector, np.array([1, 2, 3, 4j, 5, 6 - 1j], dtype=complex)
    )


def test_sym3_rejects_asymmetric():
    m = np.array([[1, 2, 3], [2.5, 1, 0], [3, 0, 1]], dtype=complex)
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
    cols = build_columns(f1_clark.basis, pc)
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
        b, v = cb.theta, cb.basis.elements
        pc = default_points(b)
        cols = build_columns(cb.basis, pc)
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
    basis = OrthonormalBasis.from_elements(elems)
    pc = default_points(f1)
    cols = build_columns(basis, pc)
    lam = pc.interior[1]
    vals = np.array([e(lam) for e in basis.elements])
    expected = np.array([np.conj(vals[a] * vals[b]) for a, b in ROW_INDEX])
    np.testing.assert_allclose(cols[:, 4], expected, atol=1e-12)


def test_columns_interior_zero_entries(f1, f1_clark):
    pc = default_points(f1)
    cols = build_columns(f1_clark.basis, pc)
    vals = np.array([e(0.0) for e in f1_clark.basis.elements])
    expected = np.array([np.conj(vals[a] * vals[b]) for a, b in ROW_INDEX])
    np.testing.assert_allclose(cols[:, 3], expected, atol=1e-12)


def test_columns_reject_non_creal_basis(f1):
    with pytest.raises(ValueError, match="conjugation-fixed"):
        build_columns(reference_onb(f1), default_points(f1))


# -- determinant test --------------------------------------------------------


def test_detthm_identity_is_representable(f1, f1_clark):
    s = Sym3(1, 1, 1, 0, 0, 0)
    result = detthm_test(s, f1_clark.basis, default_points(f1))
    assert result.is_rep
    assert result.certificate.residual < 1e-8
    np.testing.assert_allclose(
        result.certificate.reconstructed.array, np.eye(3), atol=1e-8
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
    for variant in ("paper", "general"):
        c4, c5 = relation_coefficients(f1_clark, variant)
        assert c4 / (eta3 - eta2) == pytest.approx(1.0, abs=1e-12)
        assert c5 / (eta3 - eta2) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(5)
    s = random_sym3(rng)
    result = clark_s6_test(s, f1_clark)
    assert result.predicted_s6 == pytest.approx(s.s4 - s.s5, abs=1e-12)


def test_s6_accepts_shift_matrix(f1, f1_clark):
    m = tto_matrix_from_symbol(f1, Symbol.shift(), f1_clark.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    for variant in ("paper", "general"):
        result = clark_s6_test(s, f1_clark, variant=variant)
        assert result.is_rep
        assert result.predicted_s6 == pytest.approx(1 / 3, abs=1e-10)


def test_s6_rejects_counterexample_families(f1_clark):
    rng = np.random.default_rng(11)
    for family in (1, 2, 3):
        s = counterexample_family(family, *rng.standard_normal(3))
        for variant in ("paper", "general"):
            assert not clark_s6_test(s, f1_clark, variant=variant).is_rep


def test_s6_unknown_variant_rejected(f1_clark):
    with pytest.raises(ValueError):
        clark_s6_test(Sym3(0, 0, 0, 0, 0, 0), f1_clark, variant="bogus")


def test_proof_intermediates_rederive_prediction():
    # Internal self-test: rebuild the prediction from the raw 2x2-minor form
    # (the x/y products below) and check it against the closed form.
    rng = np.random.default_rng(17)
    for _ in range(5):
        cb = random_clark_basis(rng)
        eta1, eta2, eta3 = cb.etas
        b = cb.coefficients
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
    # the unimodular-ratio and coefficient-ratio forms are the same numbers.
    rng = np.random.default_rng(23)
    for _ in range(10):
        b = BlaschkeProduct((0.0, 0.0, 0.0), front_constant=random_unimodular(rng))
        cb = modified_clark_basis(
            b, ClarkParams(0.55 * rng.random() * np.exp(2j * np.pi * rng.random()),
                           random_unimodular(rng))
        )
        np.testing.assert_allclose(cb.norms, cb.norms[0] * np.ones(3), atol=1e-10)
        c_paper = relation_coefficients(cb, "paper")
        c_general = relation_coefficients(cb, "general")
        np.testing.assert_allclose(c_paper, c_general, atol=1e-12)


def test_f2_adjudicates_between_variants(f2, f2_clark):
    # Asymmetric fixture: the boundary kernel norms are unequal, so the two
    # coefficient conventions genuinely disagree.  The determinant test is the
    # ground truth here (the matrix IS a TTO matrix by construction); the
    # coefficient-ratio variant agrees with it, the unimodular-ratio variant
    # does not.  Recorded, not presumed.
    assert abs(f2_clark.norms[0] - f2_clark.norms[1]) > 0.1
    m = tto_matrix_from_symbol(f2, Symbol.shift(), f2_clark.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    oracle = detthm_test(s, f2_clark.basis, default_points(f2))
    general = clark_s6_test(s, f2_clark, variant="general")
    paper = clark_s6_test(s, f2_clark, variant="paper")
    assert oracle.is_rep
    assert general.is_rep
    assert not paper.is_rep
    gap = abs(s.s6 - paper.predicted_s6)
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
@given(e=st.floats(min_value=-12, max_value=12))
def test_verdicts_invariant_under_scaling(scale_bases, basis_name, kind, e):
    # verdict(cS) = verdict(S) for c = 10^e, in both procedures; the
    # span members (a TTO draw, the identity, zero) pass and a random
    # symmetric matrix fails at every scale.
    cb = scale_bases[basis_name]
    pc = default_points(cb.theta)
    s = scale_matrix(kind, cb)
    scaled = Sym3(*(10.0**e * s.vector))
    expected = kind != "random"
    assert detthm_test(s, cb.basis, pc).is_rep == expected
    assert clark_s6_test(s, cb).is_rep == expected
    assert detthm_test(scaled, cb.basis, pc).is_rep == expected
    assert clark_s6_test(scaled, cb).is_rep == expected


def test_detthm_and_s6_agree_on_clark_bases():
    rng = np.random.default_rng(47)
    for _ in range(10):
        cb = random_clark_basis(rng)
        pc = default_points(cb.theta)
        for _ in range(10):
            s = random_sym3(rng)
            det_res = detthm_test(s, cb.basis, pc)
            s6_res = clark_s6_test(s, cb, variant="general")
            assert det_res.is_rep == s6_res.is_rep


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
    report = counterexample_report(3, 0, 0, 0, trials=100, seed=7)
    assert report.normal_defect < 1e-12
    assert report.all_rejected
    assert report.rejections == 100
    assert report.min_gap > 1e-6


@pytest.mark.parametrize("a", [1.0, 1e6, 1e8, 1e9])
def test_counterexample_min_gap_explains_verdict(a):
    # The reported gap is the quantity clark_s6_test compares with REP_TOL,
    # so every trial is rejected exactly when even the smallest gap exceeds it.
    report = counterexample_report(1, a, 0.5, -0.25, trials=20, seed=0)
    assert report.all_rejected == (report.min_gap > REP_TOL)


def test_counterexample_report_other_families():
    r1 = counterexample_report(1, 1, 2, 3, trials=25, seed=11)
    r2 = counterexample_report(2, 0.3, -0.7, 2.1, trials=25, seed=13)
    assert r1.all_rejected and r2.all_rejected


def test_counterexample_report_deterministic():
    a = counterexample_report(3, 0, 0, 0, trials=10, seed=5)
    b = counterexample_report(3, 0, 0, 0, trials=10, seed=5)
    assert a == b
