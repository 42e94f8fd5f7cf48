"""End-to-end acceptance gate.

Ten criteria, one test each, executed in order.  Every test prints a single
PASS line (with the governing tolerance) once its assertions hold; a failure
shows up as the usual pytest FAILED line for that criterion.  Random data is
seeded, so the gate is deterministic.
"""

import time

import numpy as np
import pytest

from model_space_lab.blaschke import BlaschkeProduct, level_set
from model_space_lab.clark import ClarkParams, clark_operator_matrix, modified_clark_basis
from model_space_lab.config import REP_TOL
from model_space_lab.modelspace import conjugation_residual, inner_product
from model_space_lab.repcheck import (
    _FROBENIUS_WEIGHTS,
    PointConfig,
    Sym3,
    build_columns,
    clark_s6_test,
    counterexample_family,
    default_points,
    detthm_test,
    relation_weight,
)
from model_space_lab.so3solver import SolverConfig, solve
from model_space_lab.tto import random_tto

from oracles import (basis_elements, congruence, cubic_coefficients, paper_prediction,
                     paper_relation_coefficients, random_blaschke, random_clark_basis,
                     random_special_orthogonal, random_unimodular, reference_onb, rotate_basis)

W3 = np.exp(2j * np.pi / 3)


def random_sym3(rng):
    return Sym3(*(rng.standard_normal(6) + 1j * rng.standard_normal(6)))


@pytest.fixture(scope="module")
def basis_pool_small():
    rng = np.random.default_rng(1000)
    return [random_clark_basis(rng) for _ in range(10)]


@pytest.fixture(scope="module")
def basis_pool_large():
    rng = np.random.default_rng(777)
    return [random_clark_basis(rng) for _ in range(100)]


def test_criterion_01_clark_basis_validity():
    rng = np.random.default_rng(100)
    for _ in range(50):
        cb = random_clark_basis(rng)
        assert cb.basis.gram_residual < 1e-8
        assert conjugation_residual(cb.basis) < 1e-8
        assert max(abs(cb.theta(e) - cb.omega) for e in cb.etas) < 1e-10
        assert max(abs(abs(e) - 1.0) for e in cb.etas) < 1e-10
        gaps = [abs(a - b) for i, a in enumerate(cb.etas) for b in cb.etas[i + 1 :]]
        assert min(gaps) > 1e-8
    print(
        "criterion 01 clark basis validity: PASS "
        "(50 draws; gram/fixedness < 1e-8, level-set residual < 1e-10)"
    )


def test_criterion_02_eigenvector_property():
    rng = np.random.default_rng(200)
    for _ in range(20):
        cb = random_clark_basis(rng)
        ref = reference_onb(cb.theta)
        u = clark_operator_matrix(cb.theta, cb.params, ref)
        for elem in basis_elements(cb.basis):
            x = np.array([inner_product(elem, v) for v in basis_elements(ref)])
            kappa = np.conj(x) @ (u @ x)
            assert np.linalg.norm(u @ x - kappa * x) < 1e-8
            assert abs(abs(kappa) - 1.0) < 1e-8
    print(
        "criterion 02 eigenvector property: PASS "
        "(20 draws; ||U cb - kappa cb|| < 1e-8, |kappa| = 1)"
    )


def test_criterion_03_f1_golden_values():
    b = BlaschkeProduct((0.0, 0.0, 0.0))
    cb = modified_clark_basis(b, ClarkParams(0.0, 1.0))
    np.testing.assert_allclose(cb.etas, [1.0, W3, W3**2], atol=1e-12)

    from model_space_lab.tto import Symbol, tto_matrix_from_symbol

    m = tto_matrix_from_symbol(b, Symbol.shift(), cb.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    golden = (
        2 / 3,
        2 * W3 / 3,
        2 * W3**2 / 3,
        np.exp(1j * np.pi / 3) / 3,
        W3 / 3,
        1 / 3,
    )
    np.testing.assert_allclose(s.vector, golden, atol=1e-10)

    # At the cube roots of unity the printed relation predicts literally s4 - s5.
    predicted = paper_prediction(s, cb)
    assert predicted == pytest.approx(s.s4 - s.s5, abs=1e-12)
    assert predicted == pytest.approx(s.s6, abs=1e-10)
    print(
        "criterion 03 F1 golden values: PASS "
        "(etas = cube roots of unity; shift matrix matches hand values to 1e-10)"
    )


def test_criterion_04_determinant_soundness_completeness(basis_pool_small):
    rng = np.random.default_rng(400)
    sound = 0
    for k, cb in enumerate(basis_pool_small):
        basis = cb.basis
        if k % 2:
            basis = rotate_basis(basis, random_special_orthogonal(rng))
        pc = default_points(cb.theta)
        for j in range(10):
            _, m = random_tto(cb.theta, basis, seed=37 * k + j)
            result = detthm_test(Sym3.from_array(m.array, tol=1e-7), basis, pc)
            assert result.is_rep
            assert result.certificate.residual < 1e-8
            sound += 1
    assert sound == 100

    cb = basis_pool_small[0]
    pc = default_points(cb.theta)
    rejected = 0
    while rejected < 100:
        result = detthm_test(random_sym3(rng), cb.basis, pc)
        if result.certificate.residual < 1e-6:
            continue
        assert not result.is_rep
        rejected += 1
    print(
        "criterion 04 determinant test: PASS "
        "(100 TTOs accepted with certificate residual < 1e-8; 100 off-span rejected)"
    )


def test_criterion_05_generator_rank_five(basis_pool_small):
    rng = np.random.default_rng(500)
    checked = 0
    for cb in basis_pool_small:
        for _ in range(5):
            while True:
                angles = np.sort(rng.uniform(0.0, 2 * np.pi, 4))
                circular = np.diff(np.append(angles, angles[0] + 2 * np.pi))
                if circular.min() > 0.05:
                    break
            boundary = tuple(np.exp(1j * a) for a in angles[:3])
            extra_pt = complex(np.exp(1j * angles[3]))
            while True:
                interior = tuple(
                    0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                    for _ in range(2)
                )
                if abs(interior[0] - interior[1]) > 0.05:
                    break
            # Weighted rows give each column the Frobenius norm of its
            # symmetric matrix, so these are the singular values of the
            # stacked 3x3 generator matrices.
            w = _FROBENIUS_WEIGHTS[:, None]
            gens = w * build_columns(cb.basis, PointConfig(boundary, interior)).columns
            sv = np.linalg.svd(gens, compute_uv=False)
            assert sv[4] > 1e-8 * sv[0]
            other = PointConfig((extra_pt,) + boundary[1:], interior)
            extra = w * build_columns(cb.basis, other).columns[:, :1]
            sv6 = np.linalg.svd(np.hstack([gens, extra]), compute_uv=False)
            assert sv6[5] < 1e-8 * sv6[0]
            checked += 1
    assert checked == 50
    print(
        "criterion 05 generator rank: PASS "
        "(50 point configurations; five generators span, a sixth adds nothing)"
    )


def test_criterion_06_cross_procedure_agreement(basis_pool_small):
    rng = np.random.default_rng(600)
    for cb in basis_pool_small:
        pc = default_points(cb.theta)
        for _ in range(10):
            s = random_sym3(rng)
            det_res = detthm_test(s, cb.basis, pc)
            s6_res = clark_s6_test(s, cb)
            assert det_res.is_rep == s6_res.is_rep

    for _ in range(10):
        b = BlaschkeProduct((0.0, 0.0, 0.0), front_constant=random_unimodular(rng))
        cb = modified_clark_basis(
            b,
            ClarkParams(
                0.55 * rng.random() * np.exp(2j * np.pi * rng.random()),
                random_unimodular(rng),
            ),
        )
        np.testing.assert_allclose(
            paper_relation_coefficients(cb), -relation_weight(cb)[0, 1:], atol=1e-12
        )

    # Adjudication on the asymmetric fixture, recorded in the log.
    from model_space_lab.tto import Symbol, tto_matrix_from_symbol

    f2 = BlaschkeProduct((0.5, 0.0, -0.5))
    cb2 = modified_clark_basis(f2, ClarkParams(0.0, 1.0))
    m = tto_matrix_from_symbol(f2, Symbol.shift(), cb2.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    oracle = detthm_test(s, cb2.basis, default_points(f2))
    general = clark_s6_test(s, cb2)
    paper_gap = abs(s.s6 - paper_prediction(s, cb2))
    assert oracle.is_rep and general.is_rep and paper_gap > REP_TOL * np.linalg.norm(s.array)
    print(
        "criterion 06 cross-procedure agreement: PASS "
        "(100 matrices agree; the printed form coincides in the equal-norm case to 1e-12; "
        f"adjudication: relation gap {abs(s.s6 - general.predicted_s6):.1e}, "
        f"printed-form gap {paper_gap:.1e} -> the relation is the consistent one)"
    )


def test_criterion_07_counterexample_reproduction(basis_pool_large):
    rng = np.random.default_rng(700)
    solved = 0
    for family in (1, 2, 3):
        for _ in range(20):
            a, b, c = rng.standard_normal(3)
            s = counterexample_family(family, a, b, c)
            m = s.array
            assert np.linalg.norm(m @ np.conj(m.T) - np.conj(m.T) @ m) < 1e-12
            for cb in basis_pool_large:
                assert not clark_s6_test(s, cb).is_rep
            cb = basis_pool_large[solved % len(basis_pool_large)]
            report = solve(s, cb, SolverConfig(seed=solved))
            assert report.found
            assert report.best_residual < 1e-8
            solved += 1
    assert solved == 60
    print(
        "criterion 07 counterexample reproduction: PASS "
        "(3 families x 20 draws; normal, rejected by 100 Clark bases each, "
        "yet solvable over SO(3) with residual < 1e-8)"
    )


def circle_sorted(points):
    key = np.angle(points) % (2 * np.pi)
    key[key >= 2 * np.pi - 1e-9] -= 2 * np.pi
    return points[np.argsort(key)]


def test_criterion_08_cubic_remark():
    rng = np.random.default_rng(800)
    for _ in range(50):
        b = random_blaschke(rng, unit_constant=True)
        k0, k1, k2, k3 = cubic_coefficients(b)
        roots = circle_sorted(np.roots([k3, -k2, k1, -k0]))
        etas = level_set(b, 1.0)
        np.testing.assert_allclose(roots, etas, atol=1e-10)
    print(
        "criterion 08 cubic remark: PASS "
        "(50 zero sets; closed-form cubic roots match the level set to 1e-10)"
    )


def test_criterion_09_so3_round_trip(basis_pool_small):
    rng = np.random.default_rng(900)
    instance = 0
    for cb in basis_pool_small:
        for j in range(5):
            _, m = random_tto(cb.theta, cb.basis, seed=9000 + instance)
            s0 = Sym3.from_array(m.array, tol=1e-7)
            s = congruence(s0, random_special_orthogonal(rng).T)
            config = SolverConfig(starts=100, tol=1e-8, seed=instance)
            t0 = time.perf_counter()
            report = solve(s, cb, config)
            elapsed = time.perf_counter() - t0
            assert report.found
            assert report.best_residual < 1e-8
            assert elapsed < 5.0
            if instance < 3:
                np.testing.assert_equal(solve(s, cb, config), report)
            instance += 1
    assert instance == 50
    print(
        "criterion 09 SO(3) round trip: PASS "
        "(50 conjugated instances recovered under 5 s each, deterministic reruns)"
    )


def test_criterion_10_literal_polynomials():
    rng = np.random.default_rng(10_000)
    for _ in range(1000):
        s = random_sym3(rng)
        u = random_special_orthogonal(rng)
        m1, m2, m3, m4, m5, m6 = s.vector
        r1, r2, r3, r4, r5, r6, r7, r8, r9 = u.reshape(9)
        a4 = (
            m1 * r1 * r4 + m4 * r2 * r4 + m5 * r3 * r4
            + m4 * r1 * r5 + m2 * r2 * r5 + m6 * r3 * r5
            + m5 * r1 * r6 + m6 * r2 * r6 + m3 * r3 * r6
        )
        a5 = (
            m1 * r1 * r7 + m4 * r2 * r7 + m5 * r3 * r7
            + m4 * r1 * r8 + m2 * r2 * r8 + m6 * r3 * r8
            + m5 * r1 * r9 + m6 * r2 * r9 + m3 * r3 * r9
        )
        a6 = (
            m1 * r4 * r7 + m4 * r5 * r7 + m5 * r6 * r7
            + m4 * r4 * r8 + m2 * r5 * r8 + m6 * r6 * r8
            + m5 * r4 * r9 + m6 * r5 * r9 + m3 * r6 * r9
        )
        out = congruence(s, u)
        assert abs(out.s4 - a4) < 1e-12
        assert abs(out.s5 - a5) < 1e-12
        assert abs(out.s6 - a6) < 1e-12
    print(
        "criterion 10 literal polynomials: PASS "
        "(1000 random pairs; off-diagonal entries equal the printed polynomials to 1e-12)"
    )
