import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from model_space_lab import blaschke, clark, cli
from model_space_lab.blaschke import BlaschkeProduct, LevelSetError, circle_angle, level_set, product_stack
from model_space_lab.clark import (
    ClarkParams,
    ClarkTargetError,
    clark_operator_matrix,
    clark_rows,
    clark_targets,
    modified_clark_basis,
)
from model_space_lab.config import BASIS_TOL
from model_space_lab.modelspace import BasisError, conjugation_residual, inner_product, kernel_element
from model_space_lab.repcheck import counterexample_family, counterexample_report, default_points
from model_space_lab.tto import random_tto

from conftest import oracle_clark_mp
from oracles import basis_elements, random_clark_basis, reference_onb

W3 = np.exp(2j * np.pi / 3)
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_circle_angle_convention():
    # The argument is taken in [0, 2*pi): the branch of every Clark-basis phase,
    # exp(i * circle_angle(w) / 2), and so of the paper's half-argument roots.
    assert circle_angle(-1j) == pytest.approx(1.5 * np.pi)
    assert circle_angle(np.conj(W3)) == pytest.approx(4 * np.pi / 3)


def test_circle_angle_continuous_at_branch_cut():
    # A level-set point computed as 1 - 1e-16i is the point 1, not the end of
    # [0, 2*pi): its angle is 0, as on the other side of the axis, not 2*pi.
    assert abs(circle_angle(1 - 1e-16j)) <= 1e-15
    assert abs(circle_angle(1 + 1e-16j)) <= 1e-15


def test_clark_target_trivial(f1):
    omega = clark_targets(*f1.stack[:2], np.array([0j]), np.array([1 + 0j]))
    assert omega[0] == pytest.approx(1.0)


def test_clark_target_unimodular(f2):
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = ClarkParams(
            0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()),
            np.exp(2j * np.pi * rng.random()),
        )
        omega = clark_targets(*f2.stack[:2], np.array([p.t]), np.array([p.alpha]))
        assert abs(abs(omega[0]) - 1.0) < 1e-12


def test_clark_target_degenerate_pair_rejected(f1):
    # The denominator 1 + conj(B(t)) alpha can only vanish when |B(t)| -> 1,
    # i.e. t squeezed against the circle with alpha opposing B(t).
    p = ClarkParams(1.0 - 1e-13, -1.0)
    with pytest.raises(ClarkTargetError, match="numerically zero"):
        clark_targets(*f1.stack[:2], np.array([p.t]), np.array([p.alpha]))


# -- the F1 golden basis -----------------------------------------------------


def test_f1_clark_basis_golden_values(f1):
    cb = modified_clark_basis(f1, ClarkParams(0.0, 1.0))
    np.testing.assert_allclose(cb.omega, 1.0, atol=1e-14)
    np.testing.assert_allclose(cb.etas, [1.0, W3, W3**2], atol=1e-12)
    np.testing.assert_allclose(cb.phases, [1.0, W3, np.exp(1j * np.pi / 3)], atol=1e-12)
    np.testing.assert_allclose(cb.norms, np.sqrt(3.0) * np.ones(3), atol=1e-12)
    np.testing.assert_allclose(
        basis_elements(cb.basis)[0].numerator, np.ones(3) / np.sqrt(3), atol=1e-12
    )
    np.testing.assert_allclose(
        basis_elements(cb.basis)[1].numerator,
        np.array([W3, 1.0, W3**2]) / np.sqrt(3),
        atol=1e-12,
    )


def test_clark_basis_invariants_random_draws():
    rng = np.random.default_rng(77)
    for _ in range(10):
        cb = random_clark_basis(rng)
        b = cb.theta
        assert cb.basis.gram_residual < 1e-8
        assert conjugation_residual(cb.basis) < 1e-8
        np.testing.assert_allclose(np.abs(b(cb.etas) - cb.omega), 0, atol=1e-10)
        np.testing.assert_allclose(np.abs(cb.phases), 1.0, atol=1e-12)
        for i, e in enumerate(basis_elements(cb.basis)):
            for j in range(3):
                if j != i:
                    assert abs(e(cb.etas[j])) < 1e-8
        # phase^2 = conj(eta) * omega is what makes the vectors conjugation-fixed
        np.testing.assert_allclose(
            cb.phases**2, np.conj(cb.etas) * cb.omega, atol=1e-12
        )


def test_no_production_path_builds_j(f2, monkeypatch):
    # Kernels are conjugated in closed form (conjugate_kernels), so J is built
    # only to check a basis given by arbitrary coordinates, which no task does.
    built = []

    def counted(b):
        built.append(b)
        return blaschke_j(b)

    blaschke_j = blaschke.conjugation_matrix
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        binds = getattr(module, "conjugation_matrix", None) is blaschke_j
        if name.split(".")[0] == "model_space_lab" and binds:
            monkeypatch.setattr(module, "conjugation_matrix", counted)
    for path in sorted(FIXTURES.glob("*.problem.json")):
        problem = cli.parse_problem(json.loads(path.read_text()))
        assert cli.run_task(problem)["verdict"] is True
    params = ClarkParams(0.1 + 0.2j, 1.0)
    level_set(f2, np.exp(0.4j))
    cb = modified_clark_basis(f2, params)
    clark_operator_matrix(f2, params, cb.basis)
    default_points(f2)
    random_tto(f2, cb.basis, seed=3)
    counterexample_report(counterexample_family(1, 0.3, -0.2, 0.5))
    assert len(list(FIXTURES.glob("*.problem.json"))) == 9
    assert built == []
    assert cb.basis.conj_residual < 1e-14
    conjugation_residual(cb.basis)  # the one check J is for, and it is counted
    assert built == [f2]


@pytest.mark.parametrize("radius", [0.999, 0.9999])
def test_near_circle_conjugation_residual_with_and_without_j(radius):
    # The chain records conj(b_i) C k_{eta_i} - b_i k_{eta_i} from the closed
    # form; conjugation_residual recomputes it with J.  The draws: a triple
    # zero at a random angle, |t| = 0.3, random constant and alpha, seed 2026.
    # clark_rows returns only if every row passes every check.
    rng = np.random.default_rng(2026)
    u = rng.random((200, 4))
    w = radius * np.exp(2j * np.pi * u[:, 0])
    rows = clark_rows(
        product_stack(np.repeat(w[:, None], 3, axis=1), np.exp(2j * np.pi * u[:, 1])),
        0.3 * np.exp(2j * np.pi * u[:, 2]),
        np.exp(2j * np.pi * u[:, 3]),
    )
    assert rows.conj.max() < BASIS_TOL
    for i in range(len(w)):
        theta = BlaschkeProduct((w[i],) * 3, rows.constants[i])
        cb = rows.basis(i, theta, ClarkParams(rows.t[i], rows.alpha[i]))
        assert conjugation_residual(cb.basis) < BASIS_TOL


# (zeros, t, alpha) of one row: a valid row, and one that fails each stage of the chain
GOOD_ROW = ((0.5, 0.0, -0.5), 0.1 + 0.2j, 1.0)
MARKED_ZERO = 0.3  # the Gram case perturbs the kernel values of the row with this first zero
FAILING_ROWS = {
    # 1 - |B(t)| = 3e-13 with alpha opposing B(t): the target's denominator is round-off
    "target": (((0.0, 0.0, 0.0), 0.9999999999999, -1.0), ClarkTargetError, r"t=\(0\.9999999999999\+0j\)"),
    # |B'| reaches 6e8 at the level set of a triple zero this close to the circle
    "level-set": (((0.99999999,) * 3, 0.0, 1.0), LevelSetError, "level-set residuals"),
    "gram": (((MARKED_ZERO, 0.0, 0.0), 0.0, 1.0), BasisError, "Gram residual"),
}


def _rows(rows):
    zeros, t, alpha = (np.array(part, dtype=complex) for part in zip(*rows))
    return clark_rows(product_stack(zeros, np.ones(len(rows), dtype=complex)), t, alpha)


@pytest.fixture
def perturbed_kernels(monkeypatch):
    """Scale one kernel coordinate of the marked row by 1 + 1e-6: its element 0 leaves orthogonality.

    ``clark_rows`` reads its kernels from the checked pass of ``level_sets``, so that is wrapped.
    """
    level_sets = clark.level_sets

    def perturbed(s, omega):
        etas, (values, conj_kernels, products) = level_sets(s, omega)
        values[s.zeros[:, 0] == MARKED_ZERO, 0, 0] *= 1.0 + 1e-6
        return etas, (values, conj_kernels, products)

    monkeypatch.setattr(clark, "level_sets", perturbed)


@pytest.mark.parametrize("stage", FAILING_ROWS)
def test_stack_raises_its_failing_row_as_that_row_alone(perturbed_kernels, stage):
    # A stack whose middle row fails one stage raises that row's error, with that
    # row's numbers in its message; the row alone raises the same message.
    middle, error, match = FAILING_ROWS[stage]
    with pytest.raises(error, match=match) as stacked:
        _rows([GOOD_ROW, middle, GOOD_ROW])
    with pytest.raises(error) as alone:
        _rows([middle])
    assert str(stacked.value) == str(alone.value)
    _rows([GOOD_ROW, GOOD_ROW])  # the other rows pass every check


def test_stack_raises_for_the_first_failing_stage():
    # The stages run in order over the whole stack: a target failure in the last
    # row is raised before a level-set failure in the first.
    level_set_row, target_row = FAILING_ROWS["level-set"][0], FAILING_ROWS["target"][0]
    with pytest.raises(ClarkTargetError):
        _rows([level_set_row, GOOD_ROW, target_row])


def test_clark_basis_requires_order_three(f2):
    b = BlaschkeProduct(zeros=(0.3, 0.1))
    with pytest.raises(ValueError):
        modified_clark_basis(b, ClarkParams(0.0, 1.0))


@pytest.mark.parametrize("radius", [0.999, 0.9999])
def test_near_circle_triple_zero_matches_mpmath_oracle(radius):
    # Near the circle the kernels vary on arcs of length 1 - radius, which a
    # uniform quadrature grid cannot resolve; the 50-digit oracle can.  Level
    # sets are compared to 1e-10 (where |B'| ~ 1e-3 an input round-off of
    # 1e-16 in omega already moves eta by 1e-13), norms relatively to 1e-9,
    # and element values at interior points to 1e-10.
    rng = np.random.default_rng(int(radius * 1e4) + 1)
    z = np.array([0.0, 0.5, -0.3 + 0.4j, 0.6j, 0.9 * np.exp(1j)])
    for _ in range(10):
        w = radius * np.exp(2j * np.pi * rng.random())
        b = BlaschkeProduct((w, w, w), np.exp(2j * np.pi * rng.random()))
        params = ClarkParams(
            0.3 * np.exp(2j * np.pi * rng.random()), np.exp(2j * np.pi * rng.random())
        )
        cb = modified_clark_basis(b, params)
        etas, _, norms, values = oracle_clark_mp(b, params.t, params.alpha, z)
        np.testing.assert_allclose(cb.etas, etas, rtol=0, atol=1e-10)
        np.testing.assert_allclose(cb.norms, norms, rtol=1e-9)
        np.testing.assert_allclose(cb.basis(z), values, rtol=0, atol=1e-10)


@pytest.mark.parametrize("radius", [0.999, 0.9999])
def test_near_circle_vanishing_is_bounded_by_gram_residual(radius):
    # e_i(eta_j) / ||k_{eta_j}|| is a Gram entry up to a unimodular factor, so
    # the Gram check also decides that each element vanishes at the other
    # level-set points.  Near the circle, where the kernel norms range from
    # 0.01 to 200 and the Gram residual is largest, the ratio reaches 0.57.
    rng = np.random.default_rng(int(radius * 1e4) + 2)
    for _ in range(20):
        w = radius * np.exp(2j * np.pi * rng.random())
        b = BlaschkeProduct((w, w, w), np.exp(2j * np.pi * rng.random()))
        params = ClarkParams(
            0.3 * np.exp(2j * np.pi * rng.random()), np.exp(2j * np.pi * rng.random())
        )
        cb = modified_clark_basis(b, params)
        off_point = np.abs(cb.basis(cb.etas)) / cb.norms  # entry (i, j): |e_i(eta_j)|/||k_j||
        np.fill_diagonal(off_point, 0.0)
        assert off_point.max() <= cb.basis.gram_residual


# (layout, zero radius): LevelSetError counts of (modified_clark_basis, default_points)
# in the 200 draws of test_near_circle_level_set_failures_do_not_rise
NEAR_CIRCLE_LEVEL_SET_FAILURES = {
    ("triple", 0.99999): (3, 10),
    ("triple", 0.999995): (59, 72),
    ("spread", 0.999999): (0, 109),
    ("spread", 0.9999995): (0, 129),
}


@pytest.mark.parametrize("layout, radius", NEAR_CIRCLE_LEVEL_SET_FAILURES)
def test_near_circle_level_set_failures_do_not_rise(layout, radius):
    # The level-set half of the exit-3 map, as a ratchet: the counts are upper
    # bounds that may fall, never rise.  Each of 200 draws (numpy seed 7) takes
    # four uniforms: the zeros' angle, the front constant, t with |t| = 0.3 and
    # alpha.  The zeros are a triple zero, or three zeros 120 degrees apart, at
    # one radius.  Near the circle the residual check reads round-off, so a change
    # in the last bits of the level set moves a few draws across ROOT_TOL either way.
    # Any error other than LevelSetError fails the test.
    u = np.random.default_rng(7).random((200, 4))
    turns = (0, 0, 0) if layout == "triple" else (0, 1, 2)
    failed = [0, 0]
    for angle, c, t, alpha in u:
        zeros = tuple(radius * np.exp(2j * np.pi * angle + 2j * np.pi * j / 3) for j in turns)
        b = BlaschkeProduct(zeros, np.exp(2j * np.pi * c))
        params = ClarkParams(0.3 * np.exp(2j * np.pi * t), np.exp(2j * np.pi * alpha))
        for stage, build in enumerate((lambda: modified_clark_basis(b, params), lambda: default_points(b))):
            try:
                build()
            except LevelSetError:
                failed[stage] += 1
    print("near-circle level-set failures, %s zeros at %s: %d / %d" % (layout, radius, *failed))
    bound = NEAR_CIRCLE_LEVEL_SET_FAILURES[layout, radius]
    assert failed[0] <= bound[0] and failed[1] <= bound[1]


# -- the perturbed shift -----------------------------------------------------


def test_f1_operator_is_cyclic_permutation(f1):
    onb = reference_onb(f1)  # monomials
    u = clark_operator_matrix(f1, ClarkParams(0.0, 1.0), onb)
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_f1_operator_fixes_kernel_span(f1):
    # For t=0, alpha=1 the kernel at eta=1 is an eigenvector: U k_1 = k_1.
    onb = reference_onb(f1)
    u = clark_operator_matrix(f1, ClarkParams(0.0, 1.0), onb)
    k1 = kernel_element(f1, 1.0)
    x = np.array([inner_product(k1, v) for v in basis_elements(onb)])
    np.testing.assert_allclose(u @ x, x, atol=1e-10)


def test_operator_rejects_basis_from_another_space(f1, f2):
    f1_basis = modified_clark_basis(f1, ClarkParams(0.0, 1.0)).basis
    with pytest.raises(ValueError, match="different model space"):
        clark_operator_matrix(f2, ClarkParams(0.0, 1.0), f1_basis)


def test_operator_unitary_random_draws():
    rng = np.random.default_rng(99)
    for _ in range(6):
        cb = random_clark_basis(rng)
        u = clark_operator_matrix(cb.theta, cb.params, cb.basis)
        np.testing.assert_allclose(np.conj(u.T) @ u, np.eye(3), atol=1e-8)


def test_basis_diagonalizes_operator():
    rng = np.random.default_rng(101)
    for _ in range(6):
        cb = random_clark_basis(rng)
        u = clark_operator_matrix(cb.theta, cb.params, cb.basis)
        off = u - np.diag(np.diag(u))
        assert np.linalg.norm(off) < 1e-8
        np.testing.assert_allclose(np.abs(np.diag(u)), 1.0, atol=1e-8)


@pytest.mark.parametrize("distance", [1e-7, 1e-8, 1e-9, 1e-10])
def test_operator_near_the_circle_is_unitary_and_diagonal(distance):
    # With t at 1 - |t| = distance, ||k_t||^2 = (1 - |B(t)|^2) / (1 - |t|^2) in
    # closed form cancels to a relative error near 1e-16 / distance, enough to
    # fail the unitarity check; the sum ||e(t)||^2 of the TMW values at t, which
    # the operator divides by, has no cancellation.  It is compared with the closed
    # form in 50-digit mpmath, where |c| = 1 exactly (c's own round-off would dominate).
    rng = np.random.default_rng(int(-np.log10(distance)) + 200)
    for _ in range(40):
        zeros = 0.85 * np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
        b = BlaschkeProduct(tuple(zeros), np.exp(2j * np.pi * rng.random()))
        params = ClarkParams((1.0 - distance) * np.exp(2j * np.pi * rng.random()),
                             np.exp(2j * np.pi * rng.random()))
        cb = modified_clark_basis(b, params)
        u = clark_operator_matrix(b, params, cb.basis)
        np.testing.assert_allclose(np.conj(u.T) @ u, np.eye(3), rtol=0, atol=1e-8)
        assert np.linalg.norm(u - np.diag(np.diag(u))) < 1e-8

        e = blaschke.tmw_rows(b.stack.zeros, np.array([[params.t]]))[0, :, 0]
        with mpmath.workdps(50):
            t = mpmath.mpc(params.t)
            bt_sq = mpmath.fprod(abs((t - w) / (1 - mpmath.conj(w) * t)) ** 2 for w in map(mpmath.mpc, b.zeros))
            exact = (1 - bt_sq) / (1 - abs(t) ** 2)
        assert abs(float(np.vdot(e, e).real / exact) - 1.0) <= 1e-14


def test_eigen_residual_in_reference_basis():
    rng = np.random.default_rng(103)
    cb = random_clark_basis(rng)
    onb = reference_onb(cb.theta)
    u = clark_operator_matrix(cb.theta, cb.params, onb)
    for e in basis_elements(cb.basis):
        x = np.array([inner_product(e, v) for v in basis_elements(onb)])
        kappa = np.conj(x) @ u @ x  # x is a unit vector
        assert abs(abs(kappa) - 1.0) < 1e-8
        assert np.linalg.norm(u @ x - kappa * x) < 1e-8
