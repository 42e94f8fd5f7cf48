import numpy as np
import pytest

from model_space_lab import so3solver
from model_space_lab.clark import ClarkParams, modified_clark_basis
from model_space_lab.modelspace import conjugation_residual
from model_space_lab.repcheck import Sym3, clark_s6_test, counterexample_family, relation_weight
from model_space_lab.sampling import random_clark_basis
from model_space_lab.so3solver import (
    OrthMatrix3,
    SolverConfig,
    _relation,
    _rotation,
    conjugate_representation,
    creal_basis_from_orthogonal,
    solve,
    spectral_shortcut,
)
from model_space_lab.tto import Symbol, random_tto, tto_matrix_from_symbol

from oracles import basis_elements, random_special_orthogonal, residuals


@pytest.fixture(scope="module")
def f1_clark(f1):
    return modified_clark_basis(f1, ClarkParams(0.0, 1.0))


def random_sym3(rng, scale=1.0):
    vals = scale * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    return Sym3(*vals)


IDENTITY = OrthMatrix3.from_array(np.eye(3))


# -- OrthMatrix3 --------------------------------------------------------------


def test_orth_matrix_validation():
    OrthMatrix3.from_array(np.diag([1.0, -1.0, 1.0]))  # reflection allowed
    with pytest.raises(ValueError):
        OrthMatrix3.from_array(np.eye(3) * 1.001)
    with pytest.raises(ValueError):
        OrthMatrix3((1, 0, 0, 0, 1, 0, 0, 0))  # wrong length


# -- basis generation ---------------------------------------------------------


def test_identity_returns_clark_basis(f1_clark):
    basis = creal_basis_from_orthogonal(f1_clark, IDENTITY)
    for new, old in zip(basis_elements(basis), basis_elements(f1_clark.basis)):
        np.testing.assert_allclose(new.numerator, old.numerator, atol=1e-14)


def test_rotation_gives_creal_basis(f1_clark):
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    u = OrthMatrix3.from_array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    basis = creal_basis_from_orthogonal(f1_clark, u)
    assert basis.gram_residual < 1e-10
    assert conjugation_residual(basis) < 1e-8


def test_random_rotations_stay_creal():
    rng = np.random.default_rng(3)
    cb = random_clark_basis(rng)
    for _ in range(3):
        u = OrthMatrix3.from_array(random_special_orthogonal(rng))
        basis = creal_basis_from_orthogonal(cb, u)
        assert conjugation_residual(basis) < 1e-8


def test_representation_transforms_contravariantly():
    # Same operator, two bases: matrices must differ by U^T [.] U.
    rng = np.random.default_rng(5)
    cb = random_clark_basis(rng)
    u = OrthMatrix3.from_array(random_special_orthogonal(rng))
    rotated = creal_basis_from_orthogonal(cb, u)
    _, m_cb = random_tto(cb.theta, cb.basis, seed=77)
    _, m_rot = random_tto(cb.theta, rotated, seed=77)
    expected = u.array.T @ m_cb.array @ u.array
    np.testing.assert_allclose(m_rot.array, expected, atol=1e-8)


# -- conjugation --------------------------------------------------------------


def test_conjugation_identity_and_permutation():
    rng = np.random.default_rng(7)
    s = random_sym3(rng)
    np.testing.assert_allclose(
        conjugate_representation(s, IDENTITY).array, s.array, atol=1e-14
    )
    perm = OrthMatrix3.from_array([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    out = conjugate_representation(Sym3(1, 2, 3, 0, 0, 0), perm)
    np.testing.assert_allclose(out.array, np.diag([2.0, 1.0, 3.0]), atol=1e-14)


def test_off_diagonal_entries_match_literal_polynomials():
    # The three off-diagonal entries of U S U^T written out monomial by
    # monomial.  This pins the row-major variable layout.
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_sym3(rng)
        u = OrthMatrix3.from_array(random_special_orthogonal(rng))
        m1, m2, m3, m4, m5, m6 = s.vector
        r1, r2, r3, r4, r5, r6, r7, r8, r9 = u.r
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
        out = conjugate_representation(s, u)
        assert out.s4 == pytest.approx(a4, abs=1e-12)
        assert out.s5 == pytest.approx(a5, abs=1e-12)
        assert out.s6 == pytest.approx(a6, abs=1e-12)


def test_conjugation_preserves_symmetry_exactly():
    rng = np.random.default_rng(13)
    for _ in range(5):
        s = random_sym3(rng)
        u = OrthMatrix3.from_array(random_special_orthogonal(rng))
        m = conjugate_representation(s, u).array
        assert np.abs(m - m.T).max() < 1e-14


# -- residuals ----------------------------------------------------------------


def test_residuals_diagonal_matrix(f1_clark):
    orth, rel = residuals(Sym3(1, 2j, -3, 0, 0, 0), IDENTITY, f1_clark)
    assert orth < 1e-12
    assert rel == 0.0


def test_residuals_satisfied_relation(f1, f1_clark):
    m = tto_matrix_from_symbol(f1, Symbol.shift(), f1_clark.basis)
    s = Sym3.from_array(m.array, tol=1e-8)
    _, rel = residuals(s, IDENTITY, f1_clark)
    assert rel < 1e-12


def test_residuals_family_three_is_sqrt3(f1_clark):
    s = counterexample_family(3, 0, 0, 0)
    _, rel = residuals(s, IDENTITY, f1_clark)
    assert rel == pytest.approx(np.sqrt(3), abs=1e-12)


# -- local solver pieces ------------------------------------------------------


@pytest.mark.parametrize("angle", [0.0, 1e-8, 1.0, np.pi])
def test_rotation_matches_exponential_series(angle):
    axis = np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25)
    w = angle * axis
    k = np.cross(w, np.eye(3)).T  # column j is w x e_j
    series, term = np.eye(3), np.eye(3)
    for n in range(1, 30):
        term = term @ k / n
        series = series + term
    np.testing.assert_allclose(_rotation(w), series, rtol=0, atol=1e-14)
    np.testing.assert_allclose(_rotation(w) @ w, w, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", ["complex", "real-family"])
def test_relation_jacobian_matches_finite_differences(kind):
    # Column k is the derivative of (Re r, Im r) along U <- exp(h [e_k]x) U.
    rng = np.random.default_rng(41)
    cb = random_clark_basis(rng)
    if kind == "complex":
        s = random_sym3(rng)
    else:
        s = counterexample_family(2, *rng.standard_normal(3))
    weight = relation_weight(cb)
    h = 1e-6
    for _ in range(3):
        u = random_special_orthogonal(rng)
        _, jac = _relation(weight, s.array, u)
        fd = np.column_stack(
            [
                (
                    _relation(weight, s.array, _rotation(h * e) @ u)[0]
                    - _relation(weight, s.array, _rotation(-h * e) @ u)[0]
                )
                / (2 * h)
                for e in np.eye(3)
            ]
        )
        np.testing.assert_allclose(jac, fd, rtol=1e-6)


def test_solve_refines_through_module_least_squares(f1_clark, monkeypatch):
    # solve looks least_squares up as a module global (the benchmark tracer
    # replaces it there), and each call spends at most MAX_EVALS evaluations.
    original = so3solver.least_squares
    evals = []

    def counting(fun, u0):
        calls = []

        def counted(u):
            calls.append(u)
            return fun(u)

        u = original(counted, u0)
        evals.append(len(calls))
        return u

    monkeypatch.setattr(so3solver, "least_squares", counting)
    s = random_sym3(np.random.default_rng(43))
    with monkeypatch.context() as m:
        m.setattr(so3solver, "MAX_EVALS", 3)
        report = solve(s, f1_clark, SolverConfig(starts=3))
    assert not report.found
    assert evals == [3, 3, 3]
    report = solve(s, f1_clark, SolverConfig(starts=3))
    assert report.found
    assert len(evals) == 3 + report.starts_used


# -- spectral shortcut --------------------------------------------------------


def test_spectral_shortcut_diagonal():
    u = spectral_shortcut(Sym3(1, 2, 3, 0, 0, 0))
    out = conjugate_representation(Sym3(1, 2, 3, 0, 0, 0), u)
    np.testing.assert_allclose(
        sorted((out.s1.real, out.s2.real, out.s3.real)), [1, 2, 3], atol=1e-10
    )
    assert abs(out.s4) + abs(out.s5) + abs(out.s6) < 1e-10


def test_spectral_shortcut_family_three():
    s = counterexample_family(3, 0, 0, 0)
    u = spectral_shortcut(s)
    out = conjugate_representation(s, u)
    np.testing.assert_allclose(
        sorted((out.s1.real, out.s2.real, out.s3.real)), [-1, 0, 1], atol=1e-10
    )
    assert np.linalg.det(u.array) == pytest.approx(1.0, abs=1e-10)


def test_spectral_shortcut_random_real_symmetric():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = rng.standard_normal((3, 3))
        s = Sym3.from_array(m + m.T)
        out = conjugate_representation(s, spectral_shortcut(s)).array
        assert np.abs(out - np.diag(np.diag(out))).max() < 1e-10


def test_spectral_shortcut_declines_complex_input():
    assert spectral_shortcut(Sym3(1j, 0, 0, 0, 0, 0)) is None


# -- solve --------------------------------------------------------------------


def test_solve_diagonal_found_at_identity(f1_clark):
    report = solve(Sym3(1 + 1j, -2, 0.5j, 0, 0, 0), f1_clark)
    assert report.found
    assert report.starts_used == 1
    np.testing.assert_allclose(report.best_matrix.array, np.eye(3), atol=1e-12)


def test_solve_tiny_matrix_meets_relative_tolerance(f1_clark):
    # On 1e-9 * X every rotation already leaves a residual below the absolute
    # 1e-8, so an absolute tolerance would accept the identity unoptimised.
    rng = np.random.default_rng(31)
    x = random_sym3(rng)
    assert not clark_s6_test(x, f1_clark).is_rep
    s = Sym3(*(1e-9 * x.vector))
    report = solve(s, f1_clark)
    assert report.found
    assert report.best_residual <= 1e-8 * min(1.0, np.linalg.norm(s.array))


@pytest.mark.parametrize("k", [-300, 9, 12, 50, 300])
def test_solve_verdict_invariant_under_scaling(f1_clark, k):
    # The target is tol * ||S||_F, so a large S is found as readily as a unit
    # one; an absolute target would leave it to round-off in the relation.
    x = random_sym3(np.random.default_rng(37))
    config = SolverConfig(starts=20)
    unit = solve(x, f1_clark, config)
    scaled = solve(Sym3(*(10.0**k * x.vector)), f1_clark, config)
    assert unit.found and scaled.found
    assert scaled.starts_used == unit.starts_used
    assert scaled.best_residual / 10.0**k <= 1e-8 * np.linalg.norm(x.array)


def test_solve_zero_matrix_found_at_identity(f1_clark):
    report = solve(Sym3(0, 0, 0, 0, 0, 0), f1_clark)
    assert report.found
    assert report.starts_used == 1
    assert report.best_residual == 0.0


def test_solve_round_trip_recovery():
    rng = np.random.default_rng(19)
    cb = random_clark_basis(rng)
    for k in range(3):
        _, m = random_tto(cb.theta, cb.basis, seed=500 + k)
        s0 = Sym3.from_array(m.array, tol=1e-7)
        q = OrthMatrix3.from_array(random_special_orthogonal(rng))
        s = conjugate_representation(s0, q)  # representable by construction
        report = solve(s, cb, SolverConfig(seed=k))
        assert report.found
        assert report.best_residual < 1e-8
        assert report.certificate.residual < 1e-8
        assert clark_s6_test(report.conjugated, cb).is_rep


def test_solve_counterexample_families_via_spectral_seed(f1_clark):
    # Real symmetric inputs that fail the Clark test are still representable:
    # the spectral seed hands the solver an exact diagonalizer.
    for family, (a, b, c) in ((1, (1, 2, 3)), (2, (0.3, -0.7, 2.1)), (3, (0, 0, 0))):
        s = counterexample_family(family, a, b, c)
        assert not clark_s6_test(s, f1_clark).is_rep
        report = solve(s, f1_clark)
        assert report.found
        assert report.starts_used <= 2
        assert report.certificate.residual < 1e-8


def test_solve_not_found_is_labeled(f1_clark, monkeypatch):
    # A tolerance below machine precision cannot be met, so the report must
    # fall back to the explicit budget language.
    monkeypatch.setattr(so3solver, "MAX_EVALS", 1)
    s = counterexample_family(3, 0.0, 0.0, 0.0)
    report = solve(s, f1_clark, SolverConfig(starts=1, tol=1e-30))
    assert not report.found
    assert "budget" in report.message
    assert "not a proof" in report.message


def test_solve_deterministic(f1_clark):
    rng = np.random.default_rng(23)
    s = random_sym3(rng)
    a = solve(s, f1_clark, SolverConfig(seed=42, starts=30))
    b = solve(s, f1_clark, SolverConfig(seed=42, starts=30))
    assert a == b


def test_solve_basis_independent():
    rng = np.random.default_rng(29)
    cb1 = random_clark_basis(rng)
    theta = cb1.theta
    cb2 = modified_clark_basis(theta, ClarkParams(0.21 - 0.13j, np.exp(0.9j)))
    _, m = random_tto(theta, cb1.basis, seed=901)
    s0 = Sym3.from_array(m.array, tol=1e-7)
    q = OrthMatrix3.from_array(random_special_orthogonal(rng))
    s = conjugate_representation(s0, q)
    assert solve(s, cb1, SolverConfig(seed=1)).found
    assert solve(s, cb2, SolverConfig(seed=2)).found
