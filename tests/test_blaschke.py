import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_space_lab.blaschke import (
    BlaschkeProduct,
    DegenerateRootError,
    PoleEvaluationError,
    boundary_kernel_norm_sq,
    cubic_coefficients,
    level_set,
    polynomial_pair,
)

from conftest import oracle_circle_mean, oracle_kernel_values


def test_f1_point_values(f1):
    assert f1(0.0) == 0.0
    assert f1(1.0) == pytest.approx(1.0)
    assert f1(1j) == pytest.approx(-1j)
    assert f1.order == 3


def test_f2_value_at_one(f2):
    # Hand expansion: (0.5/0.5) * 1 * (1.5/1.5) = 1.
    assert f2(1.0) == pytest.approx(1.0, abs=1e-14)


def test_eval_vectorized_matches_scalar(f2):
    z = np.array([0.3 + 0.1j, -0.2j, 0.9])
    vec = f2(z)
    for zi, vi in zip(z, vec):
        assert f2(complex(zi)) == pytest.approx(vi)


def test_pole_evaluation_rejected(f2):
    with pytest.raises(PoleEvaluationError):
        f2(2.0)  # pole at 1/conj(0.5)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        BlaschkeProduct(zeros=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        BlaschkeProduct(zeros=(0.2,), front_constant=2.0)
    with pytest.raises(ValueError):
        BlaschkeProduct(zeros=())


@settings(max_examples=60, deadline=None)
@given(
    phis=st.lists(st.floats(0, 2 * np.pi), min_size=1, max_size=4),
    radii=st.lists(st.floats(0, 0.95), min_size=1, max_size=4),
    arg=st.floats(0, 2 * np.pi),
)
def test_unimodular_on_circle(phis, radii, arg):
    k = min(len(phis), len(radii))
    zeros = [r * np.exp(1j * p) for r, p in zip(radii[:k], phis[:k])]
    b = BlaschkeProduct(zeros=zeros)
    z = np.exp(1j * arg)
    assert abs(abs(b(z)) - 1.0) < 1e-10


def test_polynomial_pair_reproduces_product(f2):
    num, den = polynomial_pair(f2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = 0.7 * (rng.random() + 1j * rng.random())
        ratio = np.polyval(num[::-1], z) / np.polyval(den[::-1], z)
        assert ratio == pytest.approx(f2(z))


# -- level sets --------------------------------------------------------------


def test_level_set_cube_roots_of_unity(f1):
    eta = level_set(f1, 1.0)
    expected = np.array([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    np.testing.assert_allclose(eta, expected, atol=1e-12)


def test_level_set_cube_roots_of_minus_one(f1):
    eta = level_set(f1, -1.0)
    expected = np.array([np.exp(1j * np.pi / 3), -1.0, np.exp(5j * np.pi / 3)])
    np.testing.assert_allclose(eta, expected, atol=1e-12)


def test_level_set_f2_contains_one(f2):
    # B(1) = 1, so eta = 1 must appear in the omega = 1 level set.
    eta = level_set(f2, 1.0)
    assert np.min(np.abs(eta - 1.0)) < 1e-10


def test_level_set_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(100):
        order = int(rng.integers(1, 5))
        zeros = [
            0.85 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            for _ in range(order)
        ]
        c = np.exp(2j * np.pi * rng.random())
        omega = np.exp(2j * np.pi * rng.random())
        b = BlaschkeProduct(zeros=zeros, front_constant=c)
        eta = level_set(b, omega)
        assert len(eta) == order
        np.testing.assert_allclose(np.abs(b(eta) - omega), 0, atol=1e-10)
        np.testing.assert_allclose(np.abs(eta), 1.0, atol=1e-12)
        args = np.angle(eta) % (2 * np.pi)
        assert np.all(np.diff(args) > 0) or order == 1
        for i in range(order):
            for j in range(i + 1, order):
                assert abs(eta[i] - eta[j]) > 1e-8


def test_level_set_rejects_nonunimodular_target(f1):
    with pytest.raises(ValueError):
        level_set(f1, 0.5)


# -- cubic coefficients ------------------------------------------------------


def test_cubic_coefficients_f1(f1):
    assert cubic_coefficients(f1) == (1.0, 0.0, 0.0, 1.0)


def test_cubic_coefficients_f2(f2):
    k0, k1, k2, k3 = cubic_coefficients(f2)
    assert k0 == pytest.approx(1.0)
    assert k1 == pytest.approx(-0.25)
    assert k2 == pytest.approx(-0.25)
    assert k3 == pytest.approx(1.0)


def test_cubic_roots_match_level_set():
    # Oracle: companion-matrix roots of the cleared cubic, found by np.roots
    # on the hand-assembled coefficients, must coincide with level_set(b, 1).
    rng = np.random.default_rng(2024)
    for _ in range(50):
        zeros = [
            0.85 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            for _ in range(3)
        ]
        b = BlaschkeProduct(zeros=zeros)
        k0, k1, k2, k3 = cubic_coefficients(b)
        roots = np.roots([k3, -k2, k1, -k0])
        eta = level_set(b, 1.0)
        for r in roots:
            assert np.min(np.abs(eta - r)) < 1e-10


def test_cubic_coefficients_requires_unit_constant():
    b = BlaschkeProduct(zeros=(0.1, 0.2, 0.3), front_constant=1j)
    with pytest.raises(ValueError):
        cubic_coefficients(b)


def test_cubic_coefficients_requires_order_three():
    b = BlaschkeProduct(zeros=(0.1, 0.2))
    with pytest.raises(ValueError):
        cubic_coefficients(b)


# -- boundary kernel norms ---------------------------------------------------


def test_boundary_kernel_norm_f1(f1):
    assert boundary_kernel_norm_sq(f1, 1.0) == pytest.approx(3.0, abs=1e-12)


def test_boundary_kernel_norm_matches_quadrature(f2):
    # Independent oracle: quadrature of |k_zeta|^2 with the kernel evaluated
    # straight from its defining formula.
    rng = np.random.default_rng(11)
    for _ in range(10):
        zeta = np.exp(2j * np.pi * rng.random())
        val = oracle_circle_mean(
            lambda z: np.abs(oracle_kernel_values(f2, zeta, z)) ** 2, n=8192
        )
        assert boundary_kernel_norm_sq(f2, zeta) == pytest.approx(
            float(np.real(val)), abs=1e-9
        )


def test_boundary_kernel_norm_rejects_interior_point(f2):
    with pytest.raises(ValueError):
        boundary_kernel_norm_sq(f2, 0.5)
