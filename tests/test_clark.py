import numpy as np
import pytest

from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.clark import (
    ClarkParams,
    ClarkTargetError,
    clark_operator_matrix,
    clark_target,
    half_arg_root,
    modified_clark_basis,
)
from model_space_lab.modelspace import (
    conjugation_residual,
    inner_product,
    kernel_element,
    reference_onb,
)
from model_space_lab.sampling import random_clark_basis

from conftest import oracle_clark_mp

W3 = np.exp(2j * np.pi / 3)


def test_half_arg_root_convention():
    assert half_arg_root(1.0) == pytest.approx(1.0)
    # arg(-i) taken in [0, 2*pi) is 3*pi/2, so the root is exp(3i*pi/4).
    assert half_arg_root(-1j) == pytest.approx(np.exp(0.75j * np.pi))
    assert half_arg_root(np.conj(W3)) == pytest.approx(W3)


def test_half_arg_root_continuous_at_branch_cut():
    # A level-set point computed as 1 - 1e-16i is the point 1, not the end of
    # [0, 2*pi): its root is 1, as on the other side of the axis, not -1.
    assert half_arg_root(1 - 1e-16j) == pytest.approx(1.0)
    assert half_arg_root(1 + 1e-16j) == pytest.approx(1.0)


def test_clark_target_trivial(f1):
    assert clark_target(f1, ClarkParams(0.0, 1.0)) == pytest.approx(1.0)


def test_clark_target_unimodular(f2):
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = ClarkParams(
            0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()),
            np.exp(2j * np.pi * rng.random()),
        )
        assert abs(abs(clark_target(f2, p)) - 1.0) < 1e-12


def test_clark_target_degenerate_pair_rejected(f1):
    # The denominator 1 + conj(B(t)) alpha can only vanish when |B(t)| -> 1,
    # i.e. t squeezed against the circle with alpha opposing B(t).
    t = 1.0 - 1e-13
    with pytest.raises(ClarkTargetError):
        clark_target(f1, ClarkParams(t, -1.0))


# -- the F1 golden basis -----------------------------------------------------


def test_f1_clark_basis_golden_values(f1):
    cb = modified_clark_basis(f1, ClarkParams(0.0, 1.0))
    np.testing.assert_allclose(cb.omega, 1.0, atol=1e-14)
    np.testing.assert_allclose(cb.etas, [1.0, W3, W3**2], atol=1e-12)
    np.testing.assert_allclose(cb.phases, [1.0, W3, np.exp(1j * np.pi / 3)], atol=1e-12)
    np.testing.assert_allclose(cb.norms, np.sqrt(3.0) * np.ones(3), atol=1e-12)
    np.testing.assert_allclose(
        cb.basis.elements[0].numerator, np.ones(3) / np.sqrt(3), atol=1e-12
    )
    np.testing.assert_allclose(
        cb.basis.elements[1].numerator,
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
        for i, e in enumerate(cb.basis.elements):
            for j in range(3):
                if j != i:
                    assert abs(e(cb.etas[j])) < 1e-8
        # phase^2 = conj(eta) * omega is what makes the vectors conjugation-fixed
        np.testing.assert_allclose(
            cb.phases**2, np.conj(cb.etas) * cb.omega, atol=1e-12
        )


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
        etas, norms, values = oracle_clark_mp(b, params.t, params.alpha, z)
        np.testing.assert_allclose(cb.etas, etas, rtol=0, atol=1e-10)
        np.testing.assert_allclose(cb.norms, norms, rtol=1e-9)
        np.testing.assert_allclose(cb.basis(z), values, rtol=0, atol=1e-10)


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
    x = np.array([inner_product(k1, v) for v in onb.elements])
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


def test_eigen_residual_in_reference_basis():
    rng = np.random.default_rng(103)
    cb = random_clark_basis(rng)
    onb = reference_onb(cb.theta)
    u = clark_operator_matrix(cb.theta, cb.params, onb)
    for e in cb.basis.elements:
        x = np.array([inner_product(e, v) for v in onb.elements])
        kappa = np.conj(x) @ u @ x  # x is a unit vector
        assert abs(abs(kappa) - 1.0) < 1e-8
        assert np.linalg.norm(u @ x - kappa * x) < 1e-8
