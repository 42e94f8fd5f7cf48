import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_space_lab.blaschke import (
    BlaschkeProduct,
    PoleEvaluationError,
    clark_unitaries,
    conjugation_matrix,
    kernel_pairs,
    level_set,
    products_at,
    tmw_rows,
)

from model_space_lab.modelspace import KThetaElement, OrthonormalBasis

from conftest import (
    oracle_circle_mean,
    oracle_conjugation_matrix_mp,
    oracle_inner,
    oracle_kernel_values,
)
from oracles import cubic_coefficients


def tmw_values(b, z):
    """e(z) of b's TMW basis, shape ``(n,) + np.shape(z)``: ``tmw_rows`` on the product's zeros."""
    z = np.asarray(z, dtype=complex)
    return tmw_rows(b.stack.zeros, z.reshape(1, -1))[0].reshape((b.order,) + z.shape)


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


def test_every_point_evaluation_guards_the_poles(f2):
    # The product, the TMW values (so a basis) and an element all divide by the
    # factors 1 - conj(w_k) z: each refuses the pole instead of returning inf or NaN.
    message = re.escape("1/conj(%r)" % complex(0.5))
    evaluations = (f2, lambda z: tmw_values(f2, z), OrthonormalBasis(f2, np.eye(3)), KThetaElement(f2, (1, 0, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in evaluations:
            with pytest.raises(PoleEvaluationError, match=message):
                evaluate(2.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_pole_guard_names_each_zero(k):
    # One guard per call covers every zero, point and row of a stack.
    zeros = (0.5 + 0.1j, -0.3j, -0.6 + 0.2j)
    pole = 1.0 / np.conj(zeros[k])
    message = re.escape("1/conj(%r)" % zeros[k])
    b = BlaschkeProduct(zeros, np.exp(0.3j))
    with pytest.raises(PoleEvaluationError, match=message):
        b(np.array([0.2, pole * (1.0 + 1e-16), -0.1j]))
    stack = np.array([[0.1, 0.2, 0.3], zeros])
    with pytest.raises(PoleEvaluationError, match=message):
        products_at(stack, np.ones(2, dtype=complex), np.array([[0.0, 0.5], [pole, 0.5]]))


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


def test_tmw_values_orthonormal_and_reproducing(f2):
    # Quadrature oracle: the e_k are orthonormal, and conj(e(lam)) are the
    # coordinates of the kernel k_lam, i.e. sum_k conj(e_k(lam)) e_k(z) = k_lam(z).
    b = BlaschkeProduct((0.5, 0.5, -0.3j), front_constant=np.exp(0.4j))
    for prod in (f2, b):
        gram = [
            [oracle_inner(lambda z: tmw_values(prod, z)[i], lambda z: tmw_values(prod, z)[j])
             for j in range(3)]
            for i in range(3)
        ]
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
        lam, z = 0.3 - 0.6j, np.array([0.0, 0.4j, -0.7 + 0.1j])
        np.testing.assert_allclose(
            np.conj(tmw_values(prod, lam)) @ tmw_values(prod, z),
            oracle_kernel_values(prod, lam, z),
            atol=1e-12,
        )


# -- the conjugation matrix --------------------------------------------------


def random_product(rng, order, max_radius):
    zeros = max_radius * np.sqrt(rng.random(order)) * np.exp(2j * np.pi * rng.random(order))
    return BlaschkeProduct(tuple(zeros), np.exp(2j * np.pi * rng.random()))


def tmw_formula(b, j, z):
    """e_j(z) from its defining product, without the library."""
    out = np.sqrt(1.0 - abs(b.zeros[j]) ** 2) / (1.0 - np.conj(b.zeros[j]) * z)
    for w in b.zeros[:j]:
        out = out * (z - w) / (1.0 - np.conj(w) * z)
    return out


def test_conjugation_matrix_matches_quadrature(f2):
    # Quadrature oracle: (J e(lam))_j = <C k_lam, e_j> with C f = B conj(z f)
    # on the circle.
    rng = np.random.default_rng(11)
    products = [f2] + [random_product(rng, n, 0.85) for n in (2, 3, 3, 4)]
    for b in products:
        for lam in (0.0, 0.4 - 0.3j, -0.7j):
            def conj_kernel(z, b=b, lam=lam):
                return b(z) * np.conj(z * oracle_kernel_values(b, lam, z))

            expected = [
                oracle_inner(conj_kernel, lambda z, j=j: tmw_formula(b, j, z))
                for j in range(b.order)
            ]
            got = kernel_pairs(*b.stack[:2], np.array([[lam]], dtype=complex))[1][0, :, 0]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            # the closed form and J e(lam) are two roundings of one vector
            j_e = conjugation_matrix(b) @ tmw_values(b, lam)
            np.testing.assert_allclose(got, j_e, rtol=0, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_conjugation_matrix_structure(order):
    # C is an antilinear involution (J conj(J) = I), J is symmetric, and
    # C A_z C = A_z^* reads J conj(Z) = Z^H J.
    rng = np.random.default_rng(order)
    for _ in range(20):
        b = random_product(rng, order, 0.9999)
        j, z = conjugation_matrix(b), b.stack.shift[0]
        np.testing.assert_allclose(j @ np.conj(j), np.eye(order), rtol=0, atol=1e-12)
        np.testing.assert_allclose(j, j.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(j @ np.conj(z), np.conj(z.T) @ j, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_clark_unitary_closed_forms_at_the_origin(order):
    # clark_unitaries takes e(0), C k_0 = S*B and B(0) in closed form; they must
    # agree with k_0 (x) C k_0 built from tmw_values and J e(0), and with the
    # closed form C k_0 of kernel_pairs.
    rng = np.random.default_rng(order)
    products = [random_product(rng, order, 0.95) for _ in range(10)]
    products.append(BlaschkeProduct((0.4 - 0.3j,) * order, np.exp(1.1j)))
    products.append(BlaschkeProduct((0.0,) * order))
    for b in products:
        omega = np.exp(2j * np.pi * rng.random())
        e0 = tmw_values(b, 0.0)
        closed_form = kernel_pairs(*b.stack[:2], np.zeros((1, 1), complex))[1][0, :, 0]
        for ck0 in (conjugation_matrix(b) @ e0, closed_form):
            expected = b.stack.shift[0] + np.outer(np.conj(e0), np.conj(ck0)) / np.conj(
                omega - b(0.0)
            )
            got = clark_unitaries(b.stack, np.array([complex(omega)]))[0]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_conjugation_matrix_of_a_power_is_exact():
    # Equal zeros swap to the same basis: for B = c z^3, C e_k = c e_{2-k}.
    # The reversed zeros are the zeros and e(z) = (1, z, z^2), so the closed
    # form C k_z = c (z^2, z, 1) has no rounding beyond the products.
    c = np.exp(0.7j)
    j = conjugation_matrix(BlaschkeProduct((0.0, 0.0, 0.0), c))
    np.testing.assert_array_equal(j, c * np.eye(3)[::-1])
    z = np.array([0.0, 0.5, -0.3 + 0.4j, np.exp(2.1j)])
    got = kernel_pairs(*BlaschkeProduct((0.0, 0.0, 0.0), c).stack[:2], z[None])[1][0]
    np.testing.assert_array_equal(got, c * np.array([z * z, z, np.ones_like(z)]))


@pytest.mark.parametrize(
    "zeros",
    [
        (0.999 * np.exp(2.0j),) * 3,
        (0.9999 * np.exp(-1.1j),) * 3,
        (0.99 * np.exp(0.3j), 0.99 * np.exp(0.301j), 0.4 - 0.2j),
    ],
    ids=["triple-0.999", "triple-0.9999", "near-pair"],
)
def test_conjugation_matrix_matches_mpmath_oracle(zeros):
    b = BlaschkeProduct(zeros, np.exp(0.4j))
    oracle = oracle_conjugation_matrix_mp(b)
    np.testing.assert_allclose(conjugation_matrix(b), oracle, rtol=0, atol=1e-12)
    # C k_z of kernel_pairs at interior and circle points, the circle ones
    # including the point nearest the zeros, where |e(eta)|^2 = |B'(eta)| peaks
    near = zeros[0] / abs(zeros[0])
    z = np.array([0.0, 0.5, -0.3 + 0.4j, 0.6j, near, near * np.exp(0.01j), -near])
    got = kernel_pairs(*b.stack[:2], z[None])[1][0]
    np.testing.assert_allclose(got, oracle @ tmw_values(b, z), rtol=0, atol=1e-12)


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


# -- boundary kernel norms ---------------------------------------------------


def _norm_sq(b, zeta):
    """||k_zeta||^2 = ||e(zeta)||^2, as the Clark chain takes it from its TMW pass."""
    return float(np.sum(np.abs(tmw_rows(b.stack.zeros, np.array([[zeta]]))) ** 2))


def test_boundary_kernel_norm_f1(f1):
    assert _norm_sq(f1, 1 + 0j) == pytest.approx(3.0, abs=1e-12)


def test_boundary_kernel_norm_matches_quadrature(f2):
    # Independent oracle: quadrature of |k_zeta|^2 with the kernel evaluated
    # straight from its defining formula.
    rng = np.random.default_rng(11)
    for _ in range(10):
        zeta = np.exp(2j * np.pi * rng.random())
        val = oracle_circle_mean(
            lambda z: np.abs(oracle_kernel_values(f2, zeta, z)) ** 2, n=8192
        )
        assert _norm_sq(f2, zeta) == pytest.approx(float(np.real(val)), abs=1e-9)
