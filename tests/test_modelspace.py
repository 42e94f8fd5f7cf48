import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.modelspace import (
    BasisError,
    KThetaElement,
    conjugation_residual,
    coordinates,
    gram_matrix,
    inner_product,
    kernel_element,
)

from conftest import oracle_inner, oracle_kernel_values
from oracles import basis_elements, basis_from_elements, conjugate, random_blaschke, reference_onb

coeff = st.complex_numbers(min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False)


def test_constant_element_evaluation(f1):
    f = KThetaElement(f1, (1.0, 0.0, 0.0))
    assert f(0.5) == pytest.approx(1.0)


def test_monomial_element_evaluation(f2):
    f = KThetaElement(f2, (0.0, 1.0, 0.0))
    assert f(0.0) == 0.0
    # z / ((1 - 0.5 z)(1 + 0.5 z)) at z = 0.4
    assert f(0.4) == pytest.approx(0.4 / ((1 - 0.2) * (1 + 0.2)))


def test_wrong_coefficient_count_rejected(f2):
    with pytest.raises(ValueError):
        KThetaElement(f2, (1.0, 2.0))


# -- inner products ----------------------------------------------------------


def test_monomials_orthonormal_for_f1(f1):
    e0 = KThetaElement(f1, (1, 0, 0))
    e1 = KThetaElement(f1, (0, 1, 0))
    assert inner_product(e0, e0) == pytest.approx(1.0, abs=1e-14)
    assert inner_product(e0, e1) == pytest.approx(0.0, abs=1e-14)


def test_geometric_series_norm():
    # f = 1/(1 - 0.5 z) has Taylor coefficients 0.5^k, so <f, f> = 4/3.
    b = BlaschkeProduct(zeros=(0.5, 0.0, 0.0))
    f = KThetaElement(b, (1, 0, 0))
    assert inner_product(f, f) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_near_circle_zero_norm_exact():
    # f = 1/(1 - w z) with w = 0.999 has <f, f> = 1/(1 - w^2). The zero sits
    # close enough to the circle that a uniform grid of a few thousand points
    # does not resolve the integrand; the exact inner product must still agree.
    w = 0.999
    b = BlaschkeProduct(zeros=(w, 0.0, 0.0))
    f = KThetaElement(b, (1, 0, 0))
    assert inner_product(f, f) == pytest.approx(1.0 / (1.0 - w * w), abs=1e-12)


def test_inner_product_matches_oracle(f2):
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = KThetaElement(f2, tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        g = KThetaElement(f2, tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        assert inner_product(f, g) == pytest.approx(complex(oracle_inner(f, g)), abs=1e-11)


def test_inner_product_conjugate_linear_in_second_argument(f2):
    f = KThetaElement(f2, (1, 2j, 0))
    g = KThetaElement(f2, (0.5, -1, 3))
    lhs = inner_product(f, KThetaElement(f2, (2 - 1j) * np.array(g.numerator)))
    assert lhs == pytest.approx(np.conj(2 - 1j) * inner_product(f, g))


# -- reproducing kernels -----------------------------------------------------


def test_kernel_at_origin(f1):
    k = kernel_element(f1, 0.0)
    assert k.numerator == (1.0, 0.0, 0.0)


def test_kernel_at_half(f1):
    k = kernel_element(f1, 0.5)
    np.testing.assert_allclose(k.numerator, (1.0, 0.5, 0.25), atol=1e-14)


def test_kernel_at_boundary_point(f1):
    k = kernel_element(f1, 1.0)
    np.testing.assert_allclose(k.numerator, (1.0, 1.0, 1.0), atol=1e-12)


def test_kernel_matches_defining_formula(f2):
    rng = np.random.default_rng(17)
    zs = 0.7 * (rng.standard_normal(40) + 1j * rng.standard_normal(40)) / 2
    for _ in range(10):
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        k = kernel_element(f2, lam)
        np.testing.assert_allclose(
            k(zs), oracle_kernel_values(f2, lam, zs), atol=1e-12
        )


def test_reproducing_property(f2):
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = KThetaElement(f2, tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        k = kernel_element(f2, lam)
        assert inner_product(f, k) == pytest.approx(f(lam), abs=1e-11)


def test_kernel_point_outside_closed_disc_rejected(f2):
    with pytest.raises(ValueError):
        kernel_element(f2, 1.5)


# -- conjugation -------------------------------------------------------------


def test_conjugate_coefficients_example(f1):
    f = KThetaElement(f1, (1j, 2.0, 0.0))
    assert conjugate(f).numerator == (0.0, 2.0, -1j)


def test_conjugate_matches_boundary_formula(f2):
    # Defining action on the circle: (C f)(zeta) = B(zeta) * conj(zeta * f(zeta)).
    rng = np.random.default_rng(31)
    f = KThetaElement(f2, (0.3 - 1j, 2.0, 0.25j))
    g = conjugate(f)
    zeta = np.exp(2j * np.pi * rng.random(200))
    np.testing.assert_allclose(
        g(zeta), f2(zeta) * np.conj(zeta * f(zeta)), atol=1e-12
    )


def test_conjugate_boundary_formula_with_front_constant():
    b = BlaschkeProduct(zeros=(0.4j, -0.1, 0.2), front_constant=np.exp(0.7j))
    f = KThetaElement(b, (1.0, -2j, 0.5))
    g = conjugate(f)
    zeta = np.exp(2j * np.pi * np.random.default_rng(1).random(200))
    np.testing.assert_allclose(g(zeta), b(zeta) * np.conj(zeta * f(zeta)), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=coeff, b=coeff, c=coeff)
def test_conjugate_is_involutive(f2, a, b, c):
    f = KThetaElement(f2, (a, b, c))
    g = conjugate(conjugate(f))
    np.testing.assert_allclose(g.numerator, f.numerator, atol=1e-14)


def test_conjugate_is_isometric_and_antilinear(f2):
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = KThetaElement(f2, tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        g = KThetaElement(f2, tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        # <Cf, Cg> = <g, f>
        assert inner_product(conjugate(f), conjugate(g)) == pytest.approx(
            inner_product(g, f), abs=1e-11
        )
        s = 1.3 - 0.7j
        np.testing.assert_allclose(
            conjugate(KThetaElement(f2, s * np.array(f.numerator))).numerator,
            np.conj(s) * np.array(conjugate(f).numerator),
            atol=1e-14,
        )


# -- orthonormal bases -------------------------------------------------------


def test_reference_onb_f1_is_monomials(f1):
    onb = reference_onb(f1)
    assert onb.gram_residual < 1e-12
    ident = np.eye(3)
    for j, e in enumerate(basis_elements(onb)):
        np.testing.assert_allclose(e.numerator, ident[j], atol=1e-12)


def test_reference_onb_f2_gram_residual(f2):
    onb = reference_onb(f2)
    assert onb.gram_residual < 1e-12
    g = gram_matrix(basis_elements(onb))
    np.testing.assert_allclose(g, np.eye(3), atol=1e-12)


def rational(b, numerator):
    """Evaluation callable of numerator(z) / prod(1 - conj(w_i) z) from the formula."""
    num = np.asarray(numerator, dtype=complex)
    return lambda z: np.polyval(num[::-1], z) / np.prod(
        [1.0 - np.conj(w) * z for w in b.zeros], axis=0
    )


def oracle_gram_schmidt(b):
    """Numerators of Gram-Schmidt on the monomials, inner products by quadrature."""
    out = []
    for j in range(b.order):
        v = np.eye(b.order, dtype=complex)[j]
        for u in out:
            v = v - oracle_inner(rational(b, v), rational(b, u)) * u
        out.append(v / np.sqrt(oracle_inner(rational(b, v), rational(b, v)).real))
    return out


@pytest.mark.parametrize("case", ["f2", "random-1", "random-2"])
def test_reference_onb_matches_quadrature_gram_schmidt(f2, case):
    b = f2 if case == "f2" else random_blaschke(np.random.default_rng(int(case[-1])))
    onb = reference_onb(b)
    for e, expected in zip(basis_elements(onb), oracle_gram_schmidt(b)):
        np.testing.assert_allclose(e.numerator, expected, atol=1e-10)


def test_basis_values_at_points(f2):
    onb = reference_onb(f2)
    rng = np.random.default_rng(71)
    z = 0.9 * (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / 2
    vals = onb(z)
    assert vals.shape == (3, 7)
    np.testing.assert_allclose(vals, [e(z) for e in basis_elements(onb)], atol=1e-14)
    np.testing.assert_allclose(
        vals, [rational(f2, e.numerator)(z) for e in basis_elements(onb)], atol=1e-12
    )
    np.testing.assert_allclose(onb(z[0]), vals[:, 0], atol=1e-14)


def test_basis_records_coordinates_and_residuals(f2):
    onb = reference_onb(f2)
    np.testing.assert_allclose(onb.coords, coordinates(f2, basis_elements(onb)), atol=1e-14)
    assert onb.gram_residual == pytest.approx(
        np.linalg.norm(gram_matrix(basis_elements(onb)) - np.eye(3)), abs=1e-15
    )
    assert onb.conj_residual == conjugation_residual(onb)


def test_basis_constructor_rejects_non_orthonormal(f2):
    raw = [
        KThetaElement(f2, (1, 0, 0)),
        KThetaElement(f2, (0, 1, 0)),
        KThetaElement(f2, (0, 0, 1)),
    ]
    with pytest.raises(BasisError):
        basis_from_elements(raw)


def test_kernels_reconstruct_from_reference_onb(f2):
    # Completeness: P f = sum_j <f, v_j> v_j recovers every kernel element.
    onb = reference_onb(f2)
    rng = np.random.default_rng(53)
    for _ in range(100):
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        k = kernel_element(f2, lam)
        recon = np.zeros(3, dtype=complex)
        for v in basis_elements(onb):
            recon += inner_product(k, v) * np.asarray(v.numerator)
        np.testing.assert_allclose(recon, k.numerator, atol=1e-10)


def test_conjugation_residual_of_monomials(f1):
    # For z^3 the monomial basis is NOT conjugation-fixed: C swaps 1 and z^2.
    onb = reference_onb(f1)
    assert conjugation_residual(onb) > 0.5
