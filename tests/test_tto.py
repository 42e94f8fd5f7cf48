import numpy as np
import pytest

from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.clark import ClarkParams, modified_clark_basis
from model_space_lab.config import TTO_SYM_TOL
from model_space_lab.modelspace import OrthonormalBasis
from model_space_lab.repcheck import PointConfig, Sym3, build_columns, default_points
from model_space_lab.tto import Symbol, random_tto, tto_matrix_from_symbol

from conftest import oracle_circle_mean
from oracles import (basis_elements, conjugate, random_clark_basis, random_special_orthogonal,
                     reference_onb)

W3 = np.exp(2j * np.pi / 3)


@pytest.fixture(scope="module")
def f1_clark(f1):
    return modified_clark_basis(f1, ClarkParams(0.0, 1.0))


def test_identity_symbol_gives_identity(f1):
    onb = reference_onb(f1)
    m = tto_matrix_from_symbol(f1, Symbol(((0, 1.0),)), onb)
    np.testing.assert_allclose(m.array, np.eye(3), atol=1e-12)


def test_shift_symbol_on_monomials(f1):
    onb = reference_onb(f1)
    m = tto_matrix_from_symbol(f1, Symbol.shift(), onb)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = 1.0
    np.testing.assert_allclose(m.array, expected, atol=1e-12)


def test_basis_from_another_space_rejected(f2, f1_clark):
    with pytest.raises(ValueError, match="different model space"):
        tto_matrix_from_symbol(f2, Symbol.shift(), f1_clark.basis)
    with pytest.raises(ValueError, match="different model space"):
        random_tto(f2, f1_clark.basis, seed=3)


def test_f1_golden_shift_matrix(f1, f1_clark):
    # Independent oracle: for B = z^3 the kernels are geometric sums, and
    # <z k_{eta_j}, k_{eta_i}> = eta_i + eta_i^2 conj(eta_j) by hand.
    cb = f1_clark
    m = tto_matrix_from_symbol(f1, Symbol.shift(), cb.basis).array
    bvec = cb.phases / cb.norms
    oracle = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            pairing = cb.etas[i] + cb.etas[i] ** 2 * np.conj(cb.etas[j])
            oracle[i, j] = bvec[j] * np.conj(bvec[i]) * pairing
    np.testing.assert_allclose(m, oracle, atol=1e-12)
    # Frozen golden values.
    np.testing.assert_allclose(np.diag(m), [2 / 3, 2 * W3 / 3, 2 * W3**2 / 3], atol=1e-10)
    assert m[0, 1] == pytest.approx(np.exp(1j * np.pi / 3) / 3, abs=1e-10)
    assert m[0, 2] == pytest.approx(W3 / 3, abs=1e-10)
    assert m[1, 2] == pytest.approx(1 / 3, abs=1e-10)


def oracle_block(basis, symbol):
    """Entries mean(symbol * v_j * conj(v_i)) over the circle, by quadrature."""
    v = basis_elements(basis)
    return np.array(
        [[oracle_circle_mean(lambda z: symbol(z) * v[j](z) * np.conj(v[i](z))) for j in range(3)]
         for i in range(3)]
    )


def test_symbol_matrix_symmetric_in_clark_basis():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cb = random_clark_basis(rng)
        coeffs = tuple((k, rng.standard_normal() + 1j * rng.standard_normal()) for k in range(-2, 3))
        m = tto_matrix_from_symbol(cb.theta, Symbol(coeffs), cb.basis)
        assert np.linalg.norm(m.array - m.array.T) < 1e-8
        oracle = oracle_block(cb.basis, lambda z: sum(c * z**k for k, c in coeffs))
        np.testing.assert_allclose(m.array, oracle, atol=1e-10)


def test_moebius_symbol_matches_operator_block(f1):
    # (z-t)/(1-conj(t)z) expands on the circle into a geometric trig series;
    # truncating far beyond machine precision must reproduce the compressed
    # block inside the Clark operator matrix, and both must match quadrature.
    from model_space_lab.clark import clark_operator_matrix

    rng = np.random.default_rng(19)
    bases = [modified_clark_basis(f1, ClarkParams(0.3 - 0.2j, np.exp(0.7j)))]
    bases += [random_clark_basis(rng) for _ in range(3)]
    for cb in bases:
        b, p = cb.theta, cb.params
        t = p.t
        # (z - t) * sum_k conj(t)^k z^k
        coeffs = {}
        for k in range(140):
            c = np.conj(t) ** k
            coeffs[k + 1] = coeffs.get(k + 1, 0) + c
            coeffs[k] = coeffs.get(k, 0) - t * c
        phi = Symbol(tuple(coeffs.items()))
        block = tto_matrix_from_symbol(b, phi, cb.basis).array

        u = clark_operator_matrix(b, p, cb.basis)
        bt = b(t)
        v_at = np.array([e(t) for e in basis_elements(cb.basis)])
        cv_at = np.array([conjugate(e)(t) for e in basis_elements(cb.basis)])
        weight = (p.alpha + bt) * (1 - abs(t) ** 2) / (1 - abs(bt) ** 2)
        s_block = u - weight * np.outer(np.conj(v_at), np.conj(cv_at))
        np.testing.assert_allclose(block, s_block, atol=1e-9)
        oracle = oracle_block(cb.basis, lambda z: (z - t) / (1 - np.conj(t) * z))
        np.testing.assert_allclose(s_block, oracle, atol=1e-10)
        np.testing.assert_allclose(block, oracle, atol=1e-10)


# -- generator span ----------------------------------------------------------


def test_generators_have_rank_five(f1, f1_clark):
    cols = build_columns(f1_clark.basis, default_points(f1)).columns
    assert cols.shape == (6, 5)
    sv = np.linalg.svd(cols, compute_uv=False)
    assert sv[4] > 1e-8 * sv[0]


def test_sixth_generator_stays_in_span(f1, f1_clark):
    pc = default_points(f1)
    cols = build_columns(f1_clark.basis, pc).columns
    other = PointConfig((np.exp(0.77j),) + pc.boundary[1:], pc.interior)
    extra = build_columns(f1_clark.basis, other).columns[:, :1]
    sv = np.linalg.svd(np.hstack([cols, extra]), compute_uv=False)
    assert sv[5] < 1e-8 * sv[0]


def test_identity_is_in_generator_span(f1, f1_clark):
    cols = build_columns(f1_clark.basis, default_points(f1)).columns
    target = Sym3(1, 1, 1, 0, 0, 0).vector
    mu, *_ = np.linalg.lstsq(cols, target, rcond=None)
    assert np.linalg.norm(cols @ mu - target) < 1e-10


def test_generator_distinctness_enforced(f1, f1_clark):
    pc = default_points(f1)
    bad = (pc.boundary[0], pc.boundary[0] + 1e-12, pc.boundary[2])
    with pytest.raises(ValueError):
        random_tto(f1, f1_clark.basis, seed=0, points=(bad, pc.interior))


def test_random_tto_deterministic_and_symmetric():
    rng = np.random.default_rng(31)
    cb = random_clark_basis(rng)
    mu1, m1 = random_tto(cb.theta, cb.basis, seed=1234)
    mu2, m2 = random_tto(cb.theta, cb.basis, seed=1234)
    np.testing.assert_array_equal(mu1, mu2)
    np.testing.assert_array_equal(m1.array, m2.array)
    assert isinstance(m1, Sym3) and mu1.shape == (5,)
    np.testing.assert_array_equal(m1.array, m1.array.T)
    mu3, _ = random_tto(cb.theta, cb.basis, seed=99)
    assert not np.allclose(mu1, mu3)


def _span_ratio(b) -> float:
    """sigma_min / sigma_max of the 2n-1 flattened Z^k, (Z^H)^|k|, |k| < n, Z = A_z of b."""
    z, n = b.stack.shift[0], b.order
    powers = [np.linalg.matrix_power(z, k) for k in range(n)]
    powers += [np.linalg.matrix_power(np.conj(z.T), k) for k in range(1, n)]
    sv = np.linalg.svd(np.array([m.reshape(-1) for m in powers]).T, compute_uv=False)
    return sv[-1] / sv[0]


def test_shift_powers_are_a_basis_of_the_operator_space():
    # Why random_tto needs no rank test: the A_{z^k}, |k| < n, are linearly
    # independent for every product (tto module docstring), so a random symbol
    # covers the whole (2n-1)-dimensional space.  Repeated zeros near the circle
    # are the worst case; a triple zero at the origin is the best.
    rng = np.random.default_rng(41)
    ratios = {}
    for n in range(1, 5):
        products = [BlaschkeProduct(tuple(0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))))
                    for _ in range(50)]
        ratios[f"order {n}, zeros within 0.9"] = min(_span_ratio(b) for b in products)
    w = 0.9999 * np.exp(2j * np.pi * rng.random())
    ratios["triple zero at 0.9999"] = _span_ratio(BlaschkeProduct((w, w, w)))
    ratios["triple zero at 0"] = _span_ratio(BlaschkeProduct((0.0, 0.0, 0.0)))
    print("shift powers, sigma_min / sigma_max:", ", ".join(f"{k} {v:.2g}" for k, v in ratios.items()))
    assert min(ratios.values()) > 1e-12


def test_random_tto_is_its_symbol_in_every_basis():
    # The draw is the functional calculus of its own symbol, bit for bit; the
    # points it is given change nothing; and one seed gives one operator, so in
    # the basis cb.U (U a real rotation) its matrix is U^T M U.
    rng = np.random.default_rng(43)
    for k in range(20):
        cb = random_clark_basis(rng)
        b, pc = cb.theta, default_points(cb.theta)
        mu, m = random_tto(b, cb.basis, seed=k)
        symbol = Symbol(tuple(zip(range(-2, 3), mu)))
        reading = Sym3.from_array(tto_matrix_from_symbol(b, symbol, cb.basis).array, tol=TTO_SYM_TOL)
        np.testing.assert_array_equal(m.vector, reading.vector)
        _, given = random_tto(b, cb.basis, seed=k, points=(pc.boundary, pc.interior))
        np.testing.assert_array_equal(given.vector, m.vector)
        r = random_special_orthogonal(rng)
        _, rotated = random_tto(b, OrthonormalBasis(b, cb.basis.coords @ r), seed=k)
        np.testing.assert_allclose(rotated.array, r.T @ m.array @ r, rtol=0, atol=1e-12)


def test_shift_symbol_is_one_instance():
    assert Symbol.shift() is Symbol.shift()
    assert Symbol.shift() == Symbol(((1, 1.0),))


def test_symbol_rejects_duplicate_frequencies():
    with pytest.raises(ValueError):
        Symbol(((1, 1.0), (1, 2.0)))
