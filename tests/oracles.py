"""Scalar references that the library does not carry: test inputs and hand-derived formulas.

The library is array-first and keeps only what its CLI, its README and its
benchmark call.  The tests also need scalar random draws, one random Clark
basis, the element view of a basis, a Gram-Schmidt basis, the conjugation in
numerator form, the cleared level-set cubic, the paper's printed relation, the
paper's basis V = cb U and U S U^T for a rotation array U, and the solver's two
defects; they live here, next to the quadrature and mpmath oracles of ``conftest.py``.
"""

import numpy as np

from model_space_lab.blaschke import BlaschkeProduct, circle_angle
from model_space_lab.clark import ANCHOR_RADIUS, ZERO_RADIUS, ClarkBasis, ClarkParams, clark_draws
from model_space_lab.modelspace import KThetaElement, OrthonormalBasis, _tmw_numerators, coordinates
from model_space_lab.repcheck import Sym3, relation_weight


def _disc(rng, rmax):
    """Area-uniform point in the disc of radius rmax: radius, then angle."""
    return complex(rmax * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


def random_unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def random_blaschke(rng, unit_constant: bool = False) -> BlaschkeProduct:
    """Three zeros, then the constant: the first seven uniforms of a Clark draw."""
    zeros = [_disc(rng, ZERO_RADIUS) for _ in range(3)]
    c = 1.0 if unit_constant else random_unimodular(rng)
    return BlaschkeProduct(zeros=tuple(zeros), front_constant=c)


def random_clark_params(rng) -> ClarkParams:
    """t, then alpha: the last three uniforms of a Clark draw."""
    return ClarkParams(t=_disc(rng, ANCHOR_RADIUS), alpha=random_unimodular(rng))


def random_clark_basis(rng) -> ClarkBasis:
    """Clark basis of a random order-3 product, the first row of ``clark_draws``.

    It takes the ``CLARK_DRAW`` uniforms of one attempt; a failed check is raised.
    """
    rows = clark_draws(rng, 1)
    b = BlaschkeProduct(tuple(rows.zeros[0]), rows.constants[0])
    return rows.basis(0, b, ClarkParams(rows.t[0], rows.alpha[0]))


def scaled(s: Sym3, e: int) -> Sym3:
    """S * 2**e by ``np.ldexp`` on the float view: exact unless a part over- or underflows."""
    return Sym3._make(np.ldexp(s.vector.view(float), e).view(complex).tolist())


def random_special_orthogonal(rng) -> np.ndarray:
    """Haar-ish random rotation from a QR decomposition with positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def creal_basis_from_orthogonal(cb: ClarkBasis, u: np.ndarray) -> OrthonormalBasis:
    """The paper's basis V = cb U: v_i = sum_j U[j, i] cb_j for a real orthogonal (3, 3) array U.

    Real coefficients keep every element conjugation-fixed, and orthogonality
    of U keeps the family orthonormal.
    """
    return OrthonormalBasis(cb.theta, cb.basis.coords @ u)


def congruence(s: Sym3, u: np.ndarray) -> Sym3:
    """U S U^T for a (3, 3) array U, symmetrized by ``Sym3.from_array``: the arithmetic of ``solve``."""
    return Sym3.from_array(u @ s.array @ u.T)


def basis_from_elements(elements) -> OrthonormalBasis:
    elements = tuple(elements)
    theta = elements[0].theta
    return OrthonormalBasis(theta, coordinates(theta, elements))


def basis_elements(basis: OrthonormalBasis) -> tuple:
    """The basis as ``KThetaElement``s: numerators T x for its coordinate columns x."""
    numerators = _tmw_numerators(basis.theta) @ basis.coords
    return tuple(KThetaElement(basis.theta, tuple(col)) for col in numerators.T)


def reference_onb(b: BlaschkeProduct) -> OrthonormalBasis:
    """Orthonormal basis from Gram-Schmidt on the monomial numerators.

    The monomials have coordinates T^-1 (T the numerator matrix of the
    orthonormal Takenaka-Malmquist-Walsh basis).  Gram-Schmidt on those
    columns is their QR factorization with a positive diagonal in R, so the
    phases of numpy's diagonal are divided out of Q.
    """
    q, r = np.linalg.qr(np.linalg.inv(_tmw_numerators(b)))
    d = np.diag(r)
    return OrthonormalBasis(b, q * (d / np.abs(d)))


def conjugate(f: KThetaElement) -> KThetaElement:
    """Canonical conjugation in coefficient form.

    On the circle the conjugation acts as f -> B * conj(z f); over the common
    denominator this reduces exactly to reversing the numerator coefficients,
    conjugating them, and multiplying by the front constant.
    """
    c = f.theta.front_constant
    return KThetaElement(f.theta, tuple(c * np.conj(a) for a in reversed(f.numerator)))


def cubic_coefficients(b: BlaschkeProduct):
    """Coefficients (K0, K1, K2, K3) of the cleared equation B(z) = 1 at order 3, constant 1.

    With zeros w1, w2, w3 the level-set equation clears to

        K3 z^3 - K2 z^2 + K1 z - K0 = 0

    with K3 = 1 + conj(w1 w2 w3), K2 = w1+w2+w3 + conj(w1 w2 + w1 w3 + w2 w3),
    K1 = w1 w2 + w1 w3 + w2 w3 + conj(w1+w2+w3), K0 = w1 w2 w3 + 1.
    """
    assert b.order == 3 and b.front_constant == 1.0
    w1, w2, w3 = b.zeros
    e1 = w1 + w2 + w3
    e2 = w1 * w2 + w1 * w3 + w2 * w3
    e3 = w1 * w2 * w3
    return complex(e3 + 1.0), complex(e2 + np.conj(e1)), complex(e1 + np.conj(e2)), complex(1.0 + np.conj(e3))


def paper_relation_coefficients(cb):
    """(c4, c5) as the paper prints them, from half-argument roots of conj(eta_i).

    c4 = r(conj eta1) / r(conj eta3) (eta1 - eta2) and c5 = r(conj eta1) / r(conj eta2) (eta3 - eta1),
    with r(w) = exp(i gamma / 2), gamma = arg w taken by ``circle_angle``; shape (N,) for a stack.
    """
    eta1, eta2, eta3 = cb.etas.T
    r1, r2, r3 = np.exp(0.5j * circle_angle(np.conj(cb.etas))).T
    return r1 / r3 * (eta1 - eta2), r1 / r2 * (eta3 - eta1)


def paper_prediction(s, cb) -> complex:
    """s6 = (c4 s4 + c5 s5) / (eta3 - eta2) with the printed (c4, c5) of one basis."""
    c4, c5 = paper_relation_coefficients(cb)
    return complex((c4 * s.s4 + c5 * s.s5) / (cb.etas[2] - cb.etas[1]))


def residuals(s, u, cb):
    """(||U U^T - I||_F, |sum K o (U S U^T)|) for a candidate conjugator U of S, a (3, 3) array."""
    relation = np.sum(relation_weight(cb) * (u @ s.array @ u.T))
    return float(np.linalg.norm(u @ u.T - np.eye(3))), float(np.linalg.norm([relation.real, relation.imag]))


def rotate_basis(basis: OrthonormalBasis, q) -> OrthonormalBasis:
    """Real-orthogonal recombination of the elements; stays orthonormal and conjugation-fixed."""
    v = np.array([e.numerator for e in basis_elements(basis)])
    return basis_from_elements(KThetaElement(basis.theta, tuple(q[:, i] @ v)) for i in range(3))
