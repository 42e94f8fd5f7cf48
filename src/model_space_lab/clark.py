"""Modified Clark bases and the rank-one perturbed shift they diagonalize.

For an interior point t and unimodular alpha, the operator

    U = S_t + (alpha + B(t)) (k_t (x) C k_t),    S_t f = P[ (z-t)/(1-conj(t) z) f ],

is unitary on the order-3 model space.  Its eigenvectors sit at the n circle
points where B equals the target

    omega = (alpha + B(t)) / (1 + conj(B(t)) alpha),

and suitably phased, normalized boundary kernels at those points form an
orthonormal basis fixed by the canonical conjugation.  The phase convention
is the half-argument square root: for unimodular w with arg w = gamma taken
in [0, 2*pi), its root is exp(i*gamma/2).

The matrix of U is exact: S_t is the Moebius function
(A_z - t)(I - conj(t) A_z)^-1 of the compressed shift A_z, and the rank-one
part needs only point values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, boundary_kernel_norm_sq, level_set
from .config import BASIS_TOL
from .modelspace import OrthonormalBasis, _values, compressed_shift, kernel_element

__all__ = [
    "ClarkParams",
    "ClarkBasis",
    "ClarkTargetError",
    "ConjugationSymmetryError",
    "half_arg_root",
    "clark_target",
    "modified_clark_basis",
    "clark_operator_matrix",
]


class ClarkTargetError(ValueError):
    """The (t, alpha) pair makes the unimodular target numerically undefined."""


class ConjugationSymmetryError(RuntimeError):
    """A constructed Clark basis failed its conjugation-fixedness check."""


@dataclass(frozen=True)
class ClarkParams:
    """Interior anchor point t and unimodular spectral parameter alpha."""

    t: complex
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "alpha", complex(self.alpha))
        if abs(self.t) >= 1.0:
            raise ValueError("anchor point t must lie in the open disc")
        if abs(abs(self.alpha) - 1.0) > 1e-12:
            raise ValueError("alpha must be unimodular")


def half_arg_root(w) -> complex:
    """Square root of w with argument arg(w)/2, arg taken in [0, 2*pi).

    This is the branch used throughout the Clark-basis phases; for a
    unimodular w it returns exp(i * gamma / 2) with gamma in [0, 2*pi).
    """
    w = complex(w)
    gamma = np.angle(w) % (2.0 * np.pi)
    return complex(np.sqrt(abs(w)) * np.exp(0.5j * gamma))


def clark_target(b: BlaschkeProduct, params: ClarkParams) -> complex:
    """Unimodular level-set target omega = (alpha + B(t)) / (1 + conj(B(t)) alpha)."""
    bt = b(params.t)
    den = 1.0 + np.conj(bt) * params.alpha
    if abs(den) < 1e-12:
        raise ClarkTargetError(
            "1 + conj(B(t)) * alpha is numerically zero for t=%r, alpha=%r"
            % (params.t, params.alpha)
        )
    omega = (params.alpha + bt) / den
    return complex(omega)


@dataclass(frozen=True)
class ClarkBasis:
    """Phased, normalized boundary kernels at the level set of the Clark target.

    ``etas`` are the three level-set points sorted by argument, ``phases``
    the unimodular factors exp(i(arg conj(eta) + arg omega)/2), ``norms``
    the kernel norms, and ``basis`` the resulting orthonormal basis whose
    i-th element is phases[i]/norms[i] * k_{etas[i]}.
    """

    params: ClarkParams
    omega: complex
    etas: np.ndarray
    phases: np.ndarray
    norms: np.ndarray
    basis: OrthonormalBasis

    @property
    def theta(self) -> BlaschkeProduct:
        return self.basis.theta

    @property
    def coefficients(self) -> np.ndarray:
        """The scalars b_i = phases[i] / norms[i] with cb_i = b_i * k_{etas[i]}."""
        return self.phases / self.norms


def modified_clark_basis(b: BlaschkeProduct, params: ClarkParams) -> ClarkBasis:
    """Construct the conjugation-fixed eigenbasis for (t, alpha) at order 3.

    Raises if the construction violates any of its contracts: level-set
    accuracy, orthonormality, conjugation-fixedness, or vanishing of each
    element at the other level-set points.  Vanishing is measured against the
    normalized kernel, |e_i(eta_j)| / ||k_{eta_j}|| = |<e_i, k^_{eta_j}>|, so
    it stays scale-free when the kernel norms are large near the circle.
    """
    if b.order != 3:
        raise ValueError("the Clark basis construction here is order-3 only")
    omega = clark_target(b, params)
    etas = level_set(b, omega)
    delta2 = np.angle(omega) % (2.0 * np.pi)
    phases = np.array(
        [
            np.exp(0.5j * ((np.angle(np.conj(e)) % (2.0 * np.pi)) + delta2))
            for e in etas
        ]
    )
    norms = np.array([np.sqrt(boundary_kernel_norm_sq(b, e)) for e in etas])
    basis = OrthonormalBasis.from_elements(
        ((p / n) * kernel_element(b, e) for p, n, e in zip(phases, norms, etas)),
        tag="clark(t=%s, alpha=%s)" % (params.t, params.alpha),
    )

    if basis.conj_residual >= BASIS_TOL:
        raise ConjugationSymmetryError(
            "an element moved by %.3e under conjugation; the phase "
            "convention must square to conj(eta) * omega" % basis.conj_residual
        )
    off_point = np.abs(basis(etas))  # entry (i, j) is |e_i(eta_j)|
    np.fill_diagonal(off_point, 0.0)
    missed = np.argwhere(off_point >= BASIS_TOL * norms)
    if missed.size:
        raise ConjugationSymmetryError(
            "element %d does not vanish at level-set point %d" % tuple(missed[0])
        )
    return ClarkBasis(
        params=params,
        omega=omega,
        etas=etas,
        phases=phases,
        norms=norms,
        basis=basis,
    )


def clark_operator_matrix(b: BlaschkeProduct, params: ClarkParams, basis: OrthonormalBasis):
    """Matrix of the unitary U = S_t + (alpha + B(t)) (k^_t (x) C k^_t) w.r.t. ``basis``.

    Here k^_t is the NORMALIZED kernel at t: writing the perturbation with
    the raw kernel requires dividing by ||k_t||^2 = (1-|B(t)|^2)/(1-|t|^2),
    otherwise the operator fails to be unitary whenever the kernel norm
    differs from 1.

    Entry (i, j) is <U v_j, v_i>.  The compressed-multiplier part is
    (A_z - t)(I - conj(t) A_z)^-1 by the H^infinity functional calculus,
    taken between the orthonormal coordinates of the basis; the rank-one
    part evaluates in closed form since <v, C k_t> = conj((C v)(t)).
    The result is checked to be unitary within 1e-8.
    """
    if basis.theta != b:
        raise ValueError("basis lives in a different model space")
    t, alpha = params.t, params.alpha
    bt = b(t)
    k = len(basis.elements)

    z = compressed_shift(b)
    eye = np.eye(len(z))
    mobius = np.linalg.solve(eye - np.conj(t) * z, z - t * eye)
    x = basis.coords
    m = np.conj(x.T) @ mobius @ x

    v_at_t = basis(t)
    # C reverses and conjugates each numerator and multiplies by the front constant.
    cv_at_t = _values(b, b.front_constant * np.conj(basis.numerators[::-1]), t)
    kernel_norm_sq = (1.0 - abs(bt) ** 2) / (1.0 - abs(t) ** 2)
    weight = (alpha + bt) / kernel_norm_sq
    rank_one = weight * np.outer(np.conj(v_at_t), np.conj(cv_at_t))
    u = m + rank_one

    defect = np.linalg.norm(np.conj(u.T) @ u - np.eye(k))
    if defect > 1e-8:
        raise RuntimeError(
            "operator matrix is not unitary (defect %.3e); the basis is not "
            "an orthonormal basis of the model space" % defect
        )
    return u
