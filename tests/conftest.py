"""Shared fixtures and independent numerical oracles used across the suite.

The oracles here deliberately avoid the library's own code paths: integrals
are done by direct trapezoid sums on explicit formula evaluations, roots by
numpy's companion-matrix solver on hand-built polynomials, and Clark bases
and the conjugation matrix near the circle, where a uniform grid cannot
resolve the kernels, in 50-digit mpmath arithmetic from their defining
formulas.  Tests compare library output against these, never the other way
round.
"""

import importlib.util
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from model_space_lab.blaschke import BlaschkeProduct

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def f1():
    """Order-3 product z^3: all zeros at the origin, constant 1."""
    return BlaschkeProduct(zeros=(0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def f2():
    """Asymmetric order-3 product with zeros 0.5, 0, -0.5 and constant 1."""
    return BlaschkeProduct(zeros=(0.5, 0.0, -0.5))


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported by path and left unchanged."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def oracle_circle_mean(func, n=4096):
    """Trapezoid mean of ``func`` over the unit circle: (1/2pi) * integral.

    For smooth periodic integrands the uniform-grid mean converges
    geometrically, so n=4096 is far beyond machine precision for the
    rational functions exercised here.
    """
    z = np.exp(2j * np.pi * np.arange(n) / n)
    return np.mean(func(z))


def oracle_kernel_values(b, lam, z):
    """Reproducing kernel at ``lam`` evaluated from its defining formula."""
    return (1.0 - np.conj(b(lam)) * b(z)) / (1.0 - np.conj(lam) * z)


def oracle_inner(fvals_func, gvals_func, n=4096):
    """Quadrature inner product <f, g> from raw evaluation callables."""
    return oracle_circle_mean(lambda z: fvals_func(z) * np.conj(gvals_func(z)), n)


def oracle_clark_mp(b, t, alpha, z, dps=50):
    """Modified Clark basis of ``b`` for (t, alpha) at ``dps`` digits.

    The target is omega = (alpha + B(t)) / (1 + conj(B(t)) alpha); the level
    set is the roots of c prod(z - w) - omega prod(1 - conj(w) z), sorted by
    argument in [0, 2*pi); the kernel norms are sqrt(sum (1 - |w|^2) /
    |1 - conj(w) eta|^2); and row i of the values is b_i k_{eta_i}(z) with
    b_i = phase_i / ||k_{eta_i}||, phase_i = exp(i (arg conj(eta_i) + arg omega) / 2), and
    k_eta(z) = (1 - conj(omega) B(z)) / (1 - conj(eta) z).  Returns
    (etas, phases, norms, values) as complex/float numpy arrays.
    """
    with mpmath.workdps(dps):
        zeros = [mpmath.mpc(w) for w in b.zeros]
        c = mpmath.mpc(b.front_constant)

        def blaschke(x):
            out = c
            for w in zeros:
                out *= (x - w) / (1 - mpmath.conj(w) * x)
            return out

        def arg(x):
            a = mpmath.arg(x)
            return a + 2 * mpmath.pi if a < 0 else a

        bt, alpha = blaschke(mpmath.mpc(t)), mpmath.mpc(alpha)
        omega = (alpha + bt) / (1 + mpmath.conj(bt) * alpha)
        num, den = [mpmath.mpc(1)], [mpmath.mpc(1)]  # descending coefficients
        for w in zeros:  # times (z - w) and (1 - conj(w) z)
            num = [hi - w * lo for hi, lo in zip(num + [0], [0] + num)]
            den = [lo - mpmath.conj(w) * hi for hi, lo in zip(den + [0], [0] + den)]
        poly = [c * a - omega * d for a, d in zip(num, den)]
        etas = sorted(mpmath.polyroots(poly, maxsteps=200, extraprec=2 * dps), key=arg)
        norms = [
            mpmath.sqrt(sum((1 - abs(w) ** 2) / abs(1 - mpmath.conj(w) * e) ** 2 for w in zeros))
            for e in etas
        ]
        phases = [mpmath.exp(0.5j * (arg(mpmath.conj(e)) + arg(omega))) for e in etas]
        values = [
            [
                p / n
                * (1 - mpmath.conj(omega) * blaschke(mpmath.mpc(x)))
                / (1 - mpmath.conj(e) * mpmath.mpc(x))
                for x in np.ravel(z)
            ]
            for e, p, n in zip(etas, phases, norms)
        ]
        return (
            np.array([complex(e) for e in etas]),
            np.array([complex(p) for p in phases]),
            np.array([float(n) for n in norms]),
            np.array([[complex(v) for v in row] for row in values]),
        )


def oracle_conjugation_matrix_mp(b, dps=50):
    """J of an order-3 product at ``dps`` digits from C e_k = c e~_{2-k}, e~ the
    TMW basis of the reversed zeros: column k solves the interpolation of
    c e~_{2-k} by the e_j at three interior points."""
    with mpmath.workdps(dps):
        zeros = [mpmath.mpc(w) for w in b.zeros]

        def tmw(ws, k, x):
            out = mpmath.sqrt(1 - abs(ws[k]) ** 2) / (1 - mpmath.conj(ws[k]) * x)
            for w in ws[:k]:
                out *= (x - w) / (1 - mpmath.conj(w) * x)
            return out

        points = [mpmath.mpc(0), mpmath.mpc("0.5"), mpmath.mpc("-0.3", "0.4")]
        n = len(zeros)
        e = mpmath.matrix([[tmw(zeros, j, x) for j in range(n)] for x in points])
        c = mpmath.mpc(b.front_constant)
        columns = []
        for k in range(n):
            rhs = mpmath.matrix([c * tmw(zeros[::-1], n - 1 - k, x) for x in points])
            columns.append([complex(v) for v in mpmath.lu_solve(e, rhs)])
        return np.array(columns).T
