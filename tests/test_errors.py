"""Every exported exception class is exactly one of the two kinds of failure.

``ValueError`` is invalid input (CLI exit 2) and ``config.Indeterminate`` is
numerical indeterminacy on valid input (CLI exit 3).  Modules without
``__all__`` export their public names.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import model_space_lab
from model_space_lab.blaschke import BlaschkeProduct, boundary_kernel_norm_sq, level_set
from model_space_lab.clark import ClarkParams, modified_clark_basis
from model_space_lab.config import Indeterminate
from model_space_lab.modelspace import OrthonormalBasis, kernel_element
from model_space_lab.repcheck import (
    PointConfig,
    Sym3,
    clark_s6_test,
    counterexample_family,
    counterexample_report,
    default_points,
    detthm_test,
)
from model_space_lab.so3solver import OrthMatrix3, SolverConfig, creal_basis_from_orthogonal, solve
from model_space_lab.tto import Symbol


def test_exported_exceptions_are_invalid_input_or_indeterminate():
    modules = [model_space_lab] + [
        importlib.import_module(f"model_space_lab.{info.name}")
        for info in pkgutil.iter_modules(model_space_lab.__path__)
        if info.name != "__main__"  # runs the CLI on import
    ]
    seen = set()
    for module in modules:
        names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for name in names:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                seen.add(name)
                assert issubclass(obj, ValueError) != issubclass(obj, Indeterminate), (
                    f"{module.__name__}.{name}"
                )
    assert seen >= {
        "ProblemError",
        "Indeterminate",
        "PoleEvaluationError",
        "LevelSetError",
        "ClarkTargetError",
        "BasisError",
        "IndeterminateError",
    }


NAN = float("nan")
INF = float("inf")
HUGE = complex(1.7e308, 1.7e308)  # abs() raises OverflowError; its modulus is inf
F1 = BlaschkeProduct((0.1, 0.0, 0.0))
BAD_TOLS = {"nan": NAN, "inf": INF, "0": 0.0, "-1": -1.0, "True": True}


@pytest.fixture(scope="module")
def cb():
    return modified_clark_basis(BlaschkeProduct((0.5, 0.0, -0.5)), ClarkParams(0.1 + 0.2j, 1.0))


def _detthm(cb, s, **kw):
    return detthm_test(s, cb.basis, default_points(cb.theta), **kw)


CASES = {
    "zero": lambda cb: BlaschkeProduct((NAN, 0.0, 0.0)),
    "constant": lambda cb: BlaschkeProduct((0.1, 0.0, 0.0), complex(1.0, NAN)),
    "t": lambda cb: ClarkParams(NAN, 1.0),
    "alpha": lambda cb: ClarkParams(0.0, NAN),
    "boundary-point": lambda cb: PointConfig((1.0, 1j, complex(NAN, 0.0)), (0.0, 0.5)),
    "interior-point": lambda cb: PointConfig((1.0, 1j, -1.0), (0.0, complex(0.0, NAN))),
    "level-set-target": lambda cb: level_set(F1, NAN),
    "boundary-kernel-point": lambda cb: boundary_kernel_norm_sq(F1, [1.0, NAN]),
    "family": lambda cb: counterexample_family(2, 0.0, NAN, 0.0),
    "counterexample-report": lambda cb: counterexample_report(1, NAN, 0.0, 0.0, trials=3),
    # decision procedures: Sym3 keeps a non-finite entry, Sym3.normalized refuses it
    "detthm-nan-matrix": lambda cb: _detthm(cb, Sym3(NAN, 0, 0, 0, 0, 0)),
    "detthm-inf-matrix": lambda cb: _detthm(cb, Sym3(INF, 0, 0, 0, 0, 0)),
    "s6-nan-matrix": lambda cb: clark_s6_test(Sym3(NAN, 0, 0, 0, 0, 0), cb),
    "s6-inf-matrix": lambda cb: clark_s6_test(Sym3(INF, 0, 0, 0, 0, 0), cb),
    "solve-nan-matrix": lambda cb: solve(Sym3(0, 0, 0, 0, 0, NAN), cb, SolverConfig(starts=2)),
    "solve-inf-matrix": lambda cb: solve(Sym3(0, 0, 0, 0, 0, INF), cb, SolverConfig(starts=2)),
    **{f"detthm-tol-{k}": (lambda cb, t=t: _detthm(cb, Sym3(1, 1, 1, 0, 0, 0), tol=t))
       for k, t in BAD_TOLS.items()},
    **{f"s6-tol-{k}": (lambda cb, t=t: clark_s6_test(Sym3(1, 1, 1, 0, 0, 0), cb, tol=t))
       for k, t in BAD_TOLS.items()},
    # bases given by coordinates or by an orthogonal matrix
    "basis-nan-coords": lambda cb: OrthonormalBasis(cb.theta, np.full((3, 3), NAN)),
    "basis-inf-coords": lambda cb: OrthonormalBasis(cb.theta, np.full((3, 3), INF)),
    "orthogonal-nan": lambda cb: creal_basis_from_orthogonal(cb, OrthMatrix3((NAN,) * 9)),
    # other inputs: NaN, and a huge complex whose abs() overflows
    "from-array-nan": lambda cb: Sym3.from_array(np.diag([1.0, 1.0, NAN])),
    "kernel-point-nan": lambda cb: kernel_element(F1, complex(NAN, 0.0)),
    "symbol-coefficient-nan": lambda cb: Symbol(((1, NAN),)),
    "boundary-point-huge": lambda cb: PointConfig((1.0, 1j, HUGE), (0.0, 0.5)),
    "interior-point-huge": lambda cb: PointConfig((1.0, 1j, -1.0), (0.0, HUGE)),
    "level-set-target-huge": lambda cb: level_set(F1, HUGE),
    "kernel-point-huge": lambda cb: kernel_element(F1, HUGE),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_nan_input_is_invalid(build, cb):
    # Each input domain has one "accept if" check in config.py, so NaN, inf,
    # a modulus beyond float range and a bad tol all fail it as invalid input.
    with pytest.raises(ValueError):
        build(cb)


def test_one_integer_rule_for_every_count():
    # SolverConfig and counterexample_report take any numbers.Integral and store an int.
    config = SolverConfig(starts=np.int64(3), seed=np.int64(0))
    assert type(config.starts) is int and type(config.seed) is int
    assert type(counterexample_report(3, 0.0, 0.0, 0.0, trials=np.int64(3)).trials) is int
