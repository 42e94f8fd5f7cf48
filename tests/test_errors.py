"""Every exported exception class is exactly one of the two kinds of failure.

``ValueError`` is invalid input (CLI exit 2) and ``config.Indeterminate`` is
numerical indeterminacy on valid input (CLI exit 3).  Modules without
``__all__`` export their public names.
"""

import importlib
import pkgutil

import pytest

import model_space_lab
from model_space_lab.blaschke import BlaschkeProduct, boundary_kernel_norm_sq, level_set
from model_space_lab.clark import ClarkParams
from model_space_lab.config import Indeterminate
from model_space_lab.repcheck import PointConfig, counterexample_family, counterexample_report


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: BlaschkeProduct((NAN, 0.0, 0.0)),
        lambda: BlaschkeProduct((0.1, 0.0, 0.0), complex(1.0, NAN)),
        lambda: ClarkParams(NAN, 1.0),
        lambda: ClarkParams(0.0, NAN),
        lambda: PointConfig((1.0, 1j, complex(NAN, 0.0)), (0.0, 0.5)),
        lambda: PointConfig((1.0, 1j, -1.0), (0.0, complex(0.0, NAN))),
        lambda: level_set(BlaschkeProduct((0.1, 0.0, 0.0)), NAN),
        lambda: boundary_kernel_norm_sq(BlaschkeProduct((0.1, 0.0, 0.0)), [1.0, NAN]),
        lambda: counterexample_family(2, 0.0, NAN, 0.0),
        lambda: counterexample_report(1, NAN, 0.0, 0.0, trials=3),
    ],
    ids=[
        "zero", "constant", "t", "alpha", "boundary-point", "interior-point",
        "level-set-target", "boundary-kernel-point", "family", "counterexample-report",
    ],
)
def test_nan_input_is_invalid(build):
    # NaN fails every comparison, so a "reject if > tol" check would let it
    # through; each of these must refuse it as invalid input.
    with pytest.raises(ValueError):
        build()
