"""Every exported exception class is exactly one of the two kinds of failure.

``ValueError`` is invalid input (CLI exit 2) and ``config.Indeterminate`` is
numerical indeterminacy on valid input (CLI exit 3).  Modules without
``__all__`` export their public names.
"""

import importlib
import pkgutil

import model_space_lab
from model_space_lab.config import Indeterminate


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
