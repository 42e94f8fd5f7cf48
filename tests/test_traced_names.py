"""Every name the benchmark tracer wraps, and every exported name, must exist.

``perfbench/tracing.py`` patches ``model_space_lab.<module>.<function>`` by
name, so a rename or deletion in the library would otherwise surface only as
a crash of a traced benchmark run.  The file is parsed, not imported.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import model_space_lab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_pairs():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in perfbench/tracing.py")


def test_traced_functions_resolve():
    pairs = _traced_pairs()
    assert pairs
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"model_space_lab.{module}"), name)
    ]
    assert missing == []


def test_module_exports_resolve():
    missing = []
    for info in pkgutil.iter_modules(model_space_lab.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"model_space_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{info.name}.{name}")
    assert missing == []
