"""Every name the benchmark tracer wraps, and every exported name, must exist and be used.

``perfbench/tracing.py`` patches ``model_space_lab.<module>.<function>`` by
name, so a rename or deletion in the library would otherwise surface only as
a crash of a traced benchmark run.  The files are parsed, not imported.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import model_space_lab
from model_space_lab.so3solver import SolveReport

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "model_space_lab"


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


def test_observed_solve_fields_exist():
    # The tracer's solve wrapper reads fields of the report solve returns; a
    # renamed field would otherwise surface only as a crash of a traced run.
    tree = ast.parse(TRACING.read_text())
    observe = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_observe_solve")
    fields = {n.attr for n in ast.walk(observe)
              if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "report"}
    assert fields and fields <= set(SolveReport._fields), fields


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


def _loads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _outside_callers():
    """Names the README sketch and perfbench/*.py read, by name, attribute or string (``TRACED``)."""
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"```python\n(.*?)```", readme[readme.index("## Library sketch"):], re.S).group(1)
    names = set()
    for tree in [ast.parse(sketch)] + [ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def test_every_export_has_a_caller():
    # A caller in src/ reads the name outside the name's own top-level definition,
    # in its module or in one that imports it, and not inside an uncalled export.
    reads, imports = {}, {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        reads[path.stem] = [(getattr(node, "name", None), _loads(node)) for node in tree.body]
        imports[path.stem] = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    outside = _outside_callers()
    exports = {(stem, name) for stem in reads if stem != "__main__"
               for name in getattr(importlib.import_module(f"model_space_lab.{stem}"), "__all__", ())}

    def called(stem, name, dead):
        return name in outside or any(
            name in names for module, parts in reads.items() if module == stem or name in imports[module]
            for owner, names in parts if owner != name and owner not in dead)

    uncalled = set()
    while True:  # a name read only inside uncalled exports is uncalled too
        found = {(stem, name) for stem, name in exports if not called(stem, name, {n for _, n in uncalled})}
        if found == uncalled:
            break
        uncalled = found
    assert sorted(f"{stem}.{name}" for stem, name in uncalled) == []


def test_no_unused_imports():
    # No linter is installed, so this is the unused-import check.
    unused = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        used = _loads(tree)
        unused += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                   for name in (a.asname or a.name.split(".")[0] for a in node.names) if name not in used]
    assert unused == []


def test_package_holds_only_its_docstring():
    # One way to reach each name: from its defining module.  The package
    # re-exports nothing, so importing it loads no module of the library.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1, ast.dump(tree)
