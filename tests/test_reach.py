"""Reach, not names: every ``src/`` function is entered by a product path, or is allowlisted.

The product paths are what the CLI, the README and the benchmark run: the nine
committed fixtures through ``cli.run(["fixtures", "--dir", ...])``, the README's
library sketch, three seeded ``verify-warm`` problems (``VerifyWarm.run``) and one
``cli-cold`` problem per task (``CliCold.run_inprocess``).  A stdlib
``sys.settrace`` hook records every function entered while they run; the
functions defined in ``src/`` (read from the source, by qualified name) that it
never saw must be exactly ``NEVER_ENTERED``.  Each entry says why no product
path enters it and which test does, or that it leaves with ROADMAP item 6.
"""

import ast
import importlib
import pkgutil
import re
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import model_space_lab
from model_space_lab import cli

ROOT = Path(__file__).resolve().parents[1]

ITEM_6 = "leaves with item 6: the element view, which no product path reaches"
NEVER_ENTERED = {
    "blaschke.BlaschkeProduct.__reduce__":
        "copies and pickles of a product; test_product_stack_cannot_be_rebound_and_survives_copies",
    "blaschke._level_set_error":
        "error path (LevelSetError); test_indeterminate_exits_3_with_report",
    "cli.main":
        "entered only in a child process (python -m model_space_lab, the console script); "
        "test_main_module_exits_3_with_report spawns one",
    "config._refuse": "error path (invalid input); test_nan_input_is_invalid",
    "config.closed_disc": ITEM_6 + " (its one caller is kernel_element)",
    "modelspace.KThetaElement.__call__": ITEM_6,
    "modelspace.KThetaElement.__new__": ITEM_6,
    "modelspace.OrthonormalBasis.__getnewargs__":
        "copies of a basis; test_product_stack_cannot_be_rebound_and_survives_copies",
    "modelspace._tmw_numerators": ITEM_6,
    "modelspace.conjugation_residual": ITEM_6,
    "modelspace.coordinates": ITEM_6,
    "modelspace.gram_error":
        "error path (BasisError, Gram residual); test_basis_failure_is_raised_not_skipped[gram]",
    "modelspace.gram_matrix": ITEM_6,
    "modelspace.inner_product": ITEM_6,
    "modelspace.kernel_element": ITEM_6,
    "tto.Symbol.__new__":
        "entered at import only, to build the one shift symbol; problems carry no symbol and "
        "random_tto builds its computed symbol by _make; test_symbol_rejects_duplicate_frequencies",
    "so3solver.spectral_shortcut":
        "solve's second start, taken only when the first misses; test_spectral_shortcut_diagonal",
}


def _defined():
    """{(source file, first line of the code object): module.qualname} for every def in the package."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code object starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, line)] = prefix + child.name
                walk(child, path, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for info in pkgutil.iter_modules(model_space_lab.__path__):
        if info.name == "__main__":  # runs the CLI on import; it defines no function
            continue
        path = importlib.import_module(f"model_space_lab.{info.name}").__file__
        walk(ast.parse(Path(path).read_text()), path, info.name + ".")
    return out


def test_every_function_is_entered_or_allowlisted(workloads, tmp_path):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    warm = workloads.VerifyWarm(ROOT, tmp_path)
    warm_specs = warm.generate(np.random.default_rng(1))[:3]
    warm_problems = [warm.prepare(spec, i) for i, spec in enumerate(warm_specs)]
    cold = workloads.CliCold(ROOT, tmp_path)
    cold_specs = cold.generate(np.random.default_rng(1))[:6]  # round 0: one problem per task
    cold_problems = [cold.prepare(spec, i) for i, spec in enumerate(cold_specs)]
    assert [p[0]["problem"]["task"] for p in cold_problems] == list(cli.TASKS)
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"```python\n(.*?)```", readme[readme.index("## Library sketch"):], re.S).group(1)

    entered = set()

    def record(frame, event, arg):  # the global hook sees each call; returning None traces no lines
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    start, previous = time.perf_counter(), sys.gettrace()
    sys.settrace(record)
    try:
        assert cli.run(["fixtures", "--dir", str(tmp_path / "fixtures")]) == 0
        exec(compile(sketch, "README.md (Library sketch)", "exec"), {})
        for problem in warm_problems:
            warm.run(problem)
        for problem in cold_problems:
            cold.run_inprocess(problem)
    finally:
        sys.settrace(previous)
    seconds = time.perf_counter() - start

    defined = _defined()
    never = {name for key, name in defined.items() if key not in entered}
    assert never == set(NEVER_ENTERED)
    assert all(NEVER_ENTERED.values())
    print("reach: %d of %d src/ functions entered in %.2f s"
          % (len(defined) - len(never), len(defined), seconds))
