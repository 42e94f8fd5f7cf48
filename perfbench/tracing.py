"""Spans around the library's public functions, recorded from outside the library.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper wherever a
``model_space_lab`` module binds it, so calls made through ``cli``, ``sampling``
or the package namespace are seen as well.  Spans live in memory and are
written out by the caller when the run ends.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# (module, function) pairs wrapped in a traced run.  ``so3solver.least_squares``
# is scipy's solver, wrapped only where so3solver binds it.
TRACED = (
    ("blaschke", "level_set"),
    ("modelspace", "gram_matrix"),
    ("modelspace", "inner_product"),
    ("modelspace", "kernel_element"),
    ("modelspace", "conjugation_residual"),
    ("clark", "modified_clark_basis"),
    ("clark", "clark_operator_matrix"),
    ("tto", "tto_matrix_from_symbol"),
    ("tto", "random_tto"),
    ("repcheck", "build_columns"),
    ("repcheck", "detthm_test"),
    ("repcheck", "clark_s6_test"),
    ("repcheck", "counterexample_report"),
    ("so3solver", "solve"),
    ("so3solver", "least_squares"),
    ("cli", "run_task"),
)

PACKAGE = "model_space_lab"


class Span(NamedTuple):
    name: str
    request: int  # index of the benchmark problem that caused the span
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    error: str  # exception class name, "" when the call returned


class Tracer:
    """Records spans, KThetaElement point evaluations and solver outcomes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self.point_evals = 0
        self.solves = 0
        self.starts_used = 0
        self.found = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)  # placeholder keeps parents before children
            self._stack.append(index)
            error = ""
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, self.request, start, end, parent, error)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            if (mod_name, fn_name) == ("so3solver", "solve"):
                wrapper = self._observe_solve(wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

        element = sys.modules[f"{PACKAGE}.modelspace"].KThetaElement
        evaluate = element.__call__

        def counted(elem, z):
            self.point_evals += np.size(z)
            return evaluate(elem, z)

        self._undo.append((element, "__call__", evaluate))
        element.__call__ = counted

    def _observe_solve(self, solve):
        @functools.wraps(solve)
        def observed(*args, **kwargs):
            report = solve(*args, **kwargs)
            self.solves += 1
            self.starts_used += report.starts_used
            self.found += int(report.found)
            return report

        return observed

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans):
    """Per span name: (calls, self seconds, calls that raised), and indeterminate count."""
    totals = {f"{m}.{f}": [0, 0.0, 0] for m, f in TRACED}
    indeterminate = 0
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += own
        entry[2] += bool(span.error)
        if span.name.startswith("repcheck.") and span.error == "IndeterminateError":
            indeterminate += 1
    return totals, indeterminate


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def import_seconds(stderr: str, packages) -> dict:
    """Sum of ``-X importtime`` self times per top-level package, in seconds."""
    totals = dict.fromkeys(packages, 0.0)
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            top = match.group(3).split(".")[0]
            if top in totals:
                totals[top] += int(match.group(1)) * 1e-6
    return totals


def import_breakdown(python, env, cwd, repeats=3) -> dict:
    """Median per-package import seconds of ``import model_space_lab, model_space_lab.cli``."""
    packages = ("numpy", "scipy", PACKAGE)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", f"import {PACKAGE}, {PACKAGE}.cli"],
            env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120, check=True,
        )
        samples.append(import_seconds(proc.stderr, packages))
    return {p: statistics.median(s[p] for s in samples) for p in packages}
