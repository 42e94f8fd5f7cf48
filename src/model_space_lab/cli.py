"""JSON-in/JSON-out command line for the decision procedures.

Six subcommands mirror the library: ``clark-basis``, ``tto-matrix``,
``check-detthm``, ``check-clark-s6``, ``solve-so3`` and ``corollary``; a
seventh, ``fixtures --dir DIR``, rewrites ``<name>.report.json`` for every
``<name>.problem.json`` in DIR and never writes a problem file.  Problems
and reports are strict JSON with every complex number as a two-element
``[re, im]`` array and every float printed to 12 significant digits.  All
seven subcommands take one path: parse every problem, then ``run_task`` and
write each report.  A problem's ``options`` and the flags ``--tol``, ``--seed``
and ``--starts`` set the three fields of ``SolverConfig``; the report's
``config`` echoes them with the name of the one Clark relation.

Exit codes: 0 = a decision was made (whatever the verdict), 2 = the input was
invalid (no report written), 3 = the computation was numerically indeterminate
(report written with verdict "indeterminate").  Each has one source: exit 2
comes only from the parse stage (reading the files, ``parse_problem`` and
``merge_config``; for ``fixtures`` also a DIR without problem files), which
runs before any computation, and exit 3 only from ``run_task`` catching
``Indeterminate``.  Any other error is a bug and crashes with a traceback.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .blaschke import BlaschkeProduct
from .clark import ClarkParams, modified_clark_basis
from .config import TTO_SYM_TOL, Indeterminate, finite
from .repcheck import (
    Sym3,
    clark_s6_test,
    counterexample_report,
    default_points,
    detthm_test,
    match_counterexample_family,
)
from .so3solver import SolverConfig, solve
from .tto import Symbol, tto_matrix_from_symbol

# The SolverConfig fields, which a problem file or a flag may set.
_OPTIONS = ("tol", "seed", "starts")

# The one Clark relation, which reports still name as config.variant and check-clark-s6's
# details.variant: golden reports change only by added keys, and the benchmark compares
# their key sets with the committed reports.
_RELATION = {"variant": "general"}

_REPORT_KEYS = (
    "task",
    "verdict",
    "residuals",
    "certificate",
    "basis",
    "details",
    "timing",
    "config",
)

_VERDICT_STRINGS = ("indeterminate", "not-found-within-budget")


class ProblemError(ValueError):
    """The problem file violates the input schema."""


# -- report format -------------------------------------------------------------


def _encode(v):
    """The report format: complex -> [re, im], float -> 12 significant digits,
    arrays and tuples -> lists; a non-finite float raises ``Indeterminate``."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, dict):
        return {key: _encode(x) for key, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_encode(x) for x in v]
    if isinstance(v, complex):
        return [_encode(v.real), _encode(v.imag)]
    if isinstance(v, float):
        if not math.isfinite(v):
            raise Indeterminate("non-finite value in report")
        return float(f"{v:.12g}")
    return v  # bool, int, str


def _parse_complex(v, where: str) -> complex:
    if not (isinstance(v, list) and len(v) == 2):
        raise ProblemError(f"{where}: complex values must be finite [re, im] arrays")
    return complex(*(finite(x, where) for x in v))


def _require_keys(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ProblemError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ProblemError(f"{where}: unknown fields {sorted(unknown)}")


# -- problem parsing -----------------------------------------------------------


class Problem(NamedTuple):
    task: str
    theta: BlaschkeProduct
    clark: ClarkParams
    matrix: Optional[Sym3]
    config: SolverConfig  # defaults updated by the problem's options


def parse_problem(obj) -> Problem:
    _require_keys(obj, ("theta", "clark", "matrix", "task", "options"), "problem")
    task = obj.get("task")
    if task not in TASKS:
        raise ProblemError(f"task must be one of {', '.join(TASKS)}")

    tobj = obj.get("theta")
    _require_keys(tobj, ("zeros", "constant"), "theta")
    zeros_raw = tobj.get("zeros")
    if not isinstance(zeros_raw, list) or len(zeros_raw) != 3:
        raise ProblemError("theta.zeros: expected exactly 3 zeros (the lab works at order 3)")
    zeros = tuple(_parse_complex(z, "theta.zeros") for z in zeros_raw)
    constant = _parse_complex(tobj.get("constant", [1.0, 0.0]), "theta.constant")
    theta = BlaschkeProduct(zeros=zeros, front_constant=constant)

    cobj = obj.get("clark")
    if cobj is None:
        raise ProblemError("clark: block with t and alpha is required")
    _require_keys(cobj, ("t", "alpha"), "clark")
    clark = ClarkParams(
        t=_parse_complex(cobj.get("t"), "clark.t"),
        alpha=_parse_complex(cobj.get("alpha"), "clark.alpha"),
    )

    matrix = None
    mobj = obj.get("matrix")
    if mobj is not None:
        _require_keys(mobj, ("s",), "matrix")
        entries = mobj.get("s")
        if not isinstance(entries, list) or len(entries) != 6:
            raise ProblemError("matrix.s: expected exactly 6 [re, im] entries")
        matrix = Sym3(*(_parse_complex(v, "matrix.s") for v in entries))
    if matrix is None and task in ("check-detthm", "check-clark-s6", "solve-so3", "corollary"):
        raise ProblemError(f"matrix: required for task {task}")
    if task == "corollary":
        match_counterexample_family(matrix)

    options = obj.get("options", {})
    _require_keys(options, _OPTIONS, "options")
    return Problem(task, theta, clark, matrix, SolverConfig(**options))


def merge_config(config: SolverConfig, args) -> SolverConfig:
    """The problem's config, then the flags set in ``args``."""
    flags = {key: getattr(args, key) for key in _OPTIONS if getattr(args, key) is not None}
    return config._replace(**flags)


# -- report assembly -----------------------------------------------------------

# Each runner takes (problem, config, cb), cb the Clark basis that run_task
# builds, and returns the report fields it decides, as library values.


def _run_clark_basis(problem, config, cb):
    residuals = {
        "gram": cb.basis.gram_residual,
        "conjugation": cb.basis.conj_residual,
        "level_set": max(abs(problem.theta(e) - cb.omega) for e in cb.etas),
    }
    return {"verdict": True, "residuals": residuals, "details": {"omega": cb.omega}}


def _run_tto_matrix(problem, config, cb):
    m = tto_matrix_from_symbol(problem.theta, Symbol.shift(), cb.basis)
    s = Sym3.from_array(m.array, tol=TTO_SYM_TOL)
    residuals = {"symmetry": m.symmetry_defect()}
    return {"verdict": True, "residuals": residuals, "details": {"s": s.vector}}


def _run_check_detthm(problem, config, cb):
    pc = default_points(problem.theta)
    result = detthm_test(problem.matrix, cb.basis, pc, tol=config.tol)
    cert = result.certificate
    # np.abs gives inf where abs() of a huge complex raises OverflowError.
    residuals = {"determinant": np.abs(result.det_value), "certificate": cert.residual}
    return {
        "verdict": result.is_rep,
        "residuals": residuals,
        "certificate": {"mu": cert.mu},
        "details": {"det_value": result.det_value},
    }


def _run_check_clark_s6(problem, config, cb):
    result = clark_s6_test(problem.matrix, cb, tol=config.tol)
    return {
        "verdict": result.is_rep,
        "residuals": {"gap": result.gap},
        "details": {"predicted_s6": result.predicted_s6, **_RELATION},
    }


def _run_solve_so3(problem, config, cb):
    rep = solve(problem.matrix, cb, config)
    return {
        "verdict": True if rep.found else "not-found-within-budget",
        "residuals": {"relation": rep.best_residual, "certificate": rep.certificate.residual},
        "certificate": {"orthogonal": rep.best_matrix.r, "mu": rep.certificate.mu},
        "details": {
            "starts_used": rep.starts_used,
            "message": rep.message,
            "conjugated": rep.conjugated.vector,
        },
    }


def _run_corollary(problem, config, cb):
    family, a, b, c = match_counterexample_family(problem.matrix)
    co = counterexample_report(family, a, b, c, seed=config.seed)
    rep = solve(problem.matrix, cb, config)
    return {
        "verdict": co.all_rejected and rep.found,
        "residuals": {"normality": co.normal_defect, "relation": rep.best_residual},
        "certificate": {"orthogonal": rep.best_matrix.r},
        "details": {
            "description": "fails Clark test, representable via SO(3)",
            "family": co.family,
            "diagonal": (a, b, c),
            "trials": co.trials,
            "rejections": co.rejections,
            "min_gap": co.min_gap,
            "solver_starts_used": rep.starts_used,
        },
    }


_RUNNERS = {
    "clark-basis": _run_clark_basis,
    "tto-matrix": _run_tto_matrix,
    "check-detthm": _run_check_detthm,
    "check-clark-s6": _run_check_clark_s6,
    "solve-so3": _run_solve_so3,
    "corollary": _run_corollary,
}

TASKS = tuple(_RUNNERS)


def run_task(problem: Problem, config: SolverConfig) -> dict:
    """Run one task and build its report, each block encoded by ``_encode``.

    ``Indeterminate`` from any stage, the encoding included, gives verdict
    "indeterminate" with ``details.reason``; the report keeps its timing,
    and its basis block once the Clark basis is built.
    """
    start = time.perf_counter()
    report = {key: {} for key in _REPORT_KEYS}
    report.update(task=problem.task, verdict="indeterminate",
                  config=_encode({key: getattr(config, key) for key in _OPTIONS} | _RELATION))
    try:
        cb = modified_clark_basis(problem.theta, problem.clark)
        report["basis"] = _encode({"etas": cb.etas, "phases": cb.phases, "norms": cb.norms})
        # Encoded before the update, so a non-finite value leaves the report undecided.
        report.update(_encode(_RUNNERS[problem.task](problem, config, cb)))
    except Indeterminate as exc:
        report["details"] = {"reason": str(exc)}
    report["timing"]["seconds"] = _encode(time.perf_counter() - start)
    return report


def validate_report(obj) -> None:
    """Schema check used by tests and fixture verification."""
    if not isinstance(obj, dict):
        raise ValueError("report must be an object")
    unknown = set(obj) - set(_REPORT_KEYS)
    if unknown:
        raise ValueError(f"report: unknown fields {sorted(unknown)}")
    if obj.get("task") not in TASKS:
        raise ValueError("report: bad task")
    verdict = obj.get("verdict")
    if not (isinstance(verdict, bool) or verdict in _VERDICT_STRINGS):
        raise ValueError("report: bad verdict")

    def walk(v, where):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(x, f"{where}.{k}")
        elif isinstance(v, list):
            for i, x in enumerate(v):
                walk(x, f"{where}[{i}]")
        elif isinstance(v, float):
            finite(v, f"report number at {where}")

    walk(obj, "report")


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="model-space-lab",
        description="Decision procedures for matrix representations on 3-dimensional model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASKS:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True, help="problem JSON file")
        p.add_argument("--out", dest="outfile", required=True, help="report JSON file")
        p.add_argument("--tol", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--starts", type=int)
    fx = sub.add_parser("fixtures")
    fx.add_argument("--dir", default="fixtures")
    return parser


def _read_problem(path) -> Problem:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ProblemError("problem file is nested too deeply") from None
    return parse_problem(obj)


def _jobs(args) -> list:
    """The parse stage: (problem, config, report path) for each report to write.

    ``fixtures`` gives one job per ``<name>.problem.json`` in its directory,
    with the problem's own config, writing ``<name>.report.json`` next to it.
    """
    if args.command != "fixtures":
        problem = _read_problem(args.infile)
        if problem.task != args.command:
            raise ProblemError(
                f"problem file task {problem.task!r} does not match subcommand {args.command!r}"
            )
        return [(problem, merge_config(problem.config, args), args.outfile)]
    paths = sorted(Path(args.dir).glob("*.problem.json"))
    if not paths:
        raise ProblemError(f"no *.problem.json files in {args.dir}")
    jobs = []
    for path in paths:
        try:
            problem = _read_problem(path)
        except ValueError as exc:
            raise ProblemError(f"{path}: {exc}") from None
        report_name = path.name.removesuffix(".problem.json") + ".report.json"
        jobs.append((problem, problem.config, path.with_name(report_name)))
    return jobs


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        jobs = _jobs(args)
    except (ValueError, OSError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2

    code = 0
    for problem, config, outfile in jobs:
        report = run_task(problem, config)
        with open(outfile, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        if report["verdict"] == "indeterminate":
            print(f"error: indeterminate: {report['details']['reason']}", file=sys.stderr)
            code = 3
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
