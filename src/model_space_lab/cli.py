"""JSON-in/JSON-out command line for the decision procedures.

Six subcommands mirror the library: ``clark-basis``, ``tto-matrix``,
``check-detthm``, ``check-clark-s6``, ``solve-so3`` and ``corollary``; a
seventh, ``fixtures --dir DIR``, rewrites ``<name>.report.json`` for every
``<name>.problem.json`` in DIR and never writes a problem file.  Problems
and reports are strict JSON with every complex number as a two-element
``[re, im]`` array and every float printed to 12 significant digits.  All
seven subcommands take one path: turn each (problem file, report path) pair
into a job, then ``run_task`` and write each report.  A problem's ``options``
and the flags ``--tol``, ``--seed`` and ``--starts`` (read by ``_parse_argv``
from a table; no argparse is imported) set the three fields of its
``SolverConfig``; the report's ``config`` echoes them with the name of the one
Clark relation.

Exit codes: 0 = a decision was made (whatever the verdict), 2 = the input was
invalid (no report written), 3 = the computation was numerically indeterminate
(report written with verdict "indeterminate").  Each has one source: exit 2
comes only from the parse stage ``_jobs``, which runs before any computation
(a problem file that cannot be read, fails ``parse_problem`` or names another
task, a flag that fails ``merge_config``, a report path that does not resolve
(a symlink loop) or resolves to a directory, into a missing one or to the
problem file, a DIR without problem files), and exit 3 only from ``run_task``
catching ``Indeterminate``.  Any other error is a bug and crashes with a traceback.

``main``, the process entry point, freezes the imported heap (``gc.freeze()``)
before ``run``, so interpreter shutdown does not walk numpy's objects; ``run``,
which in-process callers use, freezes nothing.
"""

import gc
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
    TRIALS,
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
    config: SolverConfig  # defaults updated by the problem's options, then the flags (merge_config)


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


def merge_config(problem: Problem, flags: dict) -> Problem:
    """The problem with the options among ``flags`` (``_parse_argv``'s dict) set in its config."""
    options = {key: flags[key] for key in _OPTIONS if key in flags}
    return problem._replace(config=problem.config._replace(**options))


# -- report assembly -----------------------------------------------------------

# Each runner takes (problem, cb), cb the Clark basis that run_task builds,
# and returns the report fields it decides, as library values.


def _run_clark_basis(problem, cb):
    residuals = {
        "gram": cb.basis.gram_residual,
        "conjugation": cb.basis.conj_residual,
        "level_set": max(abs(problem.theta(e) - cb.omega) for e in cb.etas),
    }
    return {"verdict": True, "residuals": residuals, "details": {"omega": cb.omega}}


def _run_tto_matrix(problem, cb):
    m = tto_matrix_from_symbol(problem.theta, Symbol.shift(), cb.basis)
    s = Sym3.from_array(m.array, tol=TTO_SYM_TOL)
    residuals = {"symmetry": np.linalg.norm(m.array - m.array.T)}
    return {"verdict": True, "residuals": residuals, "details": {"s": s.vector}}


def _run_check_detthm(problem, cb):
    pc = default_points(problem.theta)
    result = detthm_test(problem.matrix, cb.basis, pc, tol=problem.config.tol)
    cert = result.certificate
    # np.abs gives inf where abs() of a huge complex raises OverflowError.
    residuals = {"determinant": np.abs(result.det_value), "certificate": cert.residual}
    return {
        "verdict": result.is_rep,
        "residuals": residuals,
        "certificate": {"mu": cert.mu},
        "details": {"det_value": result.det_value},
    }


def _run_check_clark_s6(problem, cb):
    result = clark_s6_test(problem.matrix, cb, tol=problem.config.tol)
    return {
        "verdict": result.is_rep,
        "residuals": {"gap": result.gap},
        "details": {"predicted_s6": result.predicted_s6, **_RELATION},
    }


def _run_solve_so3(problem, cb):
    rep = solve(problem.matrix, cb, problem.config)
    return {
        "verdict": True if rep.found else "not-found-within-budget",
        "residuals": {"relation": rep.best_residual, "certificate": rep.certificate.residual},
        "certificate": {"orthogonal": rep.best_matrix.reshape(9), "mu": rep.certificate.mu},
        "details": {
            "starts_used": rep.starts_used,
            "message": rep.message,
            "conjugated": rep.conjugated.vector,
        },
    }


def _run_corollary(problem, cb):
    family, a, b, c = match_counterexample_family(problem.matrix)
    co = counterexample_report(problem.matrix, seed=problem.config.seed)
    rep = solve(problem.matrix, cb, problem.config)
    return {
        "verdict": co.rejections == TRIALS and rep.found,
        "residuals": {"normality": co.normal_defect, "relation": rep.best_residual},
        "certificate": {"orthogonal": rep.best_matrix.reshape(9)},
        "details": {
            "description": "fails Clark test, representable via SO(3)",
            "family": family,
            "diagonal": (a, b, c),
            "trials": TRIALS,
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


def run_task(problem: Problem) -> dict:
    """Run one task with ``problem.config`` and build its report, each block encoded by ``_encode``.

    ``Indeterminate`` from any stage, the encoding included, gives verdict
    "indeterminate" with ``details.reason``; the report keeps its timing,
    and its basis block once the Clark basis is built.
    """
    start = time.perf_counter()
    report = {key: {} for key in _REPORT_KEYS}
    report.update(task=problem.task, verdict="indeterminate",
                  config=_encode({key: getattr(problem.config, key) for key in _OPTIONS} | _RELATION))
    try:
        cb = modified_clark_basis(problem.theta, problem.clark)
        report["basis"] = _encode({"etas": cb.etas, "phases": cb.phases, "norms": cb.norms})
        # Encoded before the update, so a non-finite value leaves the report undecided.
        report.update(_encode(_RUNNERS[problem.task](problem, cb)))
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
    json.dumps(obj, allow_nan=False)  # ValueError for an inf or NaN at any depth


# -- entry point ----------------------------------------------------------------


_USAGE = (f"usage: model-space-lab {{{','.join(TASKS)}}} --in F --out F [--tol X] [--seed N] [--starts N]"
          " | fixtures [--dir D]")
_FLAGS = {f"--{name}": kind for name, kind in zip(("in", "out") + _OPTIONS, (str, str, float, int, int))}


def _parse_argv(argv) -> tuple:
    """(command, flags) of argv read by ``_USAGE``: ``--flag value`` or ``--flag=value``, the last
    repeat winning, no prefixes.  ``-h`` prints the usage and exits 0; any other argv exits 2."""
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        raise SystemExit(0)
    command, *rest = argv or [""]
    types, flags = ({"--dir": str}, {"dir": "fixtures"}) if command == "fixtures" else (_FLAGS, {})
    try:
        while rest:
            flag, eq, value = rest.pop(0).partition("=")
            flags[flag[2:]] = types[flag](value if eq else rest.pop(0))
        if command == "fixtures" or command in TASKS and {"in", "out"} <= flags.keys():
            return command, flags
    except (KeyError, IndexError, ValueError):
        pass
    print(_USAGE, file=sys.stderr)
    raise SystemExit(2)


def _jobs(command: str, flags: dict) -> list:
    """The parse stage: (problem, report path) for each report to write.

    Each pair of files, ``--in`` and ``--out`` or every ``<name>.problem.json`` of
    ``fixtures``' DIR and its ``<name>.report.json``, goes one way: read the problem
    (an error names the file), match its task to a task subcommand, merge the flags,
    and refuse a report path that does not resolve or resolves to a directory, into a missing one
    or to the problem.  A symlink loop raises ``RuntimeError`` in ``resolve`` before Python 3.13
    and resolves to a link from 3.13 on; both are refused.
    """
    if command == "fixtures":
        paths = sorted(Path(flags["dir"]).glob("*.problem.json"))
        if not paths:
            raise ProblemError(f"no *.problem.json files in {flags['dir']}")
        pairs = [(p, p.with_name(p.name.removesuffix(".problem.json") + ".report.json")) for p in paths]
    else:
        pairs = [(Path(flags["in"]), Path(flags["out"]))]
    jobs = []
    for infile, outfile in pairs:
        try:
            with open(infile) as fh:
                problem = parse_problem(json.load(fh))
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
            raise ProblemError(f"{infile}: {exc}") from None
        if command not in ("fixtures", problem.task):
            raise ProblemError(f"{infile}: task {problem.task!r} does not match subcommand {command!r}")
        try:
            out = outfile.resolve()
        except RuntimeError as exc:
            raise ProblemError(f"{outfile}: {exc}") from None
        if out.is_symlink() or out.is_dir() or not out.parent.is_dir() or (
                out.exists() and out.samefile(infile)):
            raise ProblemError(f"{outfile}: must name a file in an existing directory, not the problem file")
        jobs.append((merge_config(problem, flags), outfile))
    return jobs


def run(argv=None) -> int:
    command, flags = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    try:
        jobs = _jobs(command, flags)
    except (ValueError, OSError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2

    code = 0
    for problem, outfile in jobs:
        report = run_task(problem)
        with open(outfile, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        if report["verdict"] == "indeterminate":
            print(f"error: indeterminate: {report['details']['reason']}", file=sys.stderr)
            code = 3
    return code


def main() -> None:
    gc.freeze()  # the imported modules live until exit, so no collection needs to walk them
    sys.exit(run())


if __name__ == "__main__":
    main()
