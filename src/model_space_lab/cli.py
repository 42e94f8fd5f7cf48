"""JSON-in/JSON-out command line for the decision procedures.

Six subcommands mirror the library: ``clark-basis``, ``tto-matrix``,
``check-detthm``, ``check-clark-s6``, ``solve-so3`` and ``corollary``; a
seventh, ``fixtures``, regenerates the golden problem/report pairs.  Problems
and reports are strict JSON with every complex number as a two-element
``[re, im]`` array and every float printed to 12 significant digits.

Exit codes: 0 = a decision was made (whatever the verdict), 2 = the input was
invalid (no report written), 3 = the computation was numerically indeterminate
(report written with verdict "indeterminate").  Each has one source: exit 2
comes only from the parse stage (reading the file, ``parse_problem`` and
``merge_config``), which runs before any computation, and exit 3 only from
``run_task`` catching ``Indeterminate``.  Any other error is a bug and
crashes with a traceback.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

from .blaschke import BlaschkeProduct
from .clark import ClarkParams, modified_clark_basis
from .config import Indeterminate
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

TASKS = (
    "clark-basis",
    "tto-matrix",
    "check-detthm",
    "check-clark-s6",
    "solve-so3",
    "corollary",
)

ENV_SEED = "MODEL_SPACE_LAB_SEED"

# The SolverConfig fields a problem file or a flag may set; max_evals is not one.
_OPTIONS = ("tol", "seed", "starts", "variant")

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


# -- number formatting ---------------------------------------------------------


def _round12(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise Indeterminate("non-finite value in report")
    return float(f"{x:.12g}")


def _cpair(z) -> list:
    z = complex(z)
    return [_round12(z.real), _round12(z.imag)]


def _is_number(v) -> bool:
    """A finite JSON number; comparing with the float maximum also refuses huge ints."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return abs(v) <= sys.float_info.max


def _parse_complex(v, where: str) -> complex:
    if not (isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v)):
        raise ProblemError(f"{where}: complex values must be finite [re, im] arrays")
    return complex(v[0], v[1])


def _require_keys(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ProblemError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ProblemError(f"{where}: unknown fields {sorted(unknown)}")


# -- problem parsing -----------------------------------------------------------


class Problem:
    def __init__(self, task, theta, clark, matrix, config):
        self.task = task
        self.theta = theta
        self.clark = clark
        self.matrix = matrix
        self.config = config  # defaults updated by the problem's options


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
    return Problem(task, theta, clark, matrix, replace(SolverConfig(), **options))


def merge_config(config: SolverConfig, args) -> SolverConfig:
    """The problem's config, then MODEL_SPACE_LAB_SEED, then the flags set in ``args``."""
    env = os.environ.get(ENV_SEED)
    if env is not None:
        if not env.strip().lstrip("-").isdecimal():
            raise ProblemError(f"{ENV_SEED} must be an integer, got {env!r}")
        config = replace(config, seed=int(env))
    flags = {key: getattr(args, key) for key in _OPTIONS if getattr(args, key) is not None}
    return replace(config, **flags)


# -- report assembly -----------------------------------------------------------


def _basis_block(cb) -> dict:
    return {
        "etas": [_cpair(e) for e in cb.etas],
        "phases": [_cpair(p) for p in cb.phases],
        "norms": [_round12(n) for n in cb.norms],
    }


def _config_block(config: SolverConfig) -> dict:
    return {
        "tol": _round12(config.tol),
        "seed": config.seed,
        "starts": config.starts,
        "variant": config.variant,
    }


# Each runner takes (problem, config, cb) and returns (verdict, residuals,
# certificate, details); run_task builds the Clark basis cb and its report block.


def _run_clark_basis(problem, config, cb):
    level_residual = max(abs(problem.theta(e) - cb.omega) for e in cb.etas)
    residuals = {
        "gram": _round12(cb.basis.gram_residual),
        "conjugation": _round12(cb.basis.conj_residual),
        "level_set": _round12(level_residual),
    }
    return True, residuals, {}, {"omega": _cpair(cb.omega)}


def _run_tto_matrix(problem, config, cb):
    m = tto_matrix_from_symbol(problem.theta, Symbol.shift(), cb.basis)
    s = Sym3.from_array(m.array, tol=1e-7)
    residuals = {"symmetry": _round12(m.symmetry_defect())}
    return True, residuals, {}, {"s": [_cpair(v) for v in s.vector]}


def _run_check_detthm(problem, config, cb):
    pc = default_points(problem.theta)
    result = detthm_test(problem.matrix, cb.basis, pc, tol=config.tol)
    residuals = {
        "determinant": _round12(abs(result.det_value)),
        "certificate": _round12(result.certificate.residual),
    }
    certificate = {"mu": [_cpair(v) for v in result.certificate.mu]}
    details = {"det_value": _cpair(result.det_value)}
    return bool(result.is_rep), residuals, certificate, details


def _run_check_clark_s6(problem, config, cb):
    result = clark_s6_test(problem.matrix, cb, variant=config.variant, tol=config.tol)
    gap = abs(problem.matrix.s6 - result.predicted_s6)
    details = {
        "predicted_s6": _cpair(result.predicted_s6),
        "variant": config.variant,
    }
    return bool(result.is_rep), {"gap": _round12(gap)}, {}, details


def _run_solve_so3(problem, config, cb):
    report = solve(problem.matrix, cb, config)
    verdict = True if report.found else "not-found-within-budget"
    residuals = {
        "relation": _round12(report.best_residual),
        "certificate": _round12(report.certificate.residual),
    }
    certificate = {
        "orthogonal": [_round12(x) for x in report.best_matrix.r],
        "mu": [_cpair(v) for v in report.certificate.mu],
    }
    details = {
        "starts_used": report.starts_used,
        "message": report.message,
        "conjugated": [_cpair(v) for v in report.conjugated.vector],
    }
    return verdict, residuals, certificate, details


def _run_corollary(problem, config, cb):
    family, a, b, c = match_counterexample_family(problem.matrix)
    co = counterexample_report(
        family,
        a,
        b,
        c,
        trials=100,
        seed=config.seed,
        variant=config.variant,
    )
    rep = solve(problem.matrix, cb, config)
    verdict = bool(co.all_rejected and rep.found)
    residuals = {
        "normality": _round12(co.normal_defect),
        "relation": _round12(rep.best_residual),
    }
    certificate = {"orthogonal": [_round12(x) for x in rep.best_matrix.r]}
    details = {
        "description": "fails Clark test, representable via SO(3)",
        "family": co.family,
        "diagonal": [_round12(a), _round12(b), _round12(c)],
        "trials": co.trials,
        "rejections": co.rejections,
        "min_gap": _round12(co.min_gap),
        "solver_starts_used": rep.starts_used,
    }
    return verdict, residuals, certificate, details


_RUNNERS = {
    "clark-basis": _run_clark_basis,
    "tto-matrix": _run_tto_matrix,
    "check-detthm": _run_check_detthm,
    "check-clark-s6": _run_check_clark_s6,
    "solve-so3": _run_solve_so3,
    "corollary": _run_corollary,
}


def run_task(problem: Problem, config: SolverConfig) -> dict:
    """Run one task and build its report.

    ``Indeterminate`` from any stage gives verdict "indeterminate" with
    ``details.reason``; the report keeps its timing, and its basis block once
    the Clark basis is built.
    """
    start = time.perf_counter()
    report = {
        "task": problem.task,
        "verdict": "indeterminate",
        "residuals": {},
        "certificate": {},
        "basis": {},
        "details": {},
        "timing": {},
        "config": _config_block(config),
    }
    try:
        cb = modified_clark_basis(problem.theta, problem.clark)
        report["basis"] = _basis_block(cb)
        verdict, residuals, certificate, details = _RUNNERS[problem.task](problem, config, cb)
        report.update(
            verdict=verdict, residuals=residuals, certificate=certificate, details=details
        )
    except Indeterminate as exc:
        report["details"] = {"reason": str(exc)}
    report["timing"]["seconds"] = _round12(time.perf_counter() - start)
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
        elif isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"report: non-finite number at {where}")

    walk(obj, "report")


# -- fixtures -------------------------------------------------------------------


def _fixture_problems():
    f1_theta = {"zeros": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "constant": [1.0, 0.0]}
    f2_theta = {"zeros": [[0.5, 0.0], [0.0, 0.0], [-0.5, 0.0]], "constant": [1.0, 0.0]}
    clark0 = {"t": [0.0, 0.0], "alpha": [1.0, 0.0]}

    def shift_matrix(theta_block):
        zeros = tuple(complex(z[0], z[1]) for z in theta_block["zeros"])
        b = BlaschkeProduct(zeros=zeros, front_constant=1.0)
        cb = modified_clark_basis(b, ClarkParams(0.0, 1.0))
        m = tto_matrix_from_symbol(b, Symbol.shift(), cb.basis)
        s = Sym3.from_array(m.array, tol=1e-7)
        return {"s": [_cpair(v) for v in s.vector]}

    f1_shift = shift_matrix(f1_theta)
    f2_shift = shift_matrix(f2_theta)
    family3 = {"s": [[0.0, 0.0]] * 5 + [[1.0, 0.0]]}

    entries = []
    for tag, theta in (("f1", f1_theta), ("f2", f2_theta)):
        entries.append((f"{tag}-clark-basis", {
            "task": "clark-basis", "theta": theta, "clark": clark0, "options": {},
        }))
        entries.append((f"{tag}-tto-matrix", {
            "task": "tto-matrix", "theta": theta, "clark": clark0, "options": {},
        }))
    entries.append(("f1-check-detthm", {
        "task": "check-detthm", "theta": f1_theta, "clark": clark0,
        "matrix": f1_shift, "options": {},
    }))
    entries.append(("f1-check-clark-s6", {
        "task": "check-clark-s6", "theta": f1_theta, "clark": clark0,
        "matrix": f1_shift, "options": {},
    }))
    entries.append(("f2-check-clark-s6", {
        "task": "check-clark-s6", "theta": f2_theta, "clark": clark0,
        "matrix": f2_shift, "options": {},
    }))
    entries.append(("f1-solve-so3", {
        "task": "solve-so3", "theta": f1_theta, "clark": clark0,
        "matrix": family3, "options": {"seed": 0},
    }))
    entries.append(("f1-corollary", {
        "task": "corollary", "theta": f1_theta, "clark": clark0,
        "matrix": family3, "options": {"seed": 0},
    }))
    return entries


def write_fixtures(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, problem_obj in _fixture_problems():
        problem = parse_problem(problem_obj)
        report = run_task(problem, problem.config)
        validate_report(report)
        with open(os.path.join(directory, f"{name}.problem.json"), "w") as fh:
            json.dump(problem_obj, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(directory, f"{name}.report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


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
        p.add_argument("--variant", choices=("paper", "general"))
    fx = sub.add_parser("fixtures")
    fx.add_argument("--dir", default="fixtures")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fixtures":
        write_fixtures(args.dir)
        return 0

    try:
        with open(args.infile) as fh:
            problem = parse_problem(json.load(fh))
        if problem.task != args.command:
            raise ProblemError(
                f"problem file task {problem.task!r} does not match subcommand {args.command!r}"
            )
        config = merge_config(problem.config, args)
    except (ValueError, OSError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2

    report = run_task(problem, config)
    with open(args.outfile, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if report["verdict"] == "indeterminate":
        print(f"error: indeterminate: {report['details']['reason']}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
