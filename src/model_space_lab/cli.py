"""JSON-in/JSON-out command line for the decision procedures.

Six subcommands mirror the library: ``clark-basis``, ``tto-matrix``,
``check-detthm``, ``check-clark-s6``, ``solve-so3`` and ``corollary``; a
seventh, ``fixtures``, regenerates the golden problem/report pairs.  Problems
and reports are strict JSON with every complex number as a two-element
``[re, im]`` array and every float printed to 12 significant digits.

Exit codes: 0 = a decision was made (whatever the verdict), 2 = the input was
invalid (no report written), 3 = the computation was numerically indeterminate
(report written with verdict "indeterminate").
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .blaschke import BlaschkeProduct
from .clark import ClarkParams, modified_clark_basis
from .config import REP_TOL
from .repcheck import (
    Sym3,
    clark_s6_test,
    counterexample_report,
    default_points,
    detthm_test,
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

_OPTION_DEFAULTS = {
    "tol": REP_TOL,
    "seed": 0,
    "starts": 100,
    "variant": "general",
}

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
        raise ValueError("non-finite value in report")
    return float(f"{x:.12g}")


def _cpair(z) -> list:
    z = complex(z)
    return [_round12(z.real), _round12(z.imag)]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


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
    def __init__(self, task, theta, clark, matrix, options):
        self.task = task
        self.theta = theta
        self.clark = clark
        self.matrix = matrix
        self.options = options


def parse_problem(obj) -> Problem:
    _require_keys(obj, ("theta", "clark", "matrix", "task", "options"), "problem")
    task = obj.get("task")
    if task not in TASKS:
        raise ProblemError(f"task must be one of {', '.join(TASKS)}")

    tobj = obj.get("theta")
    _require_keys(tobj, ("zeros", "constant"), "theta")
    zeros_raw = tobj.get("zeros")
    if not isinstance(zeros_raw, list) or not zeros_raw:
        raise ProblemError("theta.zeros: expected a non-empty list")
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
        _match_family(matrix)

    options = obj.get("options", {})
    _require_keys(options, _OPTION_DEFAULTS, "options")
    if "tol" in options and not (_is_number(options["tol"]) and options["tol"] > 0):
        raise ProblemError("options.tol: expected a positive number")
    for key in ("seed", "starts"):
        if key in options and not (isinstance(options[key], int) and not isinstance(options[key], bool)):
            raise ProblemError(f"options.{key}: expected an integer")
    if "starts" in options and options["starts"] < 1:
        raise ProblemError("options.starts: expected a positive integer")
    if "variant" in options and options["variant"] not in ("paper", "general"):
        raise ProblemError("options.variant: expected 'paper' or 'general'")

    return Problem(task, theta, clark, matrix, dict(options))


def effective_options(problem_options: dict, args) -> dict:
    """Merge defaults, problem options, environment, and flags (in that order)."""
    eff = dict(_OPTION_DEFAULTS)
    eff.update(problem_options)
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            eff["seed"] = int(env)
        except ValueError:
            raise ProblemError(f"{ENV_SEED} must be an integer, got {env!r}")
    for key in _OPTION_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            eff[key] = flag
    return eff


# -- report assembly -----------------------------------------------------------


def _basis_block(cb) -> dict:
    return {
        "etas": [_cpair(e) for e in cb.etas],
        "phases": [_cpair(p) for p in cb.phases],
        "norms": [_round12(n) for n in cb.norms],
    }


def _config_block(eff: dict) -> dict:
    return {
        "tol": _round12(eff["tol"]),
        "seed": int(eff["seed"]),
        "starts": int(eff["starts"]),
        "variant": eff["variant"],
    }


def _solver_config(eff: dict) -> SolverConfig:
    return SolverConfig(
        starts=eff["starts"], tol=eff["tol"], seed=eff["seed"], variant=eff["variant"]
    )


# Each runner takes (problem, eff, cb) and returns (verdict, residuals,
# certificate, details); run_task builds the Clark basis cb and its report block.


def _run_clark_basis(problem, eff, cb):
    level_residual = max(abs(problem.theta(e) - cb.omega) for e in cb.etas)
    residuals = {
        "gram": _round12(cb.basis.gram_residual),
        "conjugation": _round12(cb.basis.conj_residual),
        "level_set": _round12(level_residual),
    }
    return True, residuals, {}, {"omega": _cpair(cb.omega)}


def _run_tto_matrix(problem, eff, cb):
    m = tto_matrix_from_symbol(problem.theta, Symbol.shift(), cb.basis)
    s = Sym3.from_array(m.array, tol=1e-7)
    residuals = {"symmetry": _round12(m.symmetry_defect())}
    return True, residuals, {}, {"s": [_cpair(v) for v in s.vector]}


def _run_check_detthm(problem, eff, cb):
    pc = default_points(problem.theta)
    result = detthm_test(problem.matrix, cb.basis, pc, tol=eff["tol"])
    residuals = {
        "determinant": _round12(abs(result.det_value)),
        "certificate": _round12(result.certificate.residual),
    }
    certificate = {"mu": [_cpair(v) for v in result.certificate.mu]}
    details = {"det_value": _cpair(result.det_value)}
    return bool(result.is_rep), residuals, certificate, details


def _run_check_clark_s6(problem, eff, cb):
    result = clark_s6_test(problem.matrix, cb, variant=eff["variant"], tol=eff["tol"])
    gap = abs(problem.matrix.s6 - result.predicted_s6)
    details = {
        "predicted_s6": _cpair(result.predicted_s6),
        "variant": eff["variant"],
    }
    return bool(result.is_rep), {"gap": _round12(gap)}, {}, details


def _run_solve_so3(problem, eff, cb):
    report = solve(problem.matrix, cb, _solver_config(eff))
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


def _match_family(s: Sym3):
    """Recognize which of the three counterexample patterns the matrix is."""
    vec = s.vector
    if np.abs(vec.imag).max() > 1e-12:
        raise ProblemError("corollary: matrix entries must be real")
    a, b, c, s4, s5, s6 = vec.real
    off = {"s4": s4, "s5": s5, "s6": s6}
    ones = [k for k, v in off.items() if abs(v - 1.0) < 1e-12]
    zeros = [k for k, v in off.items() if abs(v) < 1e-12]
    if len(ones) != 1 or len(zeros) != 2:
        raise ProblemError(
            "corollary: off-diagonal entries must be a single 1 and two 0s"
        )
    family = {"s5": 1, "s4": 2, "s6": 3}[ones[0]]
    return family, a, b, c


def _run_corollary(problem, eff, cb):
    family, a, b, c = _match_family(problem.matrix)
    co = counterexample_report(
        family,
        a,
        b,
        c,
        trials=100,
        seed=eff["seed"],
        variant=eff["variant"],
    )
    rep = solve(problem.matrix, cb, _solver_config(eff))
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


def run_task(problem: Problem, eff: dict) -> dict:
    start = time.perf_counter()
    cb = modified_clark_basis(problem.theta, problem.clark)
    verdict, residuals, certificate, details = _RUNNERS[problem.task](problem, eff, cb)
    elapsed = time.perf_counter() - start
    return {
        "task": problem.task,
        "verdict": verdict,
        "residuals": residuals,
        "certificate": certificate,
        "basis": _basis_block(cb),
        "details": details,
        "timing": {"seconds": _round12(elapsed)},
        "config": _config_block(eff),
    }


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
        eff = dict(_OPTION_DEFAULTS)
        eff.update(problem.options)
        report = run_task(problem, eff)
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
            raw = json.load(fh)
        problem = parse_problem(raw)
        if problem.task != args.command:
            raise ProblemError(
                f"problem file task {problem.task!r} does not match subcommand {args.command!r}"
            )
        eff = effective_options(problem.options, args)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_task(problem, eff)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        report = {
            "task": problem.task,
            "verdict": "indeterminate",
            "residuals": {},
            "certificate": {},
            "basis": {},
            "details": {"reason": str(exc)},
            "timing": {"seconds": 0.0},
            "config": _config_block(eff),
        }
        with open(args.outfile, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"error: indeterminate: {exc}", file=sys.stderr)
        return 3

    with open(args.outfile, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
