"""Seeded benchmark workloads: input generators, problem runners and output checks.

Every workload draws a pool of problem specs (plain JSON-able dicts) from the
harness's numpy Generator, prepares each spec into library objects before any
timing, and runs one prepared problem to a verified outcome.  ``run`` returns
``(seconds, digest)``: the timed span of the problem and a value that must be
identical between a traced and an untraced run.  A wrong output raises
``CheckFailed``; any exception counts the problem as failed.

The library is reached only through module attributes (``clark.modified_...``)
so that a traced run sees every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from model_space_lab import blaschke, cli, clark, repcheck, tto

TOL = 1e-8           # the library's default representability tolerance
CALL_TIMEOUT = 120   # seconds before a hung CLI child is killed


class CheckFailed(Exception):
    """A problem finished but its output is wrong."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def child_env(root: Path) -> dict:
    """Environment for every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env.pop("MODEL_SPACE_LAB_SEED", None)  # would override the problems' seeds
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


# -- seeded draws ---------------------------------------------------------------


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cpx(pair) -> complex:
    return complex(pair[0], pair[1])


def _disc(rng, rmax: float) -> complex:
    """Area-uniform point in the disc of radius rmax."""
    return complex(rmax * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


def _unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _complex_symmetric(rng) -> list:
    """Six standard complex Gaussian entries; off the generator span almost surely."""
    return [_pair(v) for v in rng.standard_normal(6) + 1j * rng.standard_normal(6)]


def _rotation(rng) -> np.ndarray:
    """Random rotation from a QR decomposition with positive diagonal, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _family(rng, family: int) -> list:
    """Real normal counterexample family: diagonal (a, b, c) and a single unit entry."""
    s = [float(v) for v in rng.standard_normal(3)] + [0.0, 0.0, 0.0]
    s[{1: 4, 2: 3, 3: 5}[family]] = 1.0
    return [[v, 0.0] for v in s]


def _draw_space(rng):
    """Random order-3 product and Clark parameters, as a spec and its Clark basis.

    Zero radii stay below 0.85 and |t| below 0.6, as in the library's own
    sampler.  A draw whose level set or Clark target is numerically undefined
    is redrawn, the same rule the library applies to its random bases.
    """
    while True:
        space = {
            "zeros": [_pair(_disc(rng, 0.85)) for _ in range(3)],
            "constant": _pair(_unimodular(rng)),
            "t": _pair(_disc(rng, 0.6)),
            "alpha": _pair(_unimodular(rng)),
        }
        b, params = _space(space)
        try:
            return space, clark.modified_clark_basis(b, params)
        except (blaschke.LevelSetError, clark.ClarkTargetError):
            continue


def _space(spec):
    b = blaschke.BlaschkeProduct(tuple(_cpx(z) for z in spec["zeros"]), _cpx(spec["constant"]))
    return b, clark.ClarkParams(_cpx(spec["t"]), _cpx(spec["alpha"]))


def _conjugated_tto(rng, cb) -> list:
    """Random TTO in the basis ``cb``, conjugated by a random rotation (criterion 09)."""
    _, m = tto.random_tto(cb.theta, cb.basis, seed=int(rng.integers(2**31)))
    q = _rotation(rng)
    a = q @ m.array @ q.T
    a = (a + a.T) / 2.0
    return [_pair(a[i, j]) for i, j in repcheck.ROW_INDEX]


def _accepted_tto(rng, cb) -> list:
    _, m = tto.random_tto(cb.theta, cb.basis, seed=int(rng.integers(2**31)))
    return [_pair(v) for v in repcheck.Sym3.from_array(m.array, tol=1e-7).vector]


# -- independent checks ----------------------------------------------------------


def relation_residual(m, u, etas, coefficients) -> float:
    """|(eta3 - eta2) a6 - c4 a4 - c5 a5| of A = U M U^T, from the basis data alone."""
    a = u @ m @ u.T
    e1, e2, e3 = etas
    b = coefficients
    c4 = np.conj(b[2] / b[0]) * (e1 - e2)
    c5 = np.conj(b[1] / b[0]) * (e3 - e1)
    return float(abs((e3 - e2) * a[1, 2] - c4 * a[0, 1] - c5 * a[0, 2]))


def tree_close(a, b, where="report") -> None:
    """The fixture rule of tests/test_cli.py: same tree, floats within 1e-10, timing skipped."""
    _require(type(a) is type(b), f"{where}: {type(a).__name__} vs {type(b).__name__}")
    if isinstance(a, dict):
        _require(sorted(a) == sorted(b), f"{where}: keys differ")
        for key in a:
            if key != "timing":
                tree_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        _require(len(a) == len(b), f"{where}: lengths differ")
        for i, (x, y) in enumerate(zip(a, b)):
            tree_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        _require(abs(a - b) <= 1e-10, f"{where}: {a!r} vs {b!r}")
    else:
        _require(a == b, f"{where}: {a!r} vs {b!r}")


# -- workloads -------------------------------------------------------------------


class CliCold:
    """One ``python -m model_space_lab <task>`` child per problem, cycling all six tasks.

    Why: the documented way to use the lab.  Each call pays interpreter start
    and the numpy and scipy imports, so import and dependency changes show
    here; compute is a minority except for ``corollary``.
    """

    name = "cli-cold"
    rounds = 6  # each round runs the six tasks in order, so every sixth call is a corollary

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.peak_rss_kb = 0

    def generate(self, rng) -> list:
        """Round r gives each task its r-th committed fixture, or a seeded problem."""
        fixtures = {task: [] for task in cli.TASKS}
        for problem_file in sorted((self.root / "fixtures").glob("*.problem.json")):
            name = problem_file.name[: -len(".problem.json")]
            problem = json.loads(problem_file.read_text())
            report = json.loads((self.root / "fixtures" / f"{name}.report.json").read_text())
            fixtures[problem["task"]].append(
                {"name": name, "problem": problem, "expect": {"report": report}})
        specs = []
        for r in range(self.rounds):
            for task in cli.TASKS:
                given = fixtures[task]
                specs.append(given[r] if r < len(given) else self._generated(rng, task, r))
        return specs

    def _generated(self, rng, task: str, r: int) -> dict:
        space, cb = _draw_space(rng)
        problem = {
            "task": task,
            "theta": {"zeros": space["zeros"], "constant": space["constant"]},
            "clark": {"t": space["t"], "alpha": space["alpha"]},
            "options": {"seed": int(rng.integers(1000))},
        }
        verdict = True
        if task in ("check-detthm", "check-clark-s6"):
            # The two checks take opposite cases in each round, so both see both.
            verdict = (r + (task == "check-clark-s6")) % 2 == 0
            problem["matrix"] = {"s": _accepted_tto(rng, cb) if verdict else _complex_symmetric(rng)}
        elif task == "solve-so3":
            problem["matrix"] = {"s": _conjugated_tto(rng, cb)}
        elif task == "corollary":
            problem["matrix"] = {"s": _family(rng, 1 + r % 3)}
        return {"name": f"gen{r}-{task}", "problem": problem, "expect": {"verdict": verdict}}

    def prepare(self, spec: dict, tag) -> tuple:
        infile = self.workdir / f"problem-{tag}.json"
        infile.write_text(json.dumps(spec["problem"]))
        return spec, str(infile), str(self.workdir / f"report-{tag}.json")

    def _argv(self, prepared) -> list:
        spec, infile, outfile = prepared
        return [spec["problem"]["task"], "--in", infile, "--out", outfile]

    def run(self, prepared):
        """Child from spawn to exit; the report is checked after the clock stops."""
        spec, _, outfile = prepared
        if os.path.exists(outfile):
            os.remove(outfile)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "model_space_lab", *self._argv(prepared)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(CALL_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        _require(proc.returncode == 0, f"{spec['name']}: exit code {proc.returncode}")
        return seconds, self._check(spec, outfile)

    def run_inprocess(self, prepared):
        """The same problem through ``cli.run`` in this interpreter."""
        spec, _, outfile = prepared
        start = time.perf_counter()
        code = cli.run(self._argv(prepared))
        seconds = time.perf_counter() - start
        _require(code == 0, f"{spec['name']}: exit code {code}")
        return seconds, self._check(spec, outfile)

    def _check(self, spec: dict, outfile: str) -> str:
        report = json.loads(Path(outfile).read_text())
        cli.validate_report(report)
        expect = spec["expect"]
        if "report" in expect:
            tree_close(expect["report"], report, spec["name"])
        else:
            _require(report["verdict"] is expect["verdict"],
                     f"{spec['name']}: verdict {report['verdict']!r}")
            self._check_generated(spec["problem"], report)
        report.pop("timing")
        return json.dumps(report, sort_keys=True)

    @staticmethod
    def _check_generated(problem: dict, report: dict) -> None:
        task = problem["task"]
        zeros = [_cpx(z) for z in problem["theta"]["zeros"]]
        if task == "clark-basis":
            c = _cpx(problem["theta"]["constant"])
            omega = _cpx(report["details"]["omega"])
            for eta in (_cpx(e) for e in report["basis"]["etas"]):
                value = c * np.prod([(eta - w) / (1.0 - np.conj(w) * eta) for w in zeros])
                _require(abs(value - omega) < 1e-9, "level-set point misses the target")
        elif task == "tto-matrix":
            # The compressed shift has the zeros of B as its eigenvalues.
            trace = sum(_cpx(v) for v in report["details"]["s"][:3])
            _require(abs(trace - sum(zeros)) < 1e-9, "shift trace is not the sum of the zeros")
        elif task == "solve-so3":
            u = np.array(report["certificate"]["orthogonal"]).reshape(3, 3)
            _require(np.linalg.norm(u @ u.T - np.eye(3)) < 1e-10, "U is not orthogonal")
            _require(abs(np.linalg.det(u) - 1.0) < 1e-10, "det U is not +1")
            s = repcheck.Sym3(*(_cpx(v) for v in problem["matrix"]["s"]))
            basis = report["basis"]
            coefficients = np.array([_cpx(p) for p in basis["phases"]]) / np.array(basis["norms"])
            etas = [_cpx(e) for e in basis["etas"]]
            _require(relation_residual(s.array, u, etas, coefficients) < TOL,
                     "relation residual above tolerance")
        elif task == "corollary":
            details = report["details"]
            _require(details["rejections"] == details["trials"] == 100,
                     "a Clark basis accepted the counterexample")


class VerifyWarm:
    """In-process Clark basis, operator matrix, shift TTO and both decision procedures.

    Why: almost all of the time is boundary quadrature in modelspace, clark,
    tto and repcheck, and none is in so3solver: exact inner products should
    show here, and a solver change should not.
    """

    name = "verify-warm"
    pool_size = 240

    def __init__(self, root: Path, workdir: Path):
        pass

    def generate(self, rng) -> list:
        specs = []
        for _ in range(self.pool_size):
            space, _ = _draw_space(rng)
            specs.append({**space, "tto_seed": int(rng.integers(2**31)),
                          "reject": _complex_symmetric(rng)})
        return specs

    def prepare(self, spec: dict, tag) -> tuple:
        b, params = _space(spec)
        return b, params, spec["tto_seed"], repcheck.Sym3(*(_cpx(v) for v in spec["reject"]))

    def run(self, prepared):
        b, params, tto_seed, reject = prepared
        start = time.perf_counter()
        cb = clark.modified_clark_basis(b, params)
        # Criterion 02: the Clark basis diagonalizes U with unimodular eigenvalues.
        u = clark.clark_operator_matrix(b, params, cb.basis)
        kappa = np.diag(u)
        _require(np.linalg.norm(u - np.diag(kappa)) < TOL, "Clark basis is not an eigenbasis of U")
        _require(np.all(np.abs(np.abs(kappa) - 1.0) < TOL), "U has a non-unimodular eigenvalue")
        shift = tto.tto_matrix_from_symbol(b, tto.Symbol.shift(), cb.basis).array
        _require(np.linalg.norm(shift - shift.T) < TOL, "shift matrix is not symmetric")
        _require(abs(np.trace(shift) - sum(b.zeros)) < TOL, "shift trace is not the sum of the zeros")
        pc = repcheck.default_points(b)
        _, m = tto.random_tto(b, cb.basis, tto_seed, points=(pc.boundary, pc.interior))
        accept = repcheck.Sym3.from_array(m.array, tol=1e-7)
        digest = [kappa.tobytes(), shift.tobytes()]
        for s, expected in ((accept, True), (reject, False)):
            det = repcheck.detthm_test(s, cb.basis, pc)
            s6 = repcheck.clark_s6_test(s, cb)
            _require(bool(det.is_rep) is expected, f"determinant test gave {det.is_rep}, expected {expected}")
            _require(bool(s6.is_rep) is expected, f"s6 test gave {s6.is_rep}, expected {expected}")
            digest += [det.det_value, s6.predicted_s6]
        return time.perf_counter() - start, digest

    run_inprocess = run


WORKLOADS = {w.name: w for w in (CliCold, VerifyWarm)}


def make(name: str, root: Path, workdir: Path):
    return WORKLOADS[name](Path(root), Path(workdir))
