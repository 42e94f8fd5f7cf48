import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_space_lab import cli
from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.cli import run, validate_report
from model_space_lab.config import BASIS_TOL, ROOT_TOL
from model_space_lab.modelspace import BasisError
from model_space_lab.repcheck import IndeterminateError
from model_space_lab.so3solver import SolverConfig

W3 = np.exp(2j * np.pi / 3)

F1_THETA = {"zeros": [[0.0, 0.0]] * 3, "constant": [1.0, 0.0]}
CLARK0 = {"t": [0.0, 0.0], "alpha": [1.0, 0.0]}
FAMILY3 = {"s": [[0.0, 0.0]] * 5 + [[1.0, 0.0]]}


def cpx(pair):
    return complex(pair[0], pair[1])


def run_cli(tmp_path, problem, task=None, extra=(), name="problem"):
    task = task or problem.get("task")
    infile = tmp_path / f"{name}.json"
    outfile = tmp_path / f"{name}.report.json"
    infile.write_text(json.dumps(problem))
    code = run([task, "--in", str(infile), "--out", str(outfile), *extra])
    report = json.loads(outfile.read_text()) if outfile.exists() else None
    return code, report, outfile


def shift_problem(task, matrix=None):
    problem = {"task": task, "theta": F1_THETA, "clark": CLARK0, "options": {}}
    if matrix is not None:
        problem["matrix"] = matrix
    return problem


@pytest.fixture(scope="module")
def az_matrix():
    # Golden coordinates of the shift operator in the F1 Clark basis.
    vals = [
        2 / 3,
        2 * W3 / 3,
        2 * W3**2 / 3,
        np.exp(1j * np.pi / 3) / 3,
        W3 / 3,
        1 / 3,
    ]
    return {"s": [[float(v.real), float(v.imag)] for v in np.asarray(vals, complex)]}


def test_clark_basis_task(tmp_path):
    code, report, _ = run_cli(tmp_path, shift_problem("clark-basis"))
    assert code == 0
    validate_report(report)
    assert report["verdict"] is True
    etas = sorted(np.angle([cpx(e) for e in report["basis"]["etas"]]) % (2 * np.pi))
    np.testing.assert_allclose(etas, [0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-10)
    np.testing.assert_allclose(report["basis"]["norms"], [np.sqrt(3)] * 3, atol=1e-10)
    assert report["residuals"]["gram"] < 1e-10


def test_tto_matrix_task(tmp_path):
    code, report, _ = run_cli(tmp_path, shift_problem("tto-matrix"))
    assert code == 0
    validate_report(report)
    s = [cpx(v) for v in report["details"]["s"]]
    assert s[5] == pytest.approx(1 / 3, abs=1e-10)
    assert s[0] == pytest.approx(2 / 3, abs=1e-10)
    assert s[3] == pytest.approx(np.exp(1j * np.pi / 3) / 3, abs=1e-10)


def test_check_clark_s6_true(tmp_path, az_matrix):
    code, report, _ = run_cli(tmp_path, shift_problem("check-clark-s6", az_matrix))
    assert code == 0
    assert report["verdict"] is True
    assert report["residuals"]["gap"] < 1e-10
    assert cpx(report["details"]["predicted_s6"]) == pytest.approx(1 / 3, abs=1e-10)


def test_check_detthm_accepts_and_rejects(tmp_path, az_matrix):
    code, report, _ = run_cli(tmp_path, shift_problem("check-detthm", az_matrix))
    assert code == 0 and report["verdict"] is True
    assert len(report["certificate"]["mu"]) == 5
    code, report, _ = run_cli(
        tmp_path, shift_problem("check-detthm", FAMILY3), name="reject"
    )
    assert code == 0
    assert report["verdict"] is False
    assert report["residuals"]["certificate"] > 1e-3


def test_solve_so3_task(tmp_path):
    code, report, _ = run_cli(tmp_path, shift_problem("solve-so3", FAMILY3))
    assert code == 0
    assert report["verdict"] is True
    u = np.array(report["certificate"]["orthogonal"]).reshape(3, 3)
    assert np.linalg.norm(u @ u.T - np.eye(3)) < 1e-8
    assert report["residuals"]["relation"] < 1e-8
    assert report["residuals"]["certificate"] < 1e-8


def test_corollary_task(tmp_path):
    code, report, _ = run_cli(tmp_path, shift_problem("corollary", FAMILY3))
    assert code == 0
    assert report["verdict"] is True
    assert report["details"]["description"] == "fails Clark test, representable via SO(3)"
    assert report["details"]["rejections"] == 100
    assert report["details"]["family"] == 3
    assert report["residuals"]["normality"] < 1e-12


# -- invalid input ------------------------------------------------------------


def test_malformed_json_exits_2_without_report(tmp_path):
    infile = tmp_path / "bad.json"
    outfile = tmp_path / "bad.report.json"
    infile.write_text("{ not json")
    code = run(["clark-basis", "--in", str(infile), "--out", str(outfile)])
    assert code == 2
    assert not outfile.exists()


def test_missing_input_file_exits_2(tmp_path):
    code = run(
        ["clark-basis", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")]
    )
    assert code == 2


def test_unknown_field_rejected(tmp_path):
    problem = shift_problem("clark-basis")
    problem["surprise"] = 1
    code, report, _ = run_cli(tmp_path, problem)
    assert code == 2 and report is None


def test_unknown_option_rejected(tmp_path):
    problem = shift_problem("clark-basis")
    problem["options"] = {"tolerance": 1e-8}
    code, report, _ = run_cli(tmp_path, problem)
    assert code == 2 and report is None


def test_quadrature_points_option_rejected(tmp_path):
    # Inner products are exact, so there is no grid size to set: both the
    # problem-file option and the command-line flag are invalid input.
    problem = shift_problem("clark-basis")
    problem["options"] = {"quadrature_points": 4096}
    code, report, _ = run_cli(tmp_path, problem)
    assert code == 2 and report is None
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, shift_problem("clark-basis"), extra=("--quadrature-points", "512"))
    assert exc.value.code == 2


def test_task_subcommand_mismatch(tmp_path):
    code, report, _ = run_cli(tmp_path, shift_problem("clark-basis"), task="tto-matrix")
    assert code == 2 and report is None


def test_invalid_parameters_exit_2(tmp_path):
    bad_alpha = shift_problem("clark-basis")
    bad_alpha["clark"] = {"t": [0.0, 0.0], "alpha": [0.5, 0.0]}
    code, report, _ = run_cli(tmp_path, bad_alpha)
    assert code == 2 and report is None

    bad_zero = shift_problem("clark-basis")
    bad_zero["theta"] = {"zeros": [[1.5, 0.0]], "constant": [1.0, 0.0]}
    code, report, _ = run_cli(tmp_path, bad_zero, name="p2")
    assert code == 2 and report is None

    missing_matrix = shift_problem("check-detthm")
    code, report, _ = run_cli(tmp_path, missing_matrix, name="p3")
    assert code == 2 and report is None

    bad_family = shift_problem("corollary", {"s": [[0.0, 0.0]] * 4 + [[1.0, 0.0]] * 2})
    code, report, _ = run_cli(tmp_path, bad_family, name="p4")
    assert code == 2 and report is None

    # The family is checked before the Clark basis is built, so a product
    # whose level set misses ROOT_TOL does not turn invalid input into exit 3.
    bad_family["theta"] = {"zeros": [[0.99999999, 0.0]] * 3, "constant": [1.0, 0.0]}
    code, report, _ = run_cli(tmp_path, bad_family, name="p5")
    assert code == 2 and report is None


@pytest.fixture
def no_computation(monkeypatch):
    # Invalid input is decided before any computation: building the Clark
    # basis, the first step of every task, fails the test.
    def refuse(theta, params):
        pytest.fail("the computation started on invalid input")

    monkeypatch.setattr(cli, "modified_clark_basis", refuse)


@pytest.mark.parametrize(
    "flag",
    ["--starts=0", "--starts=-3", "--tol=0", "--tol=-1", "--tol=nan", "--tol=inf", "--seed=-1"],
)
def test_invalid_flag_exits_2_before_computation(tmp_path, no_computation, flag):
    code, report, _ = run_cli(tmp_path, shift_problem("solve-so3", FAMILY3), extra=(flag,))
    assert code == 2 and report is None


def test_invalid_problem_exits_2_before_computation(tmp_path, no_computation):
    # An order other than 3, an int beyond float range and a pair whose
    # modulus overflows are invalid input.
    huge = [1.7e308, 1.7e308]
    edits = (
        ("theta", "zeros", [[0.0, 0.0]] * 2),
        ("theta", "zeros", [huge] * 3),
        ("theta", "constant", huge),
        ("clark", "t", [10**400, 0]),
        ("clark", "t", huge),
        ("clark", "alpha", huge),
    )
    for k, (block, field, value) in enumerate(edits):
        problem = shift_problem("clark-basis")
        problem[block] = dict(problem[block], **{field: value})
        code, report, _ = run_cli(tmp_path, problem, name=f"p{k}")
        assert code == 2 and report is None, (block, field)


OPTIONS = ("tol", "seed", "starts", "variant")
BAD_VALUES = (
    None, True, False, "x", [], [1.0, 0.0, 2.0], {}, {"a": 1}, 10**400, -(10**400), 1e308, -1e308
)
FIELDS = (
    ("task",),
    ("theta",),
    ("theta", "zeros"),
    ("theta", "zeros", 0),
    ("theta", "zeros", 1, 0),
    ("theta", "constant"),
    ("theta", "constant", 1),
    ("clark",),
    ("clark", "t"),
    ("clark", "t", 0),
    ("clark", "alpha"),
    ("clark", "alpha", 1),
    ("matrix",),
    ("matrix", "s"),
    ("matrix", "s", 5),
    ("matrix", "s", 0, 0),
    ("options",),
) + tuple(("options", key) for key in OPTIONS)


@settings(max_examples=300, deadline=None)
@given(
    # at most one edit per top-level field, so every path exists when applied
    edits=st.lists(
        st.tuples(st.sampled_from(FIELDS), st.sampled_from(BAD_VALUES)),
        max_size=3,
        unique_by=lambda edit: edit[0][0],
    ),
    flags=st.dictionaries(
        st.sampled_from(OPTIONS), st.sampled_from(BAD_VALUES + (3, 1e-6, "paper"))
    ),
)
def test_parse_stage_raises_only_value_error(edits, flags):
    # The parse stage (parse_problem, then merge_config) is the only source of
    # exit 2, and the CLI maps only ValueError there, so no malformed field,
    # option or flag may escape as another exception.
    problem = shift_problem("corollary", FAMILY3)
    problem["options"] = {"tol": 1e-6, "seed": 1, "starts": 5, "variant": "general"}
    problem = json.loads(json.dumps(problem))
    for path, value in edits:
        parent = problem
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    args = argparse.Namespace(**{key: flags.get(key) for key in OPTIONS})
    try:
        problem = cli.parse_problem(json.loads(json.dumps(problem)))
        config = cli.merge_config(problem.config, args)
    except ValueError:
        return
    assert isinstance(config, SolverConfig)


def test_indeterminate_exits_3_with_report(tmp_path):
    # A triple zero this close to the circle makes |B'| reach 6e8 at the
    # level set, so round-off alone puts |B(eta) - omega| at 6e-9, above
    # ROOT_TOL, and the run is declared indeterminate.
    problem = {
        "task": "clark-basis",
        "theta": {"zeros": [[0.99999999, 0.0]] * 3, "constant": [1.0, 0.0]},
        "clark": CLARK0,
        "options": {},
    }
    code, report, _ = run_cli(tmp_path, problem)
    assert code == 3
    assert report is not None
    assert report["verdict"] == "indeterminate"
    assert "level-set" in report["details"]["reason"]
    validate_report(report)


def test_gram_failure_exits_3_with_report(tmp_path, monkeypatch):
    # A Clark basis that misses BASIS_TOL is numerical indeterminacy: the run
    # writes a report naming the Gram residual and exits 3, not 2.  The input
    # that once did this (zeros crowding the circle) is now decided and lives
    # in test_zero_near_circle_is_decided, so the failure is injected here.
    def failing_basis(theta, params):
        raise BasisError("Gram residual 1.070e-08 is not below 1.0e-08")

    monkeypatch.setattr(cli, "modified_clark_basis", failing_basis)
    code, report, _ = run_cli(tmp_path, shift_problem("clark-basis"))
    assert code == 3
    assert report["verdict"] == "indeterminate"
    assert "Gram residual" in report["details"]["reason"]
    validate_report(report)


def test_clark_target_round_off_exits_3(tmp_path):
    # |1 + conj(B(t)) alpha| >= 1 - |B(t)| > 0 for every t in the disc, so
    # a target that vanishes numerically is indeterminacy, not invalid input.
    problem = shift_problem("clark-basis")
    problem["clark"] = {"t": [0.9999999999999, 0.0], "alpha": [-1.0, 0.0]}
    code, report, _ = run_cli(tmp_path, problem)
    assert code == 3
    assert report["verdict"] == "indeterminate"
    assert "numerically zero" in report["details"]["reason"]


def test_indeterminate_report_keeps_basis_and_timing(tmp_path, monkeypatch, az_matrix):
    def ill_conditioned(*args, **kwargs):
        raise IndeterminateError("fifth singular value 1.000e-11 below floor 1.0e-10")

    monkeypatch.setattr(cli, "detthm_test", ill_conditioned)
    code, report, _ = run_cli(tmp_path, shift_problem("check-detthm", az_matrix))
    assert code == 3
    validate_report(report)
    assert report["verdict"] == "indeterminate"
    assert "fifth singular value" in report["details"]["reason"]
    assert len(report["basis"]["etas"]) == 3
    assert report["timing"]["seconds"] > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_exits_3_with_report(tmp_path):
    # Entries of 1e200 are valid input, but the determinant of the 6x6
    # column matrix overflows: that is indeterminacy, not invalid input.
    matrix = {"s": [[1e200, 0.0]] * 6}
    code, report, _ = run_cli(tmp_path, shift_problem("check-detthm", matrix))
    assert code == 3
    validate_report(report)
    assert report["verdict"] == "indeterminate"
    assert "non-finite" in report["details"]["reason"]


@pytest.mark.parametrize("radius", [0.99999, 0.999999])
def test_near_degenerate_clark_target_is_decided(tmp_path, radius):
    # alpha = -B(t)/|B(t)| makes 1 + conj(B(t)) alpha small but above the
    # ClarkTargetError guard.  omega is unimodular exactly; round-off of
    # about eps/|den| in |omega| must not turn valid input into exit 2.
    rng = np.random.default_rng(1)
    for k in range(40):
        zeros = 0.5 * np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
        t = radius * np.exp(2j * np.pi * rng.random())
        bt = BlaschkeProduct(tuple(zeros))(t)
        alpha = -bt / abs(bt)
        problem = shift_problem("clark-basis")
        problem["theta"] = {"zeros": [[w.real, w.imag] for w in zeros], "constant": [1.0, 0.0]}
        problem["clark"] = {"t": [t.real, t.imag], "alpha": [alpha.real, alpha.imag]}
        code, report, _ = run_cli(tmp_path, problem, name=f"draw{k}")
        assert code == 0, report
        assert report["residuals"]["gram"] < BASIS_TOL
        assert report["residuals"]["conjugation"] < BASIS_TOL
        assert report["residuals"]["level_set"] < ROOT_TOL


def test_zero_near_circle_is_decided(tmp_path):
    # Valid input with zeros near the circle gets a basis, not an
    # indeterminate verdict.  With a triple zero at 0.999 the kernel norms
    # are 30-77, so an absolute vanishing test at the other level-set points
    # would refuse it; the crowded zeros once left a Gram residual of 1.07e-8.
    single = {"zeros": [[0.999, 0.0], [0.0, 0.0], [0.0, 0.0]], "constant": [1.0, 0.0]}
    triple = {"zeros": [[0.999, 0.0]] * 3, "constant": [1.0, 0.0]}
    crowded = {
        "zeros": [
            [-0.20999638132814988, -0.9777011403440635],
            [-0.997203711151543, 0.07471785908730219],
            [-0.19248560865844017, -0.9812987773661953],
        ],
        "constant": [-0.3428893266294106, 0.9393758085471594],
    }
    crowded_clark = {
        "t": [-0.1762958309807192, -0.39977471654740204],
        "alpha": [-0.6220064241390778, -0.7830121380475003],
    }
    cases = (
        (single, CLARK0),
        (triple, {"t": [0.1, 0.2], "alpha": [1.0, 0.0]}),
        (crowded, crowded_clark),
    )
    for k, (theta, clark) in enumerate(cases):
        problem = shift_problem("clark-basis")
        problem["theta"], problem["clark"] = theta, clark
        code, report, _ = run_cli(tmp_path, problem, name=f"p{k}")
        assert code == 0
        validate_report(report)
        assert report["verdict"] is True
        assert report["residuals"]["gram"] < BASIS_TOL
        assert report["residuals"]["conjugation"] < BASIS_TOL


@pytest.mark.parametrize("radius", [0.999, 0.9999])
def test_near_circle_triple_zeros_are_decided(tmp_path, radius):
    # A triple zero at a random angle with random t (|t| = 0.3) and alpha:
    # the level set comes from a normal matrix and the basis from closed-form
    # kernel coordinates, so every draw gets a basis within BASIS_TOL.
    rng = np.random.default_rng(int(radius * 1e4))
    for k in range(50):
        w = radius * np.exp(2j * np.pi * rng.random())
        t = 0.3 * np.exp(2j * np.pi * rng.random())
        alpha = np.exp(2j * np.pi * rng.random())
        problem = shift_problem("clark-basis")
        problem["theta"] = {"zeros": [[w.real, w.imag]] * 3, "constant": [1.0, 0.0]}
        problem["clark"] = {"t": [t.real, t.imag], "alpha": [alpha.real, alpha.imag]}
        code, report, _ = run_cli(tmp_path, problem, name=f"draw{k}")
        assert code == 0, report
        assert report["residuals"]["gram"] < BASIS_TOL
        assert report["residuals"]["conjugation"] < BASIS_TOL
        assert report["residuals"]["level_set"] < ROOT_TOL


# -- option precedence ---------------------------------------------------------


def test_seed_precedence(tmp_path, monkeypatch):
    problem = shift_problem("clark-basis")
    problem["options"] = {"seed": 5}

    monkeypatch.delenv("MODEL_SPACE_LAB_SEED", raising=False)
    _, report, _ = run_cli(tmp_path, problem, name="a")
    assert report["config"]["seed"] == 5

    monkeypatch.setenv("MODEL_SPACE_LAB_SEED", "7")
    _, report, _ = run_cli(tmp_path, problem, name="b")
    assert report["config"]["seed"] == 7

    _, report, _ = run_cli(tmp_path, problem, extra=("--seed", "9"), name="c")
    assert report["config"]["seed"] == 9

    monkeypatch.setenv("MODEL_SPACE_LAB_SEED", "not-a-number")
    code, report, _ = run_cli(tmp_path, problem, name="d")
    assert code == 2


def test_variant_flag_echoed(tmp_path, az_matrix):
    _, report, _ = run_cli(
        tmp_path,
        shift_problem("check-clark-s6", az_matrix),
        extra=("--variant", "paper"),
    )
    assert report["config"]["variant"] == "paper"
    assert report["details"]["variant"] == "paper"
    assert report["verdict"] is True  # equal norms: variants coincide on this fixture


# -- report hygiene -------------------------------------------------------------


def _walk_floats(v):
    if isinstance(v, dict):
        for x in v.values():
            yield from _walk_floats(x)
    elif isinstance(v, list):
        for x in v:
            yield from _walk_floats(x)
    elif isinstance(v, float):
        yield v


def test_report_floats_are_12_digit_stable(tmp_path, az_matrix):
    _, report, _ = run_cli(tmp_path, shift_problem("check-detthm", az_matrix))
    for x in _walk_floats(report):
        assert math.isfinite(x)
        assert x == float(f"{x:.12g}")


def test_report_round_trips_through_parser(tmp_path, az_matrix):
    _, report, outfile = run_cli(tmp_path, shift_problem("solve-so3", az_matrix))
    again = json.loads(outfile.read_text())
    validate_report(again)
    assert again == report


# -- fixtures -------------------------------------------------------------------

ALL_FIXTURES = (
    "f1-clark-basis",
    "f1-tto-matrix",
    "f2-clark-basis",
    "f2-tto-matrix",
    "f1-check-detthm",
    "f1-check-clark-s6",
    "f2-check-clark-s6",
    "f1-solve-so3",
    "f1-corollary",
)


def assert_tree_close(a, b, where="root"):
    assert type(a) is type(b), f"{where}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), where
        for k in a:
            if k == "timing":
                continue
            assert_tree_close(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_tree_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a == pytest.approx(b, abs=1e-10), where
    else:
        assert a == b, where


@pytest.fixture(scope="module")
def generated_fixtures(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    assert run(["fixtures", "--dir", str(outdir)]) == 0
    return outdir


def test_fixtures_cover_all_tasks(generated_fixtures):
    tasks = set()
    for name in ALL_FIXTURES:
        problem = json.loads((generated_fixtures / f"{name}.problem.json").read_text())
        report = json.loads((generated_fixtures / f"{name}.report.json").read_text())
        validate_report(report)
        assert report["task"] == problem["task"]
        tasks.add(problem["task"])
    assert len(tasks) == 6


def test_fixture_golden_values(generated_fixtures):
    basis_report = json.loads(
        (generated_fixtures / "f1-clark-basis.report.json").read_text()
    )
    etas = sorted(
        np.angle([cpx(e) for e in basis_report["basis"]["etas"]]) % (2 * np.pi)
    )
    np.testing.assert_allclose(etas, [0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-10)

    tto_report = json.loads((generated_fixtures / "f1-tto-matrix.report.json").read_text())
    assert cpx(tto_report["details"]["s"][5]) == pytest.approx(1 / 3, abs=1e-10)

    for name, expected in (
        ("f1-check-detthm", True),
        ("f1-check-clark-s6", True),
        ("f2-check-clark-s6", True),
        ("f1-solve-so3", True),
        ("f1-corollary", True),
    ):
        report = json.loads((generated_fixtures / f"{name}.report.json").read_text())
        assert report["verdict"] is expected, name


def test_fixture_regeneration_idempotent(generated_fixtures, tmp_path):
    assert run(["fixtures", "--dir", str(tmp_path)]) == 0
    for name in ALL_FIXTURES:
        for kind in ("problem", "report"):
            first = json.loads((generated_fixtures / f"{name}.{kind}.json").read_text())
            second = json.loads((tmp_path / f"{name}.{kind}.json").read_text())
            assert_tree_close(first, second, where=f"{name}.{kind}")


def test_committed_fixtures_match_regeneration(generated_fixtures):
    committed = Path(__file__).resolve().parents[1] / "fixtures"
    assert committed.is_dir(), "fixtures/ directory missing from the repository"
    for name in ALL_FIXTURES:
        for kind in ("problem", "report"):
            repo_file = committed / f"{name}.{kind}.json"
            assert repo_file.exists(), repo_file
            fresh = json.loads((generated_fixtures / f"{name}.{kind}.json").read_text())
            stored = json.loads(repo_file.read_text())
            assert_tree_close(stored, fresh, where=f"{name}.{kind}")


# Run in a fresh interpreter where every scipy import fails.
_NO_SCIPY = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None
from model_space_lab.cli import run
out = Path(sys.argv[1])
for path in map(Path, sys.argv[2:]):
    task = json.loads(path.read_text())["task"]
    code = run([task, "--in", str(path), "--out", str(out / path.name)])
    if code != 0:
        sys.exit(f"{path.name}: exit {code}")
"""


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: every committed problem, which
    # together cover all six tasks, still reaches a decision.
    root = Path(__file__).resolve().parents[1]
    problems = sorted(str(p) for p in (root / "fixtures").glob("*.problem.json"))
    tasks = {json.loads(Path(p).read_text())["task"] for p in problems}
    assert len(tasks) == 6
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path), *problems],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
