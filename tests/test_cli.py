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

from model_space_lab import blaschke, cli, repcheck, sampling, so3solver
from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.clark import ClarkParams, clark_operator_matrix, modified_clark_basis
from model_space_lab.cli import run, validate_report
from model_space_lab.config import BASIS_TOL, ROOT_TOL
from model_space_lab.modelspace import BasisError
from model_space_lab.repcheck import IndeterminateError, Sym3, clark_s6_test, default_points, detthm_test
from model_space_lab.so3solver import SolverConfig, solve
from model_space_lab.tto import Symbol, random_tto, tto_matrix_from_symbol

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


@pytest.mark.parametrize("option, value", [("quadrature_points", 512), ("variant", "general"), ("variant", "paper")])
def test_removed_option_rejected(tmp_path, no_computation, option, value):
    # Inner products are exact, so there is no grid size to set, and there is one
    # Clark relation, so there is none to choose: the problem-file option and the
    # command-line flag are unknown input, refused before any computation.
    problem = shift_problem("clark-basis")
    problem["options"] = {option: value}
    code, report, _ = run_cli(tmp_path, problem)
    assert code == 2 and report is None
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, shift_problem("clark-basis"), extra=("--" + option.replace("_", "-"), str(value)))
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


def test_invalid_problem_option_exits_2_before_computation(tmp_path, no_computation):
    # The problem's options go through the same SolverConfig check as the flags.
    problem = shift_problem("check-clark-s6", FAMILY3)
    problem["options"] = {"starts": 0}
    code, report, _ = run_cli(tmp_path, problem)
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


OPTIONS = ("tol", "seed", "starts")
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
    problem["options"] = {"tol": 1e-6, "seed": 1, "starts": 5}
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


def test_overflow_exits_3_with_report(tmp_path):
    # Entries of 1e308 are valid input, and the test decides them on the
    # matrix scaled to unit size, but the determinant it reports overflows
    # when scaled back: that is indeterminacy, not invalid input.
    matrix = {"s": [[1e308, 0.0]] * 6}
    code, report, _ = run_cli(tmp_path, shift_problem("check-detthm", matrix))
    assert code == 3
    validate_report(report)
    assert report["verdict"] == "indeterminate"
    assert "non-finite" in report["details"]["reason"]


@pytest.mark.parametrize("task", ["check-detthm", "check-clark-s6", "solve-so3"])
@pytest.mark.parametrize("entry", [[1e308, 0.0], [1e308, 1e308], [1.7e308, 1.7e308]])
@pytest.mark.parametrize("count", [1, 6])
def test_float_maximum_is_decided_or_indeterminate(tmp_path, task, entry, count):
    # Valid entries whose modulus, or whose products, exceed the float
    # maximum: the procedures run on S scaled to unit size, so the run
    # decides, or reports a value that overflows when scaled back, and
    # never crashes.
    matrix = {"s": [entry] * count + [[0.0, 0.0]] * (6 - count)}
    code, report, _ = run_cli(tmp_path, shift_problem(task, matrix))
    assert code in (0, 3)
    validate_report(report)
    assert (code == 3) == (report["verdict"] == "indeterminate")


def test_deeply_nested_problem_exits_2(tmp_path):
    infile = tmp_path / "nested.json"
    outfile = tmp_path / "nested.report.json"
    infile.write_text("[" * 100_000)
    code = run(["clark-basis", "--in", str(infile), "--out", str(outfile)])
    assert code == 2
    assert not outfile.exists()


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


# -- edge sweep ------------------------------------------------------------------


def _pair(z):
    return [float(z.real), float(z.imag)]


@st.composite
def edge_problems(draw):
    """Valid problems at the edges: zeros and t near the circle, entries from
    10^-300 up to parts near the float maximum, whose modulus overflows."""

    def unimodular():
        return complex(np.exp(2j * np.pi * draw(st.floats(0, 1))))

    def disc(rmax):
        return draw(st.floats(0, rmax)) * unimodular()

    task = draw(st.sampled_from(cli.TASKS))
    w = disc(0.9999)
    layout = draw(st.sampled_from(("triple", "near-pair", "random")))
    if layout == "triple":
        zeros = [w] * 3
    elif layout == "near-pair":
        zeros = [w, w * (1 - draw(st.floats(1e-9, 1e-5))), disc(0.9999)]
    else:
        zeros = [w, disc(0.9999), disc(0.9999)]
    problem = {
        "task": task,
        "theta": {"zeros": [_pair(z) for z in zeros], "constant": _pair(unimodular())},
        "clark": {"t": _pair(disc(0.999999)), "alpha": _pair(unimodular())},
        "options": {"starts": draw(st.integers(1, 4)), "seed": draw(st.integers(0, 999))},
    }
    # Half the draws put parts near the float maximum, where |entry| overflows.
    scale = 10.0 ** draw(st.one_of(st.floats(-300, 300), st.floats(307, 308.25)))
    entry = st.floats(-1, 1)
    if task == "corollary":
        diagonal = [[scale * draw(entry), 0.0] for _ in range(3)]
        slot = draw(st.integers(3, 5))
        unit = [[float(k == slot), 0.0] for k in range(3, 6)]
        problem["matrix"] = {"s": diagonal + unit}
    elif task != "clark-basis":
        problem["matrix"] = {"s": [[scale * draw(entry), scale * draw(entry)] for _ in range(6)]}
    return problem


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=edge_problems())
def test_edge_sweep_valid_input_is_decided_or_indeterminate(problem):
    # Valid input always parses, and every run ends in a report that
    # validates: a decision, or "indeterminate" with the reason.
    parsed = cli.parse_problem(json.loads(json.dumps(problem)))
    report = cli.run_task(parsed, parsed.config)
    validate_report(report)
    if report["verdict"] == "indeterminate":
        assert report["details"]["reason"]


# -- option precedence ---------------------------------------------------------


def test_seed_precedence(tmp_path, monkeypatch):
    problem = shift_problem("clark-basis")
    problem["options"] = {"seed": 5}

    _, report, _ = run_cli(tmp_path, problem, name="a")
    assert report["config"]["seed"] == 5

    _, report, _ = run_cli(tmp_path, problem, extra=("--seed", "9"), name="b")
    assert report["config"]["seed"] == 9

    # The environment is not a seed source.
    monkeypatch.setenv("MODEL_SPACE_LAB_SEED", "7")
    code, report, _ = run_cli(tmp_path, problem, name="c")
    assert code == 0
    assert report["config"]["seed"] == 5


def test_integer_tol_reports_a_float(tmp_path, az_matrix):
    problem = shift_problem("check-clark-s6", az_matrix)
    problem["options"] = {"tol": 1}
    _, report, _ = run_cli(tmp_path, problem)
    assert isinstance(report["config"]["tol"], float) and report["config"]["tol"] == 1.0


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


COMMITTED = Path(__file__).resolve().parents[1] / "fixtures"


def copy_problems(outdir):
    for path in COMMITTED.glob("*.problem.json"):
        (outdir / path.name).write_bytes(path.read_bytes())


@pytest.fixture(scope="module")
def generated_fixtures(tmp_path_factory):
    # The committed problem files are the golden inputs; fixtures writes a
    # report next to each.
    outdir = tmp_path_factory.mktemp("fixtures")
    copy_problems(outdir)
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
    copy_problems(tmp_path)
    assert run(["fixtures", "--dir", str(tmp_path)]) == 0
    for name in ALL_FIXTURES:
        first = json.loads((generated_fixtures / f"{name}.report.json").read_text())
        second = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert_tree_close(first, second, where=f"{name}.report")


def test_committed_fixtures_match_regeneration(generated_fixtures):
    assert COMMITTED.is_dir(), "fixtures/ directory missing from the repository"
    for name in ALL_FIXTURES:
        repo_file = COMMITTED / f"{name}.report.json"
        assert repo_file.exists(), repo_file
        fresh = json.loads((generated_fixtures / f"{name}.report.json").read_text())
        stored = json.loads(repo_file.read_text())
        assert_tree_close(stored, fresh, where=f"{name}.report")


def test_fixtures_leave_problem_files_untouched(generated_fixtures):
    for name in ALL_FIXTURES:
        fresh = (generated_fixtures / f"{name}.problem.json").read_bytes()
        assert fresh == (COMMITTED / f"{name}.problem.json").read_bytes(), name


def test_fixtures_without_problem_files_exit_2(tmp_path, no_computation):
    assert run(["fixtures", "--dir", str(tmp_path)]) == 2
    assert run(["fixtures", "--dir", str(tmp_path / "missing")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_fixtures_malformed_problem_exits_2_before_computation(tmp_path, no_computation):
    # One bad problem file refuses the whole directory: no report is written.
    copy_problems(tmp_path)
    (tmp_path / "f1-zz-broken.problem.json").write_text("{ not json")
    assert run(["fixtures", "--dir", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.report.json"))


# -- work counts ------------------------------------------------------------------


@pytest.fixture
def piece_builds(monkeypatch):
    """Counts of product constructions, Clark-chain blocks of the sampler and piece builds.

    ``product_stack`` and ``compressed_shifts`` are counted wherever a library
    module binds them, so a call from any module is seen.
    """
    counts = dict.fromkeys(("products", "blocks", "product_stack", "compressed_shifts"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("product_stack", "compressed_shifts"):
        original = getattr(blaschke, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("model_space_lab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    monkeypatch.setattr(sampling, "clark_rows", counting("blocks", sampling.clark_rows))
    monkeypatch.setattr(BlaschkeProduct, "__new__",
                        staticmethod(counting("products", BlaschkeProduct.__new__)))
    return counts


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_builds_product_pieces_once(name, piece_builds):
    # One product per problem, its pieces built once at construction; the
    # sampler of the corollary task builds them once per block of draws.
    parsed = cli.parse_problem(json.loads((COMMITTED / f"{name}.problem.json").read_text()))
    assert cli.run_task(parsed, parsed.config)["verdict"] is True
    assert piece_builds["products"] == 1
    assert piece_builds["blocks"] == (name == "f1-corollary")
    assert piece_builds["product_stack"] == piece_builds["compressed_shifts"] == 1 + piece_builds["blocks"]


def test_verify_sequence_builds_no_pieces(piece_builds):
    # The verify-warm sequence on a fresh product: every level set, the
    # operator matrix and the shift TTO read the pieces built at construction.
    b = BlaschkeProduct((0.5, 0.0, -0.5), 1j)
    assert piece_builds == {"products": 1, "blocks": 0, "product_stack": 1, "compressed_shifts": 1}
    params = ClarkParams(0.1 + 0.2j, 1.0)
    cb = modified_clark_basis(b, params)
    clark_operator_matrix(b, params, cb.basis)
    tto_matrix_from_symbol(b, Symbol.shift(), cb.basis)
    pc = default_points(b)
    _, m = random_tto(b, cb.basis, 7, points=(pc.boundary, pc.interior))
    assert detthm_test(m, cb.basis, pc).is_rep
    assert not detthm_test(Sym3(1, 2, 3, 4, 5, 6j), cb.basis, pc).is_rep
    assert piece_builds == {"products": 1, "blocks": 0, "product_stack": 1, "compressed_shifts": 1}


def _verify_sequence():
    """The verify-warm sequence on one problem: Clark basis, Clark unitary, shift, both tests."""
    b = BlaschkeProduct((0.5, 0.0, -0.5), 1j)
    params = ClarkParams(0.1 + 0.2j, 1.0)
    cb = modified_clark_basis(b, params)
    clark_operator_matrix(b, params, cb.basis)
    tto_matrix_from_symbol(b, Symbol.shift(), cb.basis)
    pc = default_points(b)
    _, m = random_tto(b, cb.basis, 7, points=(pc.boundary, pc.interior))
    accept = Sym3.from_array(m.array, tol=1e-7)
    for s, expected in ((accept, True), (Sym3(1, 2, 3, 4, 5, 6j), False)):
        assert detthm_test(s, cb.basis, pc).is_rep is expected
        assert clark_s6_test(s, cb).is_rep is expected


def test_verify_sequence_scales_back_once_per_result(monkeypatch):
    # The verify-warm sequence: each decision scales its stacked numbers back
    # with one ldexp, so 1 per test of one S; normalizing S takes a bare np.ldexp.
    calls = []
    ldexp = repcheck._ldexp
    monkeypatch.setattr(repcheck, "_ldexp", lambda x, e: calls.append(e) or ldexp(x, e))
    _verify_sequence()
    assert len(calls) == 4


def test_verify_sequence_factors_once_per_decision(monkeypatch):
    # One SVD per set of generator columns (random_tto and each detthm_test),
    # whose certificate comes from that SVD, not from a second factorization by
    # lstsq; each span is built by build_columns, the one span function, which
    # the benchmark tracer sees; and one TMW pass per point set: the Clark basis
    # at its level set, Clark's unitary at t, and the columns at the default points.
    calls = {"tmw_rows": 0, "lstsq": 0, "svd": 0, "build_columns": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("tmw_rows", blaschke.tmw_rows), ("build_columns", repcheck.build_columns)):
        for module in list(sys.modules.values()):
            if module.__name__.startswith("model_space_lab") and vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    for name in ("lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    _verify_sequence()
    assert calls == {"tmw_rows": 5, "lstsq": 0, "svd": 3, "build_columns": 3}


def test_solve_scales_back_once(monkeypatch):
    # Normalizing S takes a bare np.ldexp; the certificate's detthm_test scales
    # its numbers back with one ldexp, and solve its own with one more: 2 per solve.
    calls = []
    ldexp = repcheck._ldexp

    def counted(x, e):
        calls.append(e)
        return ldexp(x, e)

    monkeypatch.setattr(repcheck, "_ldexp", counted)
    monkeypatch.setattr(so3solver, "_ldexp", counted)
    cb = modified_clark_basis(BlaschkeProduct((0.5, 0.0, -0.5), 1j), ClarkParams(0.1 + 0.2j, 1.0))
    for s in (Sym3(1, 2, 3, 4, 5, 6j), Sym3(1, 2, 3, 0.5, 0.25, 0.125)):
        calls.clear()
        solve(s, cb, SolverConfig(starts=4))
        assert len(calls) == 2


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
