import gc
import importlib
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_space_lab import blaschke, clark, cli, repcheck, so3solver
from model_space_lab.blaschke import BlaschkeProduct
from model_space_lab.clark import ClarkParams, modified_clark_basis
from model_space_lab.cli import run, validate_report
from model_space_lab.config import BASIS_TOL, ROOT_TOL, Indeterminate
from model_space_lab.modelspace import BasisError
from model_space_lab.repcheck import IndeterminateError, Sym3
from model_space_lab.so3solver import SolverConfig, solve
from model_space_lab.tto import random_tto

from conftest import ROOT, oracle_clark_mp
from oracles import random_blaschke, random_clark_params

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


@pytest.mark.parametrize(
    "out",
    ["{dir}/./problem.json", "{dir}", "{dir}/missing/report.json", "{dir}/link.json", "{dir}/loop.json"],
    ids=["in-file", "directory", "missing-dir", "dangling-link", "symlink-loop"],
)
def test_unwritable_out_exits_2_before_computation(tmp_path, no_computation, out):
    # The --in file itself, a directory, a path in a missing directory, a
    # link into one and a link to itself are refused with the input, so no
    # problem file is overwritten and no run ends in a traceback after its
    # computation.  Python < 3.13 raises RuntimeError on the loop, 3.13 resolves it to the link.
    infile, text = tmp_path / "problem.json", json.dumps(shift_problem("check-detthm", FAMILY3))
    infile.write_text(text)
    (tmp_path / "link.json").symlink_to(tmp_path / "missing" / "report.json")
    (tmp_path / "loop.json").symlink_to(tmp_path / "loop.json")
    assert run(["check-detthm", "--in", str(infile), "--out", out.format(dir=tmp_path)]) == 2
    assert infile.read_text() == text
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == [infile]


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
    try:
        problem = cli.merge_config(cli.parse_problem(json.loads(json.dumps(problem))), flags)
    except ValueError:
        return
    assert isinstance(problem.config, SolverConfig)


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
def edge_problems(draw, tasks=cli.TASKS):
    """Valid problems at the edges: zeros and t near the circle, entries from
    10^-300 up to parts near the float maximum, whose modulus overflows."""

    def unimodular():
        return complex(np.exp(2j * np.pi * draw(st.floats(0, 1))))

    def disc(rmax):
        return draw(st.floats(0, rmax)) * unimodular()

    task = draw(st.sampled_from(tasks))
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
    report = cli.run_task(parsed)
    validate_report(report)
    if report["verdict"] == "indeterminate":
        assert report["details"]["reason"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=edge_problems(tasks=("check-detthm",)))
def test_edge_sweep_decided_verdicts_agree(problem):
    # On a Clark basis the two procedures decide one question, so on the same
    # draw their verdicts agree wherever both decide.
    verdicts = []
    for task in ("check-detthm", "check-clark-s6"):
        parsed = cli.parse_problem(json.loads(json.dumps({**problem, "task": task})))
        verdicts.append(cli.run_task(parsed)["verdict"])
    if "indeterminate" not in verdicts:
        assert verdicts[0] is verdicts[1]


# -- symmetries ------------------------------------------------------------------


def test_zero_order_leaves_every_report_unchanged():
    # Permuting the zeros leaves the product unchanged, so its level sets, its
    # Clark basis and each report are the same: every order gives the identity
    # order's verdict and report within the 1e-10 rule, on an accepted TTO and
    # on a random S for the two checks.  A report prints 12 significant digits,
    # so a value above 10 whose orders differ by 4e-13 can still print 1e-10
    # apart: rel=1e-11, one unit in the last printed digit, admits that step.
    rng = np.random.default_rng(29)
    orders = list(itertools.permutations(range(3)))
    decided = 0
    for draw in range(40):
        b, params = random_blaschke(rng), random_clark_params(rng)
        random_s = Sym3(*(rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        try:
            accepted = random_tto(b, modified_clark_basis(b, params).basis, seed=draw)[1]
        except Indeterminate:
            continue
        decided += 1
        problem = {"clark": {"t": _pair(params.t), "alpha": _pair(params.alpha)}, "options": {}}
        cases = [("clark-basis", None), ("tto-matrix", None)]
        cases += [(task, s) for task in ("check-detthm", "check-clark-s6") for s in (accepted, random_s)]
        for task, s in cases:
            if s is not None:
                problem["matrix"] = {"s": [_pair(x) for x in s]}
            reports = []
            for order in orders:
                zeros = [_pair(b.zeros[i]) for i in order]
                problem.update(task=task, theta={"zeros": zeros, "constant": _pair(b.front_constant)})
                reports.append(cli.run_task(cli.parse_problem(problem)))
            for order, report in zip(orders[1:], reports[1:]):
                assert_tree_close(reports[0], report, f"draw {draw} {task} {order}", rel=1e-11)
    assert decided >= 30
    print(f"zero order: {decided} of 40 draws x 6 problems x 5 orders agree")


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


def test_flag_grammar(tmp_path, capsys):
    # --flag value and --flag=value, the last repeat winning; no prefix abbreviations.
    problem = shift_problem("clark-basis")
    _, report, _ = run_cli(tmp_path, problem, extra=("--seed=3", "--starts", "2", "--seed", "9"))
    assert (report["config"]["seed"], report["config"]["starts"]) == (9, 2)
    for extra in (("--st", "4"), ("--seed", "1.5"), ("--tol",), ("stray",), ("--dir", "x"), ("-s", "1")):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, problem, extra=extra, name="bad")
        assert exc.value.code == 2, extra
        assert capsys.readouterr().err.startswith("usage: model-space-lab {clark-basis,"), extra
    for argv in ([], ["clark-basis"], ["clark-basis", "--in", "p.json"], ["fixtures", "--tol", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            run(["corollary", flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: model-space-lab ")


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


def assert_tree_close(a, b, where="root", rel=0.0):
    assert type(a) is type(b), f"{where}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), where
        for k in a:
            if k == "timing":
                continue
            assert_tree_close(a[k], b[k], f"{where}.{k}", rel)
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_tree_close(x, y, f"{where}[{i}]", rel)
    elif isinstance(a, float):
        assert a == pytest.approx(b, abs=1e-10, rel=rel), where
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


def test_committed_basis_blocks_match_mpmath():
    # The basis block of every committed report against the 50-digit Clark
    # basis of its problem's theta and (t, alpha): etas, phases and norms.
    worst = {}
    for name in ALL_FIXTURES:
        problem = cli.parse_problem(json.loads((COMMITTED / f"{name}.problem.json").read_text()))
        basis = json.loads((COMMITTED / f"{name}.report.json").read_text())["basis"]
        etas, phases, norms, _ = oracle_clark_mp(problem.theta, problem.clark.t, problem.clark.alpha, ())
        gaps = (np.abs([cpx(e) for e in basis["etas"]] - etas),
                np.abs([cpx(p) for p in basis["phases"]] - phases),
                np.abs(np.array(basis["norms"]) - norms))
        worst[name] = max(gap.max() for gap in gaps)
    print(f"committed basis blocks against mpmath: worst gap {max(worst.values()):.2g} "
          f"({max(worst, key=worst.get)})")
    assert max(worst.values()) <= 1e-10, worst


def test_committed_s6_numbers_match_mpmath():
    # predicted_s6 and the gap of the committed s6 reports against the relation
    # (c4, c5, eta3 - eta2) evaluated at 50 digits on the 50-digit Clark basis:
    # c4 = conj(b3/b1)(eta1 - eta2), c5 = conj(b2/b1)(eta3 - eta1), b_i = phase_i / norm_i.
    worst = {}
    for name in ("f1-check-clark-s6", "f2-check-clark-s6"):
        problem = cli.parse_problem(json.loads((COMMITTED / f"{name}.problem.json").read_text()))
        report = json.loads((COMMITTED / f"{name}.report.json").read_text())
        etas, phases, norms, _ = oracle_clark_mp(problem.theta, problem.clark.t, problem.clark.alpha, ())
        with mpmath.workdps(50):
            eta1, eta2, eta3 = (mpmath.mpc(complex(e)) for e in etas)
            b1, b2, b3 = (mpmath.mpc(complex(p)) / mpmath.mpf(float(n)) for p, n in zip(phases, norms))
            s4, s5, s6 = (mpmath.mpc(complex(v)) for v in problem.matrix.vector[3:])
            c4 = mpmath.conj(b3 / b1) * (eta1 - eta2)
            c5 = mpmath.conj(b2 / b1) * (eta3 - eta1)
            predicted = (c4 * s4 + c5 * s5) / (eta3 - eta2)
            gap = abs(s6 - predicted)
        worst[name] = max(abs(cpx(report["details"]["predicted_s6"]) - complex(predicted)),
                          abs(report["residuals"]["gap"] - float(gap)))
    print(f"committed s6 numbers against mpmath: worst gap {max(worst.values()):.2g} "
          f"({max(worst, key=worst.get)})")
    assert max(worst.values()) <= 1e-10, worst


def test_committed_tto_matrices_match_mpmath():
    # details.s of the committed tto-matrix reports against <A_z v_j, v_i> at 50 digits,
    # v_i = b_i k_{eta_i} on the 50-digit Clark basis, b_i = phase_i / norm_i.  Both
    # are in K_B, so <A_z v_j, v_i> is the circle mean of z v_j conj(v_i): a trapezoid
    # rule on nodes offset by half a step (no node at an eta), exact for B = z^3 and
    # converging as 2^-N for zeros of modulus 0.5, whose reflected poles sit at radius 2.
    nodes = 200
    worst = {}
    for name in ("f1-tto-matrix", "f2-tto-matrix"):
        problem = cli.parse_problem(json.loads((COMMITTED / f"{name}.problem.json").read_text()))
        report = json.loads((COMMITTED / f"{name}.report.json").read_text())
        etas, phases, norms, _ = oracle_clark_mp(problem.theta, problem.clark.t, problem.clark.alpha, ())
        with mpmath.workdps(50):
            zeros = [mpmath.mpc(complex(w)) for w in problem.theta.zeros]
            c = mpmath.mpc(complex(problem.theta.front_constant))

            def blaschke(x):
                return c * mpmath.fprod((x - w) / (1 - mpmath.conj(w) * x) for w in zeros)

            etas = [mpmath.mpc(complex(e)) for e in etas]
            coefs = [mpmath.mpc(complex(p)) / mpmath.mpf(float(n)) for p, n in zip(phases, norms)]
            m = mpmath.matrix(3, 3)
            for k in range(nodes):
                z = mpmath.expjpi(mpmath.mpf(2 * k + 1) / nodes)
                bz = blaschke(z)
                v = [b * (1 - mpmath.conj(blaschke(e)) * bz) / (1 - mpmath.conj(e) * z)
                     for b, e in zip(coefs, etas)]
                for i, j in itertools.product(range(3), repeat=2):
                    m[i, j] += z * v[j] * mpmath.conj(v[i]) / nodes
            expected = [complex((m[i, j] + m[j, i]) / 2) for i, j in repcheck.ROW_INDEX]
        worst[name] = max(abs(cpx(v) - e) for v, e in zip(report["details"]["s"], expected))
    print(f"committed TTO matrices against mpmath: worst gap {max(worst.values()):.2g} "
          f"({max(worst, key=worst.get)})")
    assert max(worst.values()) <= 1e-10, worst


def test_committed_detthm_numbers_match_mpmath():
    # det_value, mu and both residuals of the committed check-detthm report at 50 digits.
    # The columns are the generators at default_points -- the cube roots of unity, which
    # are also the etas here, and the interior points 0 and 0.41+0.13j -- in the basis
    # v_i = b_i k_{eta_i}, b_i = phase_i / norm_i.  For B = z^3 the TMW basis is 1, z, z^2,
    # so k_eta(z) = sum_k (conj(eta) z)^k, with no 0/0 at z = eta.  mu solves the normal
    # equations of the Frobenius norm (row weights 1, 1, 1, 2, 2, 2 on |.|^2).  det, mu and
    # the residual are homogeneous in S, so the library's scaling by 2**-e cancels (e = 0).
    name = "f1-check-detthm"
    problem = cli.parse_problem(json.loads((COMMITTED / f"{name}.problem.json").read_text()))
    report = json.loads((COMMITTED / f"{name}.report.json").read_text())
    assert problem.theta == BlaschkeProduct((0.0, 0.0, 0.0))
    etas, phases, norms, _ = oracle_clark_mp(problem.theta, problem.clark.t, problem.clark.alpha, ())
    with mpmath.workdps(50):
        etas = [mpmath.mpc(complex(e)) for e in etas]
        coefs = [mpmath.mpc(complex(p)) / mpmath.mpf(float(n)) for p, n in zip(phases, norms)]
        points = [mpmath.expjpi(mpmath.mpf(2 * k) / 3) for k in range(3)]
        points += [mpmath.mpc(0), mpmath.mpc(0.41, 0.13)]
        vals = [[b * mpmath.fsum((mpmath.conj(e) * p) ** k for k in range(3)) for p in points]
                for b, e in zip(coefs, etas)]
        left = [[v if j < 3 else mpmath.conj(v) for j, v in enumerate(row)] for row in vals]
        cols = mpmath.matrix([[left[a][j] * mpmath.conj(vals[b][j]) for j in range(5)]
                              for a, b in repcheck.ROW_INDEX])
        s = mpmath.matrix([mpmath.mpc(complex(v)) for v in problem.matrix.vector])
        square = mpmath.matrix(6, 6)
        for r, j in itertools.product(range(6), range(6)):
            square[r, j] = cols[r, j] if j < 5 else s[r]
        det = mpmath.det(square)
        weights = mpmath.diag([1, 1, 1, 2, 2, 2])
        mu = mpmath.lu_solve(cols.H * weights * cols, cols.H * weights * s)
        misfit = s - cols * mu
        residual = mpmath.sqrt(mpmath.fsum(w * abs(m) ** 2 for w, m in zip((1, 1, 1, 2, 2, 2), misfit)))
        gaps = {
            "det_value": abs(cpx(report["details"]["det_value"]) - complex(det)),
            "residuals.determinant": abs(report["residuals"]["determinant"] - float(abs(det))),
            "certificate.mu": max(abs(cpx(v) - complex(m)) for v, m in zip(report["certificate"]["mu"], mu)),
            "residuals.certificate": abs(report["residuals"]["certificate"] - float(residual)),
        }
    print(f"committed check-detthm numbers against mpmath: worst gap {max(gaps.values()):.2g} "
          f"({max(gaps, key=gaps.get)})")
    assert max(gaps.values()) <= 1e-10, gaps


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
    # One bad pair refuses the whole directory, as in the task form: a problem
    # file that is not JSON, or a report path that is a directory.  No report
    # file is written and no problem file changes.
    for k, bad in enumerate(("f1-zz-broken.problem.json", "f2-tto-matrix.report.json")):
        directory = tmp_path / str(k)
        directory.mkdir()
        copy_problems(directory)
        if bad.endswith(".problem.json"):
            (directory / bad).write_text("{ not json")
        else:
            (directory / bad).mkdir()
        problems = {path.name: path.read_bytes() for path in directory.glob("*.problem.json")}
        assert run(["fixtures", "--dir", str(directory)]) == 2, bad
        assert not [path for path in directory.glob("*.report.json") if path.is_file()], bad
        assert {path.name: path.read_bytes() for path in directory.glob("*.problem.json")} == problems, bad


# -- work counts ------------------------------------------------------------------


@pytest.fixture
def piece_builds(monkeypatch):
    """Counts of product constructions, Clark-chain runs and piece builds.

    ``product_stack`` and ``compressed_shifts`` are counted wherever a library
    module binds them, so a call from any module is seen.  A chain run is one
    ``clark_rows`` call: one per Clark basis, and one for the sampler's one block.
    """
    counts = dict.fromkeys(("products", "chains", "product_stack", "compressed_shifts"), 0)

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
    monkeypatch.setattr(clark, "clark_rows", counting("chains", clark.clark_rows))
    monkeypatch.setattr(BlaschkeProduct, "__new__",
                        staticmethod(counting("products", BlaschkeProduct.__new__)))
    return counts


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_builds_product_pieces_once(name, piece_builds):
    # One product per problem, its pieces built once at construction, and one
    # chain for its basis; the sampler of the corollary task runs one more chain
    # on its one block of draws and builds the pieces once for it.
    parsed = cli.parse_problem(json.loads((COMMITTED / f"{name}.problem.json").read_text()))
    assert cli.run_task(parsed)["verdict"] is True
    sweep = name == "f1-corollary"
    assert piece_builds["products"] == 1
    assert piece_builds["chains"] == 1 + sweep
    assert piece_builds["product_stack"] == piece_builds["compressed_shifts"] == 1 + sweep


# One problem of the verify-warm workload (perfbench/workloads.py), as its spec.
VERIFY_SPEC = {"zeros": [[0.5, 0.0], [0.0, 0.0], [-0.5, 0.0]], "constant": [0.0, 1.0],
               "t": [0.1, 0.2], "alpha": [1.0, 0.0], "tto_seed": 7,
               "reject": [[1, 0], [2, 0], [3, 0], [4, 0], [5, 0], [0, 6]]}


def test_verify_sequence_builds_no_pieces(piece_builds, workloads, tmp_path):
    # The verify-warm sequence on a fresh product: every level set, the
    # operator matrix and the shift TTO read the pieces built at construction.
    workload = workloads.VerifyWarm(ROOT, tmp_path)
    prepared = workload.prepare(VERIFY_SPEC, 0)
    assert piece_builds == {"products": 1, "chains": 0, "product_stack": 1, "compressed_shifts": 1}
    workload.run(prepared)
    assert piece_builds == {"products": 1, "chains": 1, "product_stack": 1, "compressed_shifts": 1}


def _verify_sequence(workloads, tmp_path):
    """The verify-warm workload's own run on one problem: Clark basis, Clark unitary, shift, both tests."""
    workload = workloads.VerifyWarm(ROOT, tmp_path)
    workload.run(workload.prepare(VERIFY_SPEC, 0))


def test_verify_sequence_scales_back_once_per_result(monkeypatch, workloads, tmp_path):
    # The verify-warm sequence: each decision scales its stacked numbers back
    # with one ldexp, so 1 per test of one S; normalizing S takes a bare np.ldexp.
    calls = []
    ldexp = repcheck._ldexp
    monkeypatch.setattr(repcheck, "_ldexp", lambda x, e: calls.append(e) or ldexp(x, e))
    _verify_sequence(workloads, tmp_path)
    assert len(calls) == 4


def test_verify_sequence_factors_once_per_decision(monkeypatch, workloads, tmp_path):
    # One SVD per set of generator columns (random_tto and each detthm_test),
    # whose certificate comes from that SVD, not from a second factorization by
    # lstsq; each span is built by build_columns, the one span function, which
    # the benchmark tracer sees; and one TMW pass per point set: the Clark basis
    # at its level set, Clark's unitary at t, and the columns at the default points.
    # Pole-guarded passes (_denominators) are a ratchet: Clark's unitary takes B(t)
    # from its TMW pass at t, so 10, down from 11.
    calls = {"tmw_rows": 0, "lstsq": 0, "svd": 0, "build_columns": 0, "_denominators": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("tmw_rows", blaschke.tmw_rows), ("build_columns", repcheck.build_columns),
                     ("_denominators", blaschke._denominators)):
        for module in list(sys.modules.values()):
            if module.__name__.startswith("model_space_lab") and vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    for name in ("lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    _verify_sequence(workloads, tmp_path)
    assert calls == {"tmw_rows": 5, "lstsq": 0, "svd": 3, "build_columns": 3, "_denominators": 10}


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


# Run in a fresh interpreter where every scipy, numpy.random and argparse import fails.
_NO_SCIPY = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = sys.modules["numpy.random"] = sys.modules["argparse"] = None
from model_space_lab.cli import run
out = Path(sys.argv[1])
for path in map(Path, sys.argv[2:]):
    task = json.loads(path.read_text())["task"]
    code = run([task, "--in", str(path), "--out", str(out / path.name)])
    if code != 0:
        sys.exit(f"{path.name}: exit {code}")
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(COMMITTED.parent / "src"), env.get("PYTHONPATH")]))
    return env


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency, and a cold call imports neither
    # numpy.random nor argparse: every committed problem, which together cover
    # all six tasks, still reaches a decision.
    problems = sorted(str(p) for p in COMMITTED.glob("*.problem.json"))
    tasks = {json.loads(Path(p).read_text())["task"] for p in problems}
    assert len(problems) == 9 and len(tasks) == 6
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path), *problems],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.problem.json"))) == 9


def test_main_module_writes_the_golden_report(tmp_path):
    # ``python -m model_space_lab``, the path a cold CLI call takes, writes
    # every committed report, which together cover all six tasks, within 1e-10.
    copy_problems(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "model_space_lab", "fixtures", "--dir", str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ALL_FIXTURES:
        golden = json.loads((COMMITTED / f"{name}.report.json").read_text())
        fresh = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert_tree_close(golden, fresh, where=f"{name}.report")


def test_console_scripts_resolve_to_callables():
    # Each ``module:attr`` of pyproject's [project.scripts] names a callable, so
    # an installed ``model-space-lab`` reaches ``cli.main``.  A regex reads the
    # table: Python 3.10 has no tomllib.
    text = (COMMITTED.parent / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    scripts = re.findall(r'^([\w.-]+)\s*=\s*"([\w.]+):([\w.]+)"', table, re.M)
    assert [name for name, _, _ in scripts] == ["model-space-lab"]
    for name, module, attr in scripts:
        assert callable(operator.attrgetter(attr)(importlib.import_module(module))), name


def test_main_module_exits_3_with_report(tmp_path):
    # A triple zero at 0.999999 leaves a level-set residual just above
    # ROOT_TOL.  The child's report and its stderr line outlive the frozen
    # heap at exit.
    problem = shift_problem("clark-basis")
    problem["theta"] = {"zeros": [[0.999999, 0.0]] * 3, "constant": [1.0, 0.0]}
    problem["clark"] = {"t": [0.3, 0.0], "alpha": [0.0, 1.0]}
    infile, out = tmp_path / "problem.json", tmp_path / "report.json"
    infile.write_text(json.dumps(problem))
    proc = subprocess.run(
        [sys.executable, "-m", "model_space_lab", "clark-basis", "--in", str(infile), "--out", str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "error: indeterminate:" in proc.stderr
    report = json.loads(out.read_text())
    assert report["verdict"] == "indeterminate"
    validate_report(report)


# cli.main() as the process entry point, with an atexit hook that prints the frozen count.
_FREEZE_COUNT_AT_EXIT = """
import atexit, gc
from model_space_lab import cli
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
cli.main()
"""


def test_main_freezes_the_import_heap(tmp_path):
    # main() freezes the objects the imports left (about 21,500), so the
    # collections of interpreter shutdown skip them; atexit hooks still run.
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_COUNT_AT_EXIT, "check-detthm",
         "--in", str(COMMITTED / "f1-check-detthm.problem.json"), "--out", str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    label, count = proc.stdout.split()
    assert label == "frozen" and int(count) > 10_000
    golden = json.loads((COMMITTED / "f1-check-detthm.report.json").read_text())
    assert_tree_close(golden, json.loads(out.read_text()), where="f1-check-detthm.report")


def test_run_freezes_nothing(tmp_path):
    # In-process callers (tests, the benchmark's traced pass) keep every
    # object they make collectable.
    before = gc.get_freeze_count()
    code, report, _ = run_cli(tmp_path, shift_problem("clark-basis"))
    assert code == 0 and report["verdict"] is True
    assert gc.get_freeze_count() == before
