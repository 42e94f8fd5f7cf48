"""Every exported exception class is exactly one of the two kinds of failure.

``ValueError`` is invalid input (CLI exit 2) and ``config.Indeterminate`` is
numerical indeterminacy on valid input (CLI exit 3).  Modules without
``__all__`` export their public names.  Every threshold is a named constant
of ``config.py``, written nowhere else.
"""

import ast
import copy
import importlib
import pickle
import pkgutil
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import model_space_lab
from model_space_lab.blaschke import BlaschkeProduct, level_set
from model_space_lab.clark import ClarkParams, modified_clark_basis
from model_space_lab.config import Indeterminate
from model_space_lab.modelspace import KThetaElement, OrthonormalBasis, kernel_element
from model_space_lab.repcheck import (
    IndeterminateError,
    PointConfig,
    Sym3,
    build_columns,
    clark_s6_test,
    counterexample_family,
    counterexample_report,
    default_points,
    detthm_test,
)
from model_space_lab.so3solver import SolverConfig, solve, spectral_shortcut
from model_space_lab.tto import Symbol, random_tto


def test_exported_exceptions_are_invalid_input_or_indeterminate():
    modules = [
        importlib.import_module(f"model_space_lab.{info.name}")
        for info in pkgutil.iter_modules(model_space_lab.__path__)
        if info.name != "__main__"  # runs the CLI on import
    ]
    seen = set()
    for module in modules:
        names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for name in names:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                seen.add(name)
                assert issubclass(obj, ValueError) != issubclass(obj, Indeterminate), (
                    f"{module.__name__}.{name}"
                )
    assert seen >= {
        "ProblemError",
        "Indeterminate",
        "PoleEvaluationError",
        "LevelSetError",
        "ClarkTargetError",
        "BasisError",
        "IndeterminateError",
    }


NAN = float("nan")
INF = float("inf")
HUGE = complex(1.7e308, 1.7e308)  # abs() raises OverflowError; its modulus is inf
F1 = BlaschkeProduct((0.1, 0.0, 0.0))
BAD_TOLS = {"nan": NAN, "inf": INF, "0": 0.0, "-1": -1.0, "True": True}
BAD_SEEDS = {"True": True, "None": None, "1.5": 1.5, "str": "3", "-1": -1}


@pytest.fixture(scope="module")
def cb():
    return modified_clark_basis(BlaschkeProduct((0.5, 0.0, -0.5)), ClarkParams(0.1 + 0.2j, 1.0))


def _detthm(cb, s, **kw):
    return detthm_test(s, cb.basis, default_points(cb.theta), **kw)


NAN_PARTS = {"real": complex(NAN, 0.5), "imag": complex(0.5, NAN), "both": complex(NAN, NAN)}


def _nan_at(k, z):
    """Sym3(1, 2j, 3, 0.5, 0.25j, 0.125) with entry k replaced by z."""
    entries = [1, 2j, 3, 0.5, 0.25j, 0.125]
    entries[k] = z
    return Sym3(*entries)


CASES = {
    "zero": lambda cb: BlaschkeProduct((NAN, 0.0, 0.0)),
    "constant": lambda cb: BlaschkeProduct((0.1, 0.0, 0.0), complex(1.0, NAN)),
    "t": lambda cb: ClarkParams(NAN, 1.0),
    "alpha": lambda cb: ClarkParams(0.0, NAN),
    "boundary-point": lambda cb: PointConfig((1.0, 1j, complex(NAN, 0.0)), (0.0, 0.5)),
    "interior-point": lambda cb: PointConfig((1.0, 1j, -1.0), (0.0, complex(0.0, NAN))),
    "level-set-target": lambda cb: level_set(F1, NAN),
    "family": lambda cb: counterexample_family(2, 0.0, NAN, 0.0),
    "counterexample-report": lambda cb: counterexample_report(Sym3(NAN, 0, 0, 0, 1, 0)),
    # decision procedures: Sym3 keeps a non-finite entry, Sym3.normalized refuses it
    "detthm-nan-matrix": lambda cb: _detthm(cb, Sym3(NAN, 0, 0, 0, 0, 0)),
    "detthm-inf-matrix": lambda cb: _detthm(cb, Sym3(INF, 0, 0, 0, 0, 0)),
    "s6-nan-matrix": lambda cb: clark_s6_test(Sym3(NAN, 0, 0, 0, 0, 0), cb),
    "s6-inf-matrix": lambda cb: clark_s6_test(Sym3(INF, 0, 0, 0, 0, 0), cb),
    # NaN in any entry, as its real part, its imaginary part or both, beside finite entries
    **{f"{name}-nan-{part}-s{k + 1}": (lambda cb, test=test, k=k, z=z: test(cb, _nan_at(k, z)))
       for name, test in (("detthm", _detthm), ("s6", lambda cb, s: clark_s6_test(s, cb)))
       for part, z in NAN_PARTS.items() for k in range(6)},
    "solve-nan-matrix": lambda cb: solve(Sym3(0, 0, 0, 0, 0, NAN), cb, SolverConfig(starts=2)),
    "solve-inf-matrix": lambda cb: solve(Sym3(0, 0, 0, 0, 0, INF), cb, SolverConfig(starts=2)),
    "spectral-shortcut-nan-matrix": lambda cb: spectral_shortcut(Sym3(NAN, 0, 0, 0, 0, 0)),
    "spectral-shortcut-inf-matrix": lambda cb: spectral_shortcut(Sym3(0, 0, 0, 0, 0, INF)),
    **{f"detthm-tol-{k}": (lambda cb, t=t: _detthm(cb, Sym3(1, 1, 1, 0, 0, 0), tol=t))
       for k, t in BAD_TOLS.items()},
    **{f"s6-tol-{k}": (lambda cb, t=t: clark_s6_test(Sym3(1, 1, 1, 0, 0, 0), cb, tol=t))
       for k, t in BAD_TOLS.items()},
    # seeds and symbol frequencies follow the integer rule of SolverConfig
    **{f"report-seed-{k}": (lambda cb, s=s: counterexample_report(Sym3(0, 0, 0, 0, 0, 1), seed=s))
       for k, s in BAD_SEEDS.items()},
    **{f"random-tto-seed-{k}": (lambda cb, s=s: random_tto(cb.theta, cb.basis, seed=s))
       for k, s in BAD_SEEDS.items()},
    "random-tto-other-space": lambda cb: random_tto(F1, cb.basis, 3),
    "symbol-frequency-float": lambda cb: Symbol(((1.5, 1.0),)),
    "symbol-frequency-bool": lambda cb: Symbol(((True, 1.0),)),
    # bases given by coordinates
    "basis-nan-coords": lambda cb: OrthonormalBasis(cb.theta, np.full((3, 3), NAN)),
    "basis-inf-coords": lambda cb: OrthonormalBasis(cb.theta, np.full((3, 3), INF)),
    # other inputs: NaN, and a huge complex whose abs() overflows
    "from-array-nan": lambda cb: Sym3.from_array(np.diag([1.0, 1.0, NAN])),
    "kernel-point-nan": lambda cb: kernel_element(F1, complex(NAN, 0.0)),
    "symbol-coefficient-nan": lambda cb: Symbol(((1, NAN),)),
    "boundary-point-huge": lambda cb: PointConfig((1.0, 1j, HUGE), (0.0, 0.5)),
    "interior-point-huge": lambda cb: PointConfig((1.0, 1j, -1.0), (0.0, HUGE)),
    "level-set-target-huge": lambda cb: level_set(F1, HUGE),
    "level-set-target-str": lambda cb: level_set(F1, "1"),
    "level-set-target-bool": lambda cb: level_set(F1, True),
    "kernel-point-huge": lambda cb: kernel_element(F1, HUGE),
    # a bool is not a number, as in config.finite, wherever a constructor takes one
    "zero-bool": lambda cb: BlaschkeProduct((False, 0.0, 0.0)),
    "constant-bool": lambda cb: BlaschkeProduct((0.5,), front_constant=True),
    "t-bool": lambda cb: ClarkParams(False, 1.0),
    "alpha-bool": lambda cb: ClarkParams(0.0, True),
    "sym3-bool": lambda cb: Sym3(True, 0, 0, 0, 0, 0),
    "sym3-numpy-bool": lambda cb: Sym3(0, 0, 0, 0, 0, np.True_),
    "symbol-coefficient-bool": lambda cb: Symbol(((1, True),)),
    "boundary-point-bool": lambda cb: PointConfig((True, 1j, -1.0), (0.0, 0.5)),
    "interior-point-bool": lambda cb: PointConfig((1.0, 1j, -1.0), (False, 0.5)),
    "sym3-str": lambda cb: Sym3("1", 0, 0, 0, 0, 0),
    # Sym3.from_array and the other value constructors refuse what Sym3(...) refuses
    "from-array-bool": lambda cb: Sym3.from_array(np.eye(3, dtype=bool)),
    "from-array-str": lambda cb: Sym3.from_array([["1", 0, 0], [0, 1, 0], [0, 0, 1]]),
    "from-array-object": lambda cb: Sym3.from_array(np.eye(3).astype(object)),
    "from-array-nested-bool": lambda cb: Sym3.from_array([[1, 0, 0], [0, 1, 0], [0, 0, True]]),
    "from-array-ragged": lambda cb: Sym3.from_array([[1, 0, 0], [0, 1], [0, 0, 1]]),
    "sym3-replace-bool": lambda cb: Sym3(1, 0, 0, 0, 0, 0)._replace(s1=True),
    # every checked record's _replace goes through its constructor; only X._make trusts
    "clark-params-replace": lambda cb: ClarkParams(0.1, 1.0)._replace(t=2),
    "product-replace": lambda cb: F1._replace(front_constant=2),
    "points-replace": lambda cb: default_points(cb.theta)._replace(interior=(0, 0)),
    "config-replace": lambda cb: SolverConfig()._replace(tol=-1),
    # there is one Clark relation: a relation name passed where it once went reaches tol
    "s6-stale-variant": lambda cb: clark_s6_test(Sym3(1, 2, 3, 4, 5, 6), cb, "paper"),
    "symbol-replace": lambda cb: Symbol.shift()._replace(coeffs=((1.5, 1),)),
    "element-replace": lambda cb: kernel_element(F1, 0.5)._replace(numerator=(1, 2)),
    "basis-replace-nan": lambda cb: cb.basis._replace(coords=np.full((3, 3), NAN)),
    # a number where a sequence belongs
    "product-scalar": lambda cb: BlaschkeProduct(5),
    "points-scalar": lambda cb: PointConfig(5, (0, 0.5)),
    "points-none": lambda cb: PointConfig((1, 1j, -1), None),
    "symbol-scalar": lambda cb: Symbol(5),
    "element-scalar": lambda cb: KThetaElement(F1, 5),
    # a symbol term is a (k, c) pair; a numerator entry is a number, as in Sym3(...)
    "symbol-term-scalar": lambda cb: Symbol((5,)),
    "symbol-term-triple": lambda cb: Symbol(((1, 2, 3),)),
    "element-numerator-bool": lambda cb: KThetaElement(F1, (True, 0, 0)),
    "element-numerator-str": lambda cb: KThetaElement(F1, ("1", 0, 0)),
    "family-bool": lambda cb: counterexample_family(True, 0.0, 0.0, 0.0),
    "family-float": lambda cb: counterexample_family(1.0, 0.0, 0.0, 0.0),
    "family-diagonal-bool": lambda cb: counterexample_family(1, True, 0, 0),
    "family-diagonal-str": lambda cb: counterexample_family(1, "2", 0, 0),
    "family-diagonal-complex": lambda cb: counterexample_family(1, 1j, 0, 0),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_nan_input_is_invalid(build, cb):
    # Each input domain has one "accept if" check in config.py, so NaN, inf,
    # a modulus beyond float range and a bad tol all fail it as invalid input.
    with pytest.raises(ValueError):
        build(cb)


@pytest.fixture(scope="module")
def degenerate_cb():
    """A triple zero at radius 0.9999 whose default points span too little (sigma5 5.6e-11)."""
    w = -0.999865027203107 + 0.008362856935884434j
    params = ClarkParams(0.24828373588094244 - 0.16838998336303265j, 0.43760057914127287 + 0.899169468529277j)
    cb = modified_clark_basis(BlaschkeProduct((w, w, w)), params)
    with pytest.raises(IndeterminateError):
        build_columns(cb.basis, default_points(cb.theta))
    return cb


# the matrix, tol and seed cases of the procedures that build the span or sit beside it
SPAN_CASES = ("detthm-", "s6-", "solve-", "random-tto-seed-")
ON_THE_SPAN = {k: build for k, build in CASES.items() if k.startswith(SPAN_CASES)}


@pytest.mark.parametrize("build", ON_THE_SPAN.values(), ids=ON_THE_SPAN.keys())
def test_invalid_input_wins_over_indeterminacy(build, degenerate_cb):
    # A bad matrix, tol or seed is refused before the generator span is built, so
    # it is invalid input even where the default points are degenerate.
    with pytest.raises(ValueError):
        build(degenerate_cb)


def test_one_integer_rule_for_every_count():
    # Seeds, counts and symbol frequencies take any numbers.Integral and store an int;
    # a frequency may be negative.
    config = SolverConfig(starts=np.int64(3), seed=np.int64(0))
    assert type(config.starts) is int and type(config.seed) is int
    assert Symbol(((np.int64(-2), 1.0),)).coeffs == ((-2, 1.0),)
    assert type(Symbol(((np.int64(-2), 1.0),)).coeffs[0][0]) is int


def test_replace_rebuilds_the_product_stack_and_elements_are_not_sequences():
    # The stack is built in __new__, so _replace builds the new product's.
    b = F1._replace(zeros=(0.1, 0.2, 0.3))
    assert b == BlaschkeProduct((0.1, 0.2, 0.3)) and F1.stack.zeros.tolist() == [[0.1, 0.0, 0.0]]
    np.testing.assert_array_equal(b.stack.shift, BlaschkeProduct((0.1, 0.2, 0.3)).stack.shift)
    assert b.stack.zeros.tolist() == [[0.1, 0.2, 0.3]] and not b.stack.shift.flags.writeable
    f = kernel_element(BlaschkeProduct((0.5, 0.0, -0.5)), 0.2)
    for join_or_repeat in (lambda: f + f, lambda: f * 2, lambda: 2 * f):
        with pytest.raises(TypeError):
            join_or_repeat()


RECORDS = {
    "Sym3": lambda: Sym3(1, 2, 3, 4, 5, 6),
    "BlaschkeProduct": lambda: F1,
    "ClarkParams": lambda: ClarkParams(0.1, 1.0),
    "PointConfig": lambda: default_points(F1),
    "SolverConfig": lambda: SolverConfig(),
    "Symbol": lambda: Symbol.shift(),
    "KThetaElement": lambda: kernel_element(F1, 0.2),
    "OrthonormalBasis": lambda: OrthonormalBasis(F1, np.eye(3)),
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_checked_records_do_not_join_or_repeat(record):
    # A checked record is a named tuple, but not a sequence: tuple's + and *
    # would return a plain tuple that no check has seen.  Nor is it an array
    # operand: a numpy scalar on the left would return an unchecked ndarray.
    r = record()
    for join_or_repeat in (lambda: r + r, lambda: (1,) + r, lambda: r * 2, lambda: 2 * r,
                           lambda: np.float64(2) * r):
        with pytest.raises(TypeError):
            join_or_repeat()
    assert len(np.array(r, dtype=object)) == len(r)


def test_product_stack_cannot_be_rebound_and_survives_copies():
    # stack is a read-only property; a copy or a pickle of any protocol goes
    # through __new__, so it carries the read-only stack of (zeros, front_constant).
    b = BlaschkeProduct((0.5, 0.0, -0.5), 1j)
    with pytest.raises(AttributeError):
        b.stack = None
    copies = [copy.copy(b), copy.deepcopy(b)]
    copies += [pickle.loads(pickle.dumps(b, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert c == b and c.stack is not b.stack
        for piece, original in zip(c.stack, b.stack):
            assert not piece.flags.writeable
            np.testing.assert_array_equal(piece, original)


def test_records_are_named_tuples_not_dataclasses():
    # One record idiom: no module imports dataclasses, and every class a module
    # exports is an exception or a tuple (a checked or a plain named tuple).
    classes = set()
    for path in sorted(Path(model_space_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        imports += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "dataclasses" not in imports, path.name
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                module = importlib.import_module(f"model_space_lab.{path.stem}")
                for name in ast.literal_eval(node.value):
                    obj = getattr(module, name)
                    if isinstance(obj, type):
                        assert issubclass(obj, (BaseException, tuple)), f"{path.stem}.{name}"
                        classes.add(name)
    assert classes >= {"BlaschkeProduct", "ClarkParams", "KThetaElement", "OrthonormalBasis",
                       "PointConfig", "Symbol", "TTOMatrix", "SolverConfig"}


EXPONENT_FORM = re.compile(r"[\d_.]+[eE][-+]?[\d_]+[jJ]?")


def test_no_exponent_literal_outside_config():
    # A number such as 1e-12 outside config.py would be a second, unnamed place
    # for a threshold.  Docstrings and comments are not NUMBER tokens.
    found = []
    for path in sorted(Path(model_space_lab.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NUMBER and EXPONENT_FORM.fullmatch(tok.string):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []
