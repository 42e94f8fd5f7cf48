"""The benchmark's workloads run on the library as it stands.

``perfbench/workloads.py`` reads the library through names and shapes of its
own (``Sym3(*six)``, ``Sym3.from_array(m, tol=)``, ``.vector``, ``.array``,
``repcheck.ROW_INDEX``, ``det_value``, ``predicted_s6``, ...).  A break there
would otherwise show only as a benchmark run with failed problems.  The
module is imported by path and left unchanged; a wrong output raises its
``CheckFailed``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_verify_warm_problems_pass_their_checks(workloads, tmp_path):
    workload = workloads.VerifyWarm(ROOT, tmp_path)
    for i, spec in enumerate(workload.generate(np.random.default_rng(0))[:5]):
        workload.run_inprocess(workload.prepare(spec, i))


def test_cli_cold_first_round_passes_its_checks(workloads, tmp_path):
    workload = workloads.CliCold(ROOT, tmp_path)
    specs = workload.generate(np.random.default_rng(0))
    assert [spec["problem"]["task"] for spec in specs[:6]] == list(workloads.cli.TASKS)
    for i, spec in enumerate(specs[:6]):
        workload.run_inprocess(workload.prepare(spec, i))
