"""The benchmark's workloads run on the library as it stands.

``perfbench/workloads.py`` reads the library through names and shapes of its
own (``Sym3(*six)``, ``Sym3.from_array(m, tol=)``, ``.vector``, ``.array``,
``repcheck.ROW_INDEX``, ``det_value``, ``predicted_s6``, ...).  A break there
would otherwise show only as a benchmark run with failed problems.  The
module is imported by path (``conftest.workloads``) and left unchanged; a
wrong output raises its ``CheckFailed``.
"""

from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


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
