"""Set-up probe: a fresh interpreter imports the lab and finishes one warm-up problem.

Usage: python3 perfbench/probe.py <workload> <spec.json> <workdir>

The parent times this process from spawn to exit; that time is one sample of
``setup_s``.  The caller passes a child environment with one BLAS thread and
the checkout's ``src`` on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import model_space_lab  # noqa: F401  (the import is part of what set-up measures)
import model_space_lab.cli  # noqa: F401

import workloads

if __name__ == "__main__":
    name, spec_file, workdir = sys.argv[1:4]
    root = Path(__file__).resolve().parents[1]
    workload = workloads.make(name, root, Path(workdir))
    spec = json.loads(Path(spec_file).read_text())
    workload.run_inprocess(workload.prepare(spec, "probe"))
