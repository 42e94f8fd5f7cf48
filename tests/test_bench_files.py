"""The committed benchmark evidence checks itself: every summary recomputes from its runs.

A ``BENCH_*.json`` from BENCH_30 on holds, per group of runs (a workload at a
seed), the raw ``perfbench/run.py`` output lines of each side and a summary per
end-to-end metric.  The summary's ``*_runs`` must be the values of the raw result
lines, its ``*_median`` and ``*_q1_q3`` (``statistics.quantiles``, n=4, inclusive)
and ``*_iqr`` must follow from them, and ``change_wins`` must count the pairs, by
index, in which the change is better in the metric's direction from
``BENCHMARK.json``; a tie counts for neither side.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIRST_CHECKED = 30
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
BENCH_FILES = sorted((p for p in ROOT.glob("BENCH_*.json") if int(p.stem[6:]) >= FIRST_CHECKED),
                     key=lambda p: int(p.stem[6:]))


def _entries(bench: dict):
    """(group, metric, summary entry) for each metric summary of the file."""
    for group, metrics in bench["summary"].items():
        for metric, entry in metrics.items():
            if metric in BETTER:
                yield group, metric, entry


def test_bench_files_are_found():
    assert len(BENCH_FILES) >= 6


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_summaries_recompute_from_the_runs(path):
    bench = json.loads(path.read_text())
    checked = 0
    for group, metric, entry in _entries(bench):
        where = f"{path.name} {group} {metric}"
        for side in ("parent", "change"):
            runs = entry[f"{side}_runs"]
            raw = [lines[-1]["metrics"][metric]["value"] for lines in bench["runs"][group][side]]
            assert runs == raw, f"{where}: {side}_runs are not the raw result values"
            assert entry[f"{side}_median"] == statistics.median(runs), f"{where}: {side}_median"
            q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            assert entry[f"{side}_q1_q3"] == [q1, q3], f"{where}: {side}_q1_q3"
            iqr = entry[f"{side}_iqr"]
            assert math.isclose(iqr, q3 - q1, rel_tol=1e-12, abs_tol=1e-15), f"{where}: {side}_iqr"
        sign = 1 if BETTER[metric] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(entry["parent_runs"], entry["change_runs"]))
        assert entry["change_wins"] == wins, f"{where}: change_wins"
        checked += 1
    assert checked >= len(BETTER), f"{path.name}: no metric summary checked"
