"""Harness self-checks that need no library.

Every benchmark run applies them and reports a failure as ``correct: false``;
``python3 perfbench/selfcheck.py`` runs them alone.  The third self-check, a
traced run giving the same outputs as an untraced one, needs the library and
is made inside every traced run (see run.py).
"""

import json
import re
import sys
from pathlib import Path

from tracing import Span, self_times

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def self_time_errors() -> list:
    """Self-time arithmetic on a synthetic nested span set with known answers."""
    spans = [
        Span("root", 0, 0.0, 10.0, -1, ""),
        Span("a", 0, 1.0, 4.0, 0, ""),
        Span("a.child", 0, 2.0, 3.0, 1, ""),
        Span("b", 0, 3.5, 6.0, 0, ""),      # overlaps "a": the union counts once
        Span("c", 0, 8.0, 9.5, 0, ""),
        Span("late", 0, 9.0, 12.0, 0, ""),  # runs past its parent: clipped
        Span("other", 1, 20.0, 21.0, -1, ""),
    ]
    expected = [10.0 - 5.0 - 2.0, 2.0, 1.0, 2.5, 1.5, 3.0, 1.0]
    got = self_times(spans)
    if any(abs(g - e) > 1e-12 for g, e in zip(got, expected)):
        return [f"self times {got} != {expected}"]
    return []


def name_errors(names) -> list:
    return [f"bad metric name {n!r}" for n in names if not METRIC_NAME.fullmatch(n)]


def benchmark_errors(benchmark: dict) -> list:
    """Names in BENCHMARK.json are well formed and used once."""
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    dupes = sorted({n for n in names if names.count(n) > 1})
    return name_errors(names) + [f"name used twice: {n}" for n in dupes]


def static_errors(benchmark: dict) -> list:
    return self_time_errors() + benchmark_errors(benchmark)


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    errors = static_errors(json.loads((root / "BENCHMARK.json").read_text()))
    for error in errors:
        print(error, file=sys.stderr)
    print("self-checks failed" if errors else "self-checks passed")
    sys.exit(1 if errors else 0)
