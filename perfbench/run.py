"""Benchmark of model-space-lab: one seeded workload, checked outputs, metrics as JSON.

Usage:
    python3 perfbench/run.py --workload {cli-cold,verify-warm} \\
        --seed N --seconds S --trace {0,1}

The checkout root is the parent of this file's directory; the lab runs from its
``src`` and nothing is installed.  Load shape: one process and one client in a
closed loop, so the next problem starts only after the previous one is
verified.  BLAS runs on one thread here and in every child.  End-to-end times
are scaled to a nominal CPU speed (see ``GAUGE_NOMINAL_S``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics named
in BENCHMARK.json, with ``--trace 1`` the per-layer metrics.  The line before
it is the environment stamp and run context.  Without the lab's sources the
run exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Other tenants of a shared machine slow a CPU by up to a third, in bursts of
# seconds to minutes that no in-run statistic removes.  Every end-to-end time
# is therefore scaled to a nominal CPU speed: a gauge loop runs on the same
# pinned CPU around each timed call, and the time is multiplied by
# GAUGE_NOMINAL_S / gauge.  GAUGE_NOMINAL_S is the gauge's time on an
# uncontended core of the 2-CPU Xeon VM the benchmark was defined on.
GAUGE_LOOP = 30_000
GAUGE_NOMINAL_S = 2.0e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "verify-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def attempt(run, prepared, label):
    """``run(prepared)``, i.e. (seconds, digest), or None after reporting why it failed."""
    try:
        return run(prepared)
    except Exception:  # the loop must go on: every failure is counted
        print(f"{label} failed:", file=sys.stderr)
        traceback.print_exc()
        return None


def gauge() -> float:
    """Seconds for a fixed pure-Python loop: how fast this CPU runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOP):
        total += i * i
    return time.perf_counter() - start


def closed_loop(workload, pool, seconds):
    """Problems in pool order, cycling, until ``seconds`` have elapsed.

    Returns the nominal-speed latency of each verified problem: its time
    times GAUGE_NOMINAL_S over the mean of the gauges run just before and
    just after it.
    """
    latencies, attempted = [], 0
    deadline = time.perf_counter() + seconds
    before = gauge()
    while attempted < 2 or time.perf_counter() < deadline:  # quantiles need two
        outcome = attempt(workload.run, pool[attempted % len(pool)], f"problem {attempted}")
        after = gauge()
        if outcome is not None:
            latencies.append(outcome[0] * GAUGE_NOMINAL_S / ((before + after) / 2))
        before = after
        attempted += 1
    return latencies, attempted


def setup_seconds(name, spec, workdir):
    """Nominal-speed times of fresh interpreters that import the lab and finish one problem."""
    import workloads

    spec_file = workdir / "warmup.json"
    spec_file.write_text(json.dumps(spec))
    argv = [sys.executable, str(HERE / "probe.py"), name, str(spec_file), str(workdir)]
    env = workloads.child_env(ROOT)
    samples = []
    for _ in range(SETUP_PROBES):
        before = gauge()
        start = time.perf_counter()
        # A failing probe is timed too; the same problem fails again in the run.
        subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=120)
        seconds = time.perf_counter() - start
        samples.append(seconds * GAUGE_NOMINAL_S / ((before + gauge()) / 2))
    return samples


def timed_run(workload, specs, pool, args, workdir):
    setup = setup_seconds(workload.name, specs[0], workdir)
    attempt(workload.run, pool[0], "warm-up problem")  # untimed
    latencies, attempted = closed_loop(workload, pool, args.seconds)
    verified = len(latencies)
    if verified < 2:
        raise SystemExit(f"error: {verified} of {attempted} problems verified; no latency to report")
    if workload.name == "cli-cold":
        peak_kb = workload.peak_rss_kb  # the largest child
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deciles = statistics.quantiles([1e3 * s for s in latencies], n=10, method="inclusive")
    metrics = {
        "latency_ms_p50": (deciles[4], "ms"),
        "latency_ms_p90": (deciles[8], "ms"),
        # One client in a closed loop: problems per second of their summed latency.
        "throughput_per_s": (verified / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "verified_frac": (verified / attempted, "ratio"),
    }
    context = {"latency_samples": verified, "pool": len(pool), "setup_samples_s": setup}
    return metrics, attempted, attempted - verified, [], context


def traced_run(workload, pool, args):
    """An untraced and a traced pass over the pool; per-layer metrics per problem.

    A pass is the whole pool, whatever ``--seconds`` says, so that calls and
    point counts repeat exactly for a seed.
    """
    import tracing
    import workloads

    count = len(pool)
    run = workload.run_inprocess
    attempt(run, pool[0], "warm-up problem")  # untimed

    untraced = [attempt(run, p, f"untraced problem {i}") for i, p in enumerate(pool)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for i, p in enumerate(pool):
            tracer.request = i
            traced.append(attempt(run, p, f"traced problem {i}"))
    finally:
        tracer.uninstall()

    errors = []
    if [o and o[1] for o in untraced] != [o and o[1] for o in traced]:
        errors.append("a traced run gave other outputs than the untraced run")
    failed = sum(o is None for o in untraced + traced)
    untraced_s = sum(o[0] for o in untraced if o)
    traced_s = sum(o[0] for o in traced if o)

    totals, indeterminate = tracing.layer_totals(tracer.spans)
    self_s = sum(entry[1] for entry in totals.values())
    top_s = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    if abs(self_s - top_s) > 1e-9 * max(1, len(tracer.spans)):
        errors.append(f"self times sum to {self_s} s, top-level spans to {top_s} s")

    imports = tracing.import_breakdown(sys.executable, workloads.child_env(ROOT), ROOT)
    metrics = {}
    for name, (calls, own, _) in totals.items():
        metrics[f"{name}.calls"] = (calls / count, "count")
        metrics[f"{name}.self_ms"] = (1e3 * own / count, "ms")
    metrics["modelspace.point_evals"] = (tracer.point_evals / count, "count")
    metrics["clark.modified_clark_basis.failed"] = (totals["clark.modified_clark_basis"][2] / count, "count")
    metrics["repcheck.indeterminate"] = (indeterminate / count, "count")
    solves = max(tracer.solves, 1)  # both ratios read 0 on a workload without solves
    metrics["so3solver.starts_used"] = (tracer.starts_used / solves, "count")
    metrics["so3solver.found_ratio"] = (tracer.found / solves, "ratio")
    for package, seconds in imports.items():
        metrics[f"import.{package}_s"] = (seconds, "s")
    metrics["trace.wall_ms"] = (1e3 * traced_s / count, "ms")
    metrics["trace.unattributed_ms"] = (1e3 * (traced_s - self_s) / count, "ms")
    metrics["trace.untraced_ms"] = (1e3 * untraced_s / count, "ms")
    metrics["trace.overhead_ms"] = (1e3 * (traced_s - untraced_s) / count, "ms")

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    spans_file = out / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with spans_file.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span._asdict()) + "\n")
    context = {"problems_per_pass": count, "spans": len(tracer.spans),
               "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, 2 * count, failed, errors, context


def environment(cpus):
    """Context for every result: versions, CPUs, BLAS pinning and the src/ line count."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "model_space_lab").glob("*.py"))
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": cpus,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads OpenBLAS, which otherwise starts a thread per CPU.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "model_space_lab" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/model_space_lab to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpus = len(os.sched_getaffinity(0))
    # One CPU for the harness and, by inheritance, every child, so that the
    # gauge measures the CPU the problem ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy

    import selfcheck
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = selfcheck.static_errors(benchmark)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.make(args.workload, ROOT, workdir)
        specs = workload.generate(numpy.random.default_rng(args.seed))
        pool = [workload.prepare(spec, i) for i, spec in enumerate(specs)]
        if args.trace:
            metrics, attempted, failed, run_errors, context = traced_run(workload, pool, args)
        else:
            metrics, attempted, failed, run_errors, context = timed_run(
                workload, specs, pool, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors += run_errors

    listed = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(listed):
        errors.append(f"metrics {sorted(set(metrics) ^ set(listed))} differ from BENCHMARK.json")
    errors += selfcheck.name_errors(metrics)
    for error in errors:
        print(f"self-check failed: {error}", file=sys.stderr)

    print(json.dumps({"environment": environment(cpus), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **context}))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
