#!/usr/bin/env python3
"""Benchmark of adhocpo: a cold library solve, warm online trials, a full-scale map.

Run from the root of a checkout:

    python3 bench/run.py --workload online-grid --seed 1 --seconds 10 --trace 0

Workloads (defined in bench/workloads.py):

- solve-grid: cold prepare_library of a 2-model 4x4 gridworld (dense
  tables), then one experiment on the fresh library.
- online-grid: warm prepare_library of the 8-model 4x4 gridworld, then
  run_experiment blocks of atpo, vi and random, with emit_reports.
- map-isr: the same shape on the full-scale isr map (1807 states, CSR).

``--seed`` fixes the inputs.  ``--seconds`` fixes how many timed operations
the run makes.  With ``--trace 0`` the metrics are the end-to-end ones:

- setup_s: median set-up time.
- work_s: median time of one operation (a cold solve, or an experiment
  block with its reports).
- peak_rss_mb: peak resident memory of the process.

The description lines also give the ATPO act + observe time per step
(step_p50_us, and step_p99_us at the highest percentile with at least 10
samples beyond it) and failed_ratio.  They are not gated metrics: on a
shared 2-core machine the step percentiles of runs minutes apart spread
wider than any bound the gate allows, and a ratio that is 0 at every
correct run has no median to bound against.  Online step time still
gates through work_s, most of which is ATPO steps.

With ``--trace 1`` every public package function the workloads reach is
wrapped where its caller looks it up.  The metrics are then per layer: each
layer's total and self time, time per call of the main kernels, and the
solver, filter and cache counts.  Names ending in ``_us``/``_ms`` are
times per call; names ending in ``_s`` are totals.

Lines before the last describe the run: the machine, every metric with its
unit, and each check.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Files go to ``.bench_work/`` at the root of the checkout: the policy caches
of the warm workloads, the reports, the spans of traced runs and one result
file per run.  The first run in a checkout fills the caches in a child
process, so the solve neither counts in that run's memory nor its times.

Self-test at toy sizes, about 20 s on 2 cores:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fill", action="store_true", help="fill the policy caches of the warm workloads and exit"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not args.fill and args.workload is None:
        parser.error("--workload is required")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adhocpo" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # One BLAS thread keeps the float summation order, and with it the
    # policies and every count, identical from run to run.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import adhocpo

    if SRC not in Path(adhocpo.__file__).resolve().parents:
        print(f"error: imported adhocpo from {adhocpo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.fill:
        workloads.fill_caches(workloads.WORKLOADS.values(), WORKDIR)
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if workloads.needs_fill(workloads.WORKLOADS.values(), WORKDIR):
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--fill"], check=True)

    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    report = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, WORKDIR)
    report["machine"] = machine
    results = WORKDIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    untraced = results / f"{stem}-trace0.json"
    if args.trace and untraced.is_file():
        before = json.loads(untraced.read_text())["end_to_end"]
        report["trace_overhead"] = {
            name: {"traced_minus_untraced": m["value"] - before[name]["value"], "unit": m["unit"]}
            for name, m in report["end_to_end"].items()
            if m["value"] is not None and before.get(name, {}).get("value") is not None
        }
        print("tracing overhead (this run minus the untraced run of the same seed)")
        for name, d in report["trace_overhead"].items():
            print(f"  {name} {d['traced_minus_untraced']:+.6g} {d['unit']}")
    (results / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["result"]))
    return 0


def run_workload(workload, seed: int, seconds: int, trace: int, workdir: Path) -> dict:
    """Run one workload, print its description lines and return the full report.

    report["result"] is the object the last output line carries.
    """
    import spans
    import workloads

    run = workloads.Run(workload, seed, seconds, workdir)
    run.execute(trace=bool(trace))
    print(f"workload {workload.name} seed {seed}: {len(run.setup_s)} set-ups, {len(run.op_s)} timed operations")
    end_to_end = run.end_to_end()
    _print_metrics("end-to-end" + (" (traced)" if trace else ""), end_to_end)
    tail = workloads.tail_percentile(len(run.steps))
    step_tail_us = run.step_us(tail)
    failed_ratio = run.failed / run.attempted if run.attempted else None
    alias = "experiment_s" if workload.warm else "solve_s"
    print("also reported, not gated")
    print(f"  {alias} {end_to_end['work_s'][0]} s (work_s: median of {len(run.op_s)} operations)")
    print(f"  step_p50_us {run.step_us(50.0)} us (median of {len(run.steps)} ATPO steps)")
    print(f"  step_p99_us {step_tail_us} us (percentile {tail} of {len(run.steps)} ATPO steps)")
    print(f"  failed_ratio {failed_ratio} ({run.failed} of {run.attempted} operations)")
    if run.atpo_score is not None:
        print(f"  atpo_normalized_score {run.atpo_score}")
    print("checks")
    for name, (passed, checked) in run.checks.items():
        print(f"  {'ok  ' if passed == checked else 'FAIL'} {name}: {passed}/{checked}")
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_times_s": run.setup_s,
        "operation_times_s": run.op_s,
        "step_samples": len(run.steps),
        "step_p50_us": run.step_us(50.0),
        "step_tail_percentile": tail,
        "step_tail_us": step_tail_us,
        "failed_ratio": failed_ratio,
        "atpo_score": run.atpo_score,
        "checks": run.checks,
        "end_to_end": _metrics_json(end_to_end),
    }
    metrics = end_to_end
    if trace:
        s = run.tracer.summary()
        metrics = run.per_layer(s, spans.span_cost_s())
        _print_metrics("per layer", metrics)
        calls = s["calls"]
        prepares = workload.setup_reps if workload.warm else run.ops
        digests = calls.get("modelio.model_digest", 0) / (prepares * run.models)
        print(f"  model_digest calls per model per prepare_library: {digests:g}")
        print(
            f"  cache load {s['total_s'].get('solvers.cache_load', 0.0):.6g} s,"
            f" cache store {s['total_s'].get('solvers.cache_store', 0.0):.6g} s"
        )
        report["per_layer"] = _metrics_json(metrics)
        report["span_calls"] = calls
        report["span_self_s"] = s["self_s"]
        spans_dir = workdir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        run.tracer.write(spans_dir / f"{workload.name}-seed{seed}.csv")
    report["result"] = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": _metrics_json(metrics),
    }
    return report


if __name__ == "__main__":
    sys.exit(main())
