"""Benchmark of the bottsamelson CLI: one workload, one seed, one run.

    python3 bench/run.py --workload certify_long --seed 1 --seconds 20 --trace 0

With --trace 0 a fresh worker runs the workload's problems, in whole turns
of its size schedule, for --seconds seconds of problem time, and the run
reports the end-to-end metrics. With --trace 1 one worker replays one turn
untraced and a second replays it with spans; the run reports the per-layer
metrics and the tracing overhead. Every report is checked; see checks.py. The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics. Run from the root of a source checkout: the package is imported
from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from cpus import CpuPicker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 11
RUN_LIMIT_S = 170

END_TO_END_UNITS = {
    "problems_per_s": "1/s",
    "problem_ms_p50": "ms",
    "problem_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "analysis.parse_ms": "ms",
    "analysis.render_ms": "ms",
    "analysis.report_kb": "kB",
    "rootsystem.reflect_us": "us",
    "bott.build_ms": "ms",
    "bott.alpha_ms": "ms",
    "bott.alpha_calls": "count",
    "vanishing.profile_ms": "ms",
    "vanishing.report_ms": "ms",
    "vanishing.us_per_report": "us",
    "toric.box_ms": "ms",
    "toric.table_ms": "ms",
    "toric.box_points": "count",
    "toric.concentrated": "count",
    "toric.hit_ratio": "ratio",
    "toric.us_per_point": "us",
    "simplicial.table_ms": "ms",
    "simplicial.patterns": "count",
    "simplicial.pattern_ms": "ms",
    "cech.table_ms": "ms",
    "cech.weights": "count",
    "cech.patterns": "count",
    "cech.pattern_ms": "ms",
    "cech.pattern_ms_n4": "ms",
    **{f"{layer}.{kind}": unit
       for layer in ("rootsystem", "bott", "vanishing", "toric", "simplicial", "cech",
                     "linalg", "analysis")
       for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_once() -> float:
    """Seconds from spawning an interpreter until `import bottsamelson.cli` returns."""
    code = "import bottsamelson.cli, sys; sys.stdout.write('ok'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=_env(), cwd=ROOT) as proc:
        ready = proc.stdout.read(2)
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=30)
    if ready != b"ok" or proc.returncode != 0:
        raise BenchError("importing bottsamelson.cli failed")
    return elapsed


def measure_setup() -> float:
    picker = CpuPicker()  # each spawn starts on the CPU this process is pinned to
    try:
        picker.pin()
        _import_once()  # the first import also writes the bytecode cache
        times = []
        for _ in range(SETUP_SPAWNS):
            picker.pin()
            times.append(picker.scale(_import_once()))
    finally:
        picker.release()
    return statistics.median(times)


def spawn_worker(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies_ms, p: float):
    """(value, samples beyond it) at percentile p."""
    ordered = sorted(latencies_ms)
    value = percentile(ordered, p)
    return value, sum(1 for x in ordered if x > value)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setup_s = measure_setup()
    res = spawn_worker(deadline, "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds))
    lat_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    if not lat_ms:
        raise BenchError("no problem completed")
    p = workloads.TAIL_PERCENTILE[workload]
    tail_ms, beyond = tail(lat_ms, p)
    raw_p50_ms = statistics.median(res["raw_latencies_ns"]) / 1e6
    metrics = {
        # The median turn, so that one slow stretch of a shared host does
        # not move the whole figure.
        "problems_per_s": statistics.median(done / (ns / 1e9) for done, ns in res["turns"]),
        "problem_ms_p50": statistics.median(lat_ms),
        "problem_ms_tail": tail_ms,
        "peak_rss_mb": res["peak_rss_bytes"] / 1e6,
        "setup_s": setup_s,
    }
    notes = {
        "problem_ms_p50": f"{raw_p50_ms:.4g} ms as measured; reference loop "
                          f"{res['reference_ns'] / 1e6:.4g} ms at the end",
        "problem_ms_tail": f"p{p:g} of {len(lat_ms)} problems, {beyond} beyond it",
    }
    return res, metrics, END_TO_END_UNITS, notes


def per_layer(workload: str, seed: int, deadline: float):
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--count", str(workloads.TURN[workload])]
    base = spawn_worker(deadline, *common)
    spans_path = OUT / f"spans-{workload}-seed{seed}.csv.gz"
    traced = spawn_worker(deadline, *common, "--trace", "--spans", str(spans_path))
    if traced["digests"] != base["digests"]:
        traced["failed"] += 1
        traced["failures"].append("traced reports differ from untraced ones")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = 100 * (
        sum(traced["raw_latencies_ns"]) / sum(base["raw_latencies_ns"]) - 1)
    res = dict(base, failed=max(base["failed"], traced["failed"]),
               failures=base["failures"] + traced["failures"])
    notes = {"trace.overhead_pct": f"{traced['spans']} spans, written to {spans_path.relative_to(ROOT)}"}
    return res, metrics, PER_LAYER_UNITS, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bottsamelson" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            res, metrics, units, notes = per_layer(args.workload, args.seed, deadline)
        else:
            res, metrics, units, notes = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {workloads.DESCRIPTIONS[args.workload]}")
    print(f"problems attempted {attempted}, failed {failed}, "
          f"error_rate {failed / max(1, attempted):g}")
    for reason in res["failures"]:
        print(f"  failure: {reason}")
    for name in units:
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:26s} {metrics[name]!r:>24} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
