"""One benchmark worker: a fresh interpreter, as one CLI session would be.

The worker imports bottsamelson.cli, then runs generated problems one after
another, a closed loop with a single caller. Each problem is timed along
the CLI's own path without click: load_problem, then run_*, then
report_json, and scaled to nominal host speed (see cpus.py). Output checks
run after each problem, outside its timing.

  --seconds T   run problems 0, 1, 2, ... in whole turns of the workload's
                size schedule until T seconds of problem time have passed
  --count R     run exactly problems 0 .. R-1
  --trace       with --count: record spans, then measure the per-layer
                probes and report per-layer metrics

The last line of output is one JSON object; run.py reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from itertools import product
from time import perf_counter_ns

import checks
import workloads
from cpus import CpuPicker
from tracing import Spans, Tracer

# Fresh towers whose alpha coefficients the per-layer probe times, cold.
ALPHA_PROBE_TOWERS = 6
REFLECT_PROBE_NS = 200_000_000

# One N = 4 Cech sign pattern, the cost that keeps N = 4 out of oracle_small:
# the rank-3 type A tower on the word (2, 1, 3, 2) at the weight (1, 1, 0, 0).
N4_PROBLEM = {"cartan": {"type": "A", "rank": 3}, "word": [2, 1, 3, 2],
              "divisor": {"a": [-1, -1, 1, 0]}}
N4_WEIGHT = (1, 1, 0, 0)


def execute(analysis, problem: workloads.Problem):
    """The CLI's path for one problem, minus click: (report dict, JSON text)."""
    spec = analysis.load_problem(problem.text)
    command = problem.argv[0]
    if command == "analyze":
        doc = analysis.run_analyze(spec, with_toric="--no-toric" not in problem.argv)
    elif command == "toric":
        doc = analysis.run_toric(spec)
    elif command == "scan":
        doc = analysis.run_scan(spec)
    else:
        doc = analysis.run_oracle(spec)
    return doc, analysis.report_json(doc)


def table_dims(doc: dict):
    """The closed-form toric table of a report, if it has one."""
    if doc.get("toric"):
        return doc["toric"]["dims"]
    if "closed_form" in doc:
        return doc["closed_form"]["dims"]
    return None


def run_problems(bs, args, tracer=None) -> dict:
    from bottsamelson import analysis

    expected = checks.expected_digests(args.workload, args.seed)
    latencies, raw_latencies, digests, report_bytes, tables = [], [], [], [], {}
    failures, failed = [], set()
    turns = []  # (problems completed, scaled problem time in ns) of each whole turn
    scaled_busy = 0
    busy_ns, budget_ns = 0, int(args.seconds * 1e9)
    turn = workloads.TURN[args.workload]
    turn_start = (0, 0)
    peak_rss = None
    picker = CpuPicker()
    k = 0
    # Whole turns of the size schedule, so that every run measures one mix.
    while (k < args.count) if args.count is not None else (k % turn or busy_ns < budget_ns):
        problem = workloads.problem(args.workload, args.seed, k)
        if tracer is not None:
            tracer.problem = k
        picker.pin()
        t0 = perf_counter_ns()
        try:
            doc, report = execute(analysis, problem)
        except bs.BottSamelsonError as exc:
            doc, reasons = None, [f"{type(exc).__name__}: {exc}"]
        elapsed = perf_counter_ns() - t0
        busy_ns += elapsed
        scaled = picker.scale(elapsed)
        scaled_busy += scaled
        if doc is not None:
            latencies.append(scaled)
            raw_latencies.append(elapsed)
            digests.append(checks.digest(report))
            report_bytes.append(len(report))
            dims = table_dims(doc)
            if dims is not None:
                tables[k] = (problem.size, sum(dims))
            reasons = [checks.inline_check(args.workload, doc)]
            if k < len(expected) and digests[-1] != expected[k]:
                reasons.append("report digest differs from the committed one")
            # A traced run replays problems its untraced twin already checked.
            if tracer is None and checks.sampled(args.workload, args.seed, k):
                reasons.append(checks.spot_check(bs, args.workload, args.seed, problem, doc))
        for reason in filter(None, reasons):
            failed.add(k)
            failures.append(f"problem {k}: {reason}")
        k += 1
        if k % turn == 0:
            turns.append((len(latencies) - turn_start[0], scaled_busy - turn_start[1]))
            turn_start = (len(latencies), scaled_busy)
        if k == turn:
            peak_rss = _peak_rss_bytes()
    return {
        "attempted": k,
        "failed": len(failed),
        "failures": failures[:20],
        # Latencies at nominal host speed (see cpus.py); the raw ones as measured.
        "latencies_ns": latencies,
        "raw_latencies_ns": raw_latencies,
        "turns": turns,
        "digests": digests,
        "report_bytes": report_bytes,
        "tables": tables,
        # Over the first turn, so that it does not grow with the number of
        # turns that happen to fit in the run.
        "peak_rss_bytes": peak_rss or _peak_rss_bytes(),
        "reference_ns": picker.reference_ns,
    }


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _ms(ns: float) -> float:
    return ns / 1e6


def reflect_probe(bs, gcms) -> float:
    """Microseconds per reflect + pairing, over simple and once-reflected roots."""
    calls = []
    for gcm in gcms:
        simple = [bs.simple_root(gcm, i) for i in range(1, gcm.n + 1)]
        roots = simple + [bs.reflect(gcm, i, r) for r in simple for i in range(1, gcm.n + 1)]
        calls.extend((gcm, i, r) for r in roots for i in range(1, gcm.n + 1))
    reflect, pairing = bs.reflect, bs.pairing
    rounds, t0 = 0, perf_counter_ns()
    while True:
        for gcm, i, r in calls:
            reflect(gcm, i, r)
            pairing(gcm, i, r)
        rounds += 1
        elapsed = perf_counter_ns() - t0
        if elapsed >= REFLECT_PROBE_NS:
            return elapsed / 1e3 / (rounds * len(calls))


def alpha_probe(bs, specs):
    """Build each tower, then time alpha_reflect over the analyze report's
    alpha-summary set: every i < j with every interior sign vector."""
    build_ns, alpha_ns, calls = [], [], []
    for spec in specs:
        t0 = perf_counter_ns()
        bott = bs.build_bott_data(spec.gcm, spec.word)
        build_ns.append(perf_counter_ns() - t0)
        n = bott.length
        triples = [(i, j, (1,) * i + interior + (1,) * (n - j + 1))
                   for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   for interior in product((1, -1), repeat=j - i - 1)]
        t0 = perf_counter_ns()
        for i, j, eps in triples:
            bs.alpha_reflect(bott, i, j, eps)
        alpha_ns.append(perf_counter_ns() - t0)
        calls.append(len(triples))
    return (_ms(statistics.median(build_ns)), _ms(statistics.median(alpha_ns)),
            statistics.mean(calls))


def pattern_probe(bs, specs):
    """Distinct sign patterns the oracle's caches would compute, and the
    median cost of one, timed through the uncached public routes."""
    simplicial, cech, weights = {}, {}, []
    for spec in specs:
        bott, divisor = spec.bott(), spec.divisor()
        box = bs.weight_box(bott, divisor)
        enlarged = box.enlarged()
        weights.append(enlarged.num_points)
        for m in enlarged.points():
            c = bs.cech_complex(bott, divisor, m)
            cech.setdefault((bott.length, c.bad_plus, c.bad_minus), (bott, divisor, m))
            # Sigma_m is keyed by its negative rays alone; none means no work.
            if box.contains(m) and (c.bad_plus or c.bad_minus):
                simplicial.setdefault((c.bad_plus, c.bad_minus), (bott, divisor, m))
    simplicial_ns = []
    for bott, divisor, m in simplicial.values():
        t0 = perf_counter_ns()
        bs.reduced_cohomology(bs.sigma_m(bott, divisor, m))
        simplicial_ns.append(perf_counter_ns() - t0)
    cech_ns = []
    for bott, divisor, m in cech.values():
        t0 = perf_counter_ns()
        bs.cech_complex(bott, divisor, m).dims()
        cech_ns.append(perf_counter_ns() - t0)
    return {
        "simplicial.patterns": len(simplicial),
        "simplicial.pattern_ms": _ms(statistics.median(simplicial_ns)) if simplicial_ns else 0.0,
        "cech.weights": statistics.mean(weights) if weights else 0,
        "cech.patterns": len(cech),
        "cech.pattern_ms": _ms(statistics.median(cech_ns)) if cech_ns else 0.0,
    }


def n4_pattern_ms(bs) -> float:
    spec = bs.parse_problem(N4_PROBLEM)
    complex_ = bs.cech_complex(spec.bott(), spec.divisor(), N4_WEIGHT)
    t0 = perf_counter_ns()
    complex_.dims()
    return _ms(perf_counter_ns() - t0)


def layer_metrics(bs, args, spans: Spans, result: dict, import_ms: float) -> dict:
    """Per-layer metrics of a traced run (tracer already removed)."""
    count = max(1, result["attempted"])
    tables = result["tables"]
    table_problems = spans.problems_with("toric.cohomology_table")
    box_points = sum(tables[k][0] for k in table_problems if k in tables)
    concentrated = sum(tables[k][1] for k in table_problems if k in tables)
    table_ns = sum(spans.durations_ns("toric.cohomology_table"))
    reports_ns = spans.durations_ns("vanishing.vanishing_report")
    metrics = {
        "cli.import_ms": import_ms,
        "analysis.parse_ms": spans.median_ms("analysis.load_problem"),
        "analysis.render_ms": spans.median_ms("analysis.report_json"),
        "analysis.report_kb": statistics.median(result["report_bytes"]) / 1e3,
        "vanishing.profile_ms": spans.median_ms("vanishing.condition_profile"),
        "vanishing.report_ms": spans.median_ms("vanishing.vanishing_report"),
        "vanishing.us_per_report": sum(reports_ns) / 1e3 / len(reports_ns) if reports_ns else 0.0,
        "toric.box_ms": spans.median_ms("toric.weight_box"),
        "toric.table_ms": spans.median_ms("toric.cohomology_table"),
        "toric.box_points": box_points / len(table_problems) if table_problems else 0,
        "toric.concentrated": concentrated / len(table_problems) if table_problems else 0,
        "toric.hit_ratio": concentrated / box_points if box_points else 0.0,
        "toric.us_per_point": table_ns / 1e3 / box_points if box_points else 0.0,
        "simplicial.table_ms": spans.median_ms("toric.demazure_table"),
        "cech.table_ms": spans.median_ms("cech.cech_table"),
    }
    for layer, (self_ns, calls) in spans.by_layer().items():
        metrics[f"{layer}.self_ms"] = _ms(self_ns) / count
        metrics[f"{layer}.calls"] = calls / count

    problems = [workloads.problem(args.workload, args.seed, k) for k in range(result["attempted"])]
    replayed = [bs.load_problem(p.text) for p in problems]
    gcms = list({spec.gcm.entries: spec.gcm for spec in replayed}.values())
    metrics["rootsystem.reflect_us"] = reflect_probe(bs, gcms)
    fresh = [bs.load_problem(workloads.problem(args.workload, args.seed, k).text)
             for k in range(result["attempted"], result["attempted"] + ALPHA_PROBE_TOWERS)]
    metrics["bott.build_ms"], metrics["bott.alpha_ms"], metrics["bott.alpha_calls"] = \
        alpha_probe(bs, fresh)
    metrics.update(pattern_probe(
        bs, [spec for p, spec in zip(problems, replayed) if p.argv[0] == "oracle"]))
    metrics["cech.pattern_ms_n4"] = n4_pattern_ms(bs)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.trace and args.count is None:
        parser.error("--trace needs --count")

    t0 = perf_counter_ns()
    import bottsamelson.cli  # noqa: F401  (what the CLI pays before any work)
    import_ms = _ms(perf_counter_ns() - t0)
    import bottsamelson as bs

    if args.trace:
        with Tracer(bs) as tracer:
            result = run_problems(bs, args, tracer)
        spans = tracer.spans()
        result["spans"] = len(spans)
        result["layers"] = layer_metrics(bs, args, spans, result, import_ms)
        if args.spans:
            spans.write(args.spans)
    else:
        result = run_problems(bs, args)
    del result["tables"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
