"""Tests of the benchmark itself:  python -m pytest bench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bottsamelson as bs  # noqa: E402
from bottsamelson import analysis  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Spans, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generator_is_byte_identical_per_seed():
    for workload in workloads.WORKLOADS:
        first = [workloads.problem(workload, 5, k).text for k in range(12)]
        again = [workloads.problem(workload, 5, k).text for k in range(12)]
        other = [workloads.problem(workload, 6, k).text for k in range(12)]
        assert first == again
        assert first != other


def test_generator_matches_committed_documents():
    committed = json.loads(checks.EXPECTED_PATH.read_text())["documents"]
    assert sorted(committed) == sorted(workloads.WORKLOADS)
    for workload, digests in committed.items():
        texts = [workloads.problem(workload, workloads.DEFAULT_SEED, k).text
                 for k in range(len(digests))]
        assert [checks.digest(t) for t in texts] == digests


def test_generated_problems_parse_and_stay_under_default_caps():
    for workload in workloads.WORKLOADS:
        for k in range(workloads.TURN[workload]):
            problem = workloads.problem(workload, 3, k)
            spec = analysis.load_problem(problem.text)
            assert spec.bott().length == problem.length
            assert problem.size <= analysis.DEFAULT_BOX_CAP
            if workload in ("toric_boxes", "oracle_small"):
                assert bs.weight_box(spec.bott(), spec.divisor()).num_points == problem.size


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.PER_LAYER_UNITS[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_is_span_minus_children():
    # root [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 55].
    spans = Spans(["analysis.run", "bott.a", "toric.c"],
                  name=[0, 1, 1, 2], parent=[-1, 0, 0, 2], problem=[0, 0, 0, 0],
                  start=[0, 10, 40, 45], end=[100, 30, 70, 55])
    assert spans.self_ns() == [50, 20, 20, 10]
    by_layer = spans.by_layer()
    assert by_layer["analysis"] == (50, 1)
    assert by_layer["bott"] == (40, 2)
    assert by_layer["toric"] == (10, 1)


def test_traced_run_accounts_for_all_time_and_restores_functions(tmp_path):
    original = analysis.run_analyze
    problem = workloads.problem("toric_boxes", 2, 0)
    with Tracer(bs) as tracer:
        assert analysis.run_analyze is not original
        tracer.problem = 7
        spec = analysis.load_problem(problem.text)
        analysis.report_json(analysis.run_analyze(spec))
    assert analysis.run_analyze is original
    spans = tracer.spans()
    roots = [i for i, p in enumerate(spans.parent) if p == -1]
    assert sum(spans.self_ns()) == sum(spans.end[i] - spans.start[i] for i in roots)
    assert set(spans.problem) == {7}
    assert spans.durations_ns("toric.cohomology_table")
    path = tmp_path / "spans.csv.gz"
    spans.write(path)
    back = Spans.read(path)
    assert back.names == spans.names
    assert back.self_ns() == spans.self_ns()


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1000)], 99) == (989.01, 10)
    assert run.tail([1.0, 2.0, 3.0], 50) == (2.0, 1)


def _bench(cwd, *args, timeout):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_run_is_quick_and_correct():
    proc = _bench(ROOT, "--workload", "oracle_small", "--seed", "4", "--seconds", "1",
                  "--trace", "0", timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "certify_long", "--seed", "1", "--seconds", "1",
                  "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
