"""The tables from the sign-pattern sweep against per-weight sums.

cohomology_table, demazure_table and cech_table sum each sign pattern's
cohomology times the number of weights that have it, counted by
bott._sign_pattern_counts. The references are per-weight loops: they
classify every weight of the box (and of its shell) one at a time, as
toric._scan_table does for the closed form.
"""

import json
from itertools import chain

import pytest

import bottsamelson.analysis as analysis
import bottsamelson.bott as bott_module
import bottsamelson.toric as toric
from bottsamelson import (
    ToricDivisor,
    Word,
    build_bott_data,
    cartan_of_type,
    cech_table,
    cech_weight,
    cohomology_table,
    demazure_table,
    demazure_weight,
    load_problem,
    parse_problem,
    run_oracle,
    weight_box,
)
from bottsamelson.bott import _line_masks, _sign_pattern_counts
from bottsamelson.toric import _scan_table
from conftest import bench_workloads, run_cli

ORACLE_PROBLEMS = 300
TORIC_SCAN_POINTS = 20_000


def reference_demazure_dims(bott, divisor):
    box = weight_box(bott, divisor)
    dims = [0] * (bott.length + 1)
    for m in box.points():
        for degree, h in demazure_weight(bott, divisor, m).items():
            dims[degree] += h
    return tuple(dims)


def reference_cech_dims(bott, divisor):
    box = weight_box(bott, divisor)
    dims = [0] * (bott.length + 1)
    for m in chain(box.points(), box.shell_points()):
        for degree, h in cech_weight(bott, divisor, m).items():
            assert degree <= bott.length
            dims[degree] += h
    return tuple(dims)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tables_equal_per_weight_sums_on_oracle_small(seed):
    workloads = bench_workloads()
    for k in range(ORACLE_PROBLEMS):
        problem = workloads.problem("oracle_small", seed, k)
        spec = parse_problem(json.loads(problem.text))
        bott, divisor = spec.bott(), spec.divisor()
        where = f"oracle_small seed {seed} problem {k}"
        assert demazure_table(bott, divisor).dims == reference_demazure_dims(bott, divisor), where
        assert cech_table(bott, divisor).dims == reference_cech_dims(bott, divisor), where


def test_sweep_needs_no_recursion():
    # 1200 nested levels, far past Python's default recursion limit
    bott = build_bott_data(cartan_of_type("A", 1), Word((1,) * 1200))
    divisor = ToricDivisor.upper((0,) * 1200)
    box = weight_box(bott, divisor)
    # checked first: a wrong pattern here would send Sigma_m's 2^1200 faces
    # to demazure_table
    assert _sign_pattern_counts(bott, divisor, box.lo, box.hi) == {(0, 0): 1}
    table = demazure_table(bott, divisor)
    assert table.dims == (1,) + (0,) * 1200
    assert table.euler == 1


def test_scan_reference_does_not_use_the_sweep(monkeypatch):
    # run_oracle checks the sweep's tables against the scan, so the scan
    # must not share the sweep
    def refuse(*args):
        raise AssertionError("the scan called the sign-pattern sweep")

    monkeypatch.setattr(bott_module, "_sign_pattern_counts", refuse)
    monkeypatch.setattr(toric, "_sign_pattern_counts", refuse)
    bott = build_bott_data(cartan_of_type("A", 2), Word((1, 2)))
    divisor = ToricDivisor.upper((2, 1))
    assert _scan_table(bott, divisor, weight_box(bott, divisor), False).dims[0] > 0
    assert cohomology_table(bott, divisor, collect_witnesses=True).dims[0] > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_table_equals_the_scan_on_toric_boxes(seed):
    workloads = bench_workloads()
    checked = 0
    for k in range(workloads.TURN["toric_boxes"]):
        problem = workloads.problem("toric_boxes", seed, k)
        if problem.size > TORIC_SCAN_POINTS:
            continue
        spec = parse_problem(json.loads(problem.text))
        bott, divisor = spec.bott(), spec.divisor()
        box = weight_box(bott, divisor)
        assert cohomology_table(bott, divisor).dims == _scan_table(bott, divisor, box, False).dims, \
            f"toric_boxes seed {seed} problem {k}"
        checked += 1
    assert checked >= 15


def _drop_one_pattern(sweep):
    """The sweep with the weights of one concentrated pattern left out."""
    def dropped(*args):
        counts = sweep(*args)
        del counts[min(p for p in counts if p[0] == p[1])]
        return counts
    return dropped


def test_oracle_catches_a_sweep_that_drops_a_pattern(monkeypatch):
    # every sweep-based table loses the same weights, Cech included, so only
    # the per-weight scan can tell
    doc = json.dumps({"cartan": {"type": "A", "rank": 2}, "word": [1, 2], "divisor": [2, 1]})
    assert run_oracle(load_problem(doc))["agree"] is True
    monkeypatch.setattr(toric, "_sign_pattern_counts", _drop_one_pattern(_sign_pattern_counts))
    out = run_oracle(load_problem(doc))
    assert out["agree"] is False
    assert out["simplicial"] == out["cech"] != out["closed_form"]
    result = run_cli(["oracle", "-"], doc)
    assert result.exit_code == 4


def test_a_disagreeing_oracle_reports_the_closed_form_over_the_sweep(monkeypatch):
    # the sweep's closed form sides with the tables that share its defect,
    # so the report shows which table is off
    doc = json.dumps({"cartan": {"type": "A", "rank": 2}, "word": [1, 2], "divisor": [2, 1]})
    assert "closed_form_sweep" not in run_oracle(load_problem(doc))
    monkeypatch.setattr(toric, "_sign_pattern_counts", _drop_one_pattern(_sign_pattern_counts))
    out = run_oracle(load_problem(doc))
    assert out["closed_form"]["dims"] == [5, 0, 0]
    assert out["closed_form_sweep"] == out["simplicial"] == out["cech"] != out["closed_form"]
    assert "first_mismatch" not in out
    result = run_cli(["oracle", "-"], doc)
    assert result.exit_code == 4
    assert "closed form over the sign-pattern sweep: (0, 0, 0)" in result.output


def test_an_agreeing_oracle_sweeps_once(monkeypatch):
    # one count of the box and its shell serves the sweep's closed form,
    # the simplicial and the Cech tables; the box alone is swept again only
    # on disagreement
    calls = []

    def counted(*args):
        calls.append(args)
        return _sign_pattern_counts(*args)

    monkeypatch.setattr(toric, "_sign_pattern_counts", counted)
    doc = json.dumps({"cartan": {"type": "A", "rank": 2}, "word": [1, 2], "divisor": [2, 1]})
    assert run_oracle(load_problem(doc))["agree"] is True
    assert len(calls) == 1


def test_oracle_catches_a_box_that_misses_a_weight(monkeypatch):
    # the scan and the box's own sweep see only the short box; the tables
    # of the box and its shell still see the weights it misses
    def short(bott, divisor):
        box = weight_box(bott, divisor)
        return toric.WeightBox(lo=box.lo, hi=(*box.hi[:-1], box.hi[-1] - 1))

    doc = json.dumps({"cartan": {"type": "A", "rank": 2}, "word": [1, 2], "divisor": [2, 1]})
    monkeypatch.setattr(toric, "weight_box", short)
    out = run_oracle(load_problem(doc))
    assert out["agree"] is False
    assert out["closed_form"] == out["closed_form_sweep"] == {"dims": [2, 0, 0], "euler": 2}
    assert out["simplicial"] == out["cech"] == {"dims": [5, 0, 0], "euler": 5}
    result = run_cli(["oracle", "-"], doc)
    assert result.exit_code == 4


def _flip_one_bit(line_masks, weight):
    """The enumerator with bad_plus bit 1 flipped at one weight."""
    def flipped(bott, divisor, lo, hi):
        for prefix, masks in line_masks(bott, divisor, lo, hi):
            if prefix == weight[:-1] and lo[-1] <= weight[-1] <= hi[-1]:
                masks = list(masks)
                plus, minus = masks[weight[-1] - lo[-1]]
                masks[weight[-1] - lo[-1]] = (plus ^ 1, minus)
            yield prefix, masks
    return flipped


def test_first_mismatch_names_a_weight_whose_line_masks_are_wrong(monkeypatch):
    # the scan and first_mismatch read the same wrong masks, so every
    # per-weight rule agrees with the others; only _sign_masks tells
    doc = json.dumps({"cartan": {"type": "A", "rank": 2}, "word": [1, 2], "divisor": [2, 1]})
    flipped = _flip_one_bit(_line_masks, (-1, 0))
    monkeypatch.setattr(toric, "_line_masks", flipped)
    monkeypatch.setattr(analysis, "_line_masks", flipped)
    out = run_oracle(load_problem(doc))
    assert out["agree"] is False
    assert out["first_mismatch"] == {"weight": [-1, 0], "line_masks": [1, 0], "sign_masks": [0, 0]}
    result = run_cli(["oracle", "-"], doc)
    assert result.exit_code == 4
    assert "first failing weight: (-1, 0)" in result.output
    assert "line masks: (1, 0)" in result.output
