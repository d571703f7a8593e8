"""The oracle tables from the sign-pattern sweep against per-weight sums.

demazure_table and cech_table sum each sign pattern's cohomology times the
number of weights that have it, counted by bott._sign_pattern_counts. The
references below are the per-weight loops they replaced: they classify
every weight of the box (and of its shell) one at a time.
"""

import importlib.util
import json
import sys
from itertools import chain
from pathlib import Path

import pytest

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
    parse_problem,
    weight_box,
)
from bottsamelson.bott import _sign_pattern_counts

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
ORACLE_PROBLEMS = 300


def _workloads():
    """bench/workloads.py, the benchmark's seeded problem generator."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


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
    workloads = _workloads()
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


def test_closed_form_does_not_use_the_sweep(monkeypatch):
    # the oracles check cohomology_table, so it must not share their kernel
    def refuse(*args):
        raise AssertionError("cohomology_table called the sign-pattern sweep")

    monkeypatch.setattr(toric, "_sign_pattern_counts", refuse)
    bott = build_bott_data(cartan_of_type("A", 2), Word((1, 2)))
    assert cohomology_table(bott, ToricDivisor.upper((2, 1))).dims[0] > 0
