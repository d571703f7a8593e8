"""Property tests: the reachable-root sweeps against enumeration, on
random generalized Cartan matrices too, scan tables and records against
single-point reports, the sign-pattern sweep and the line-by-line
enumerator against per-weight masks,
the toric table from it against the per-weight scan, the per-weight
masks and the closed form against phi from the beta formula, Serre
duality of the toric table, and the corner weights inside the weight
box, over finite, affine and indefinite matrices; and report_json
against json.dumps, on any document and on int tables, scan records and
flat rows.

Derandomized, so the examples are the same on every run.
"""

import json
from collections import Counter
from enum import IntEnum
from itertools import product
from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from bottsamelson import (
    ToricDivisor,
    WeightBox,
    all_sign_vectors,
    alpha_reflect,
    big_c,
    build_bott_data,
    cartan_of_type,
    cohomology_table,
    condition_profile,
    parse_problem,
    phi,
    report_json,
    run_scan,
    validate_gcm,
    vanishing_report,
    weight_box,
    x_vector,
)
from bottsamelson.analysis import _alpha_summary
from bottsamelson.bott import _line_masks, _sign_masks, _sign_pattern_counts
from bottsamelson.toric import _closed_degree, _scan_table
from bottsamelson.vanishing import _sweep_bounds, _vanishing_report

MATRICES = {
    "A3": cartan_of_type("A", 3),
    "B3": cartan_of_type("B", 3),
    "C3": cartan_of_type("C", 3),
    "D4": cartan_of_type("D", 4),
    "G2": validate_gcm([[2, -1], [-3, 2]]),
    "A1^(1)": validate_gcm([[2, -2], [-2, 2]]),
    "A2^(2)": validate_gcm([[2, -4], [-1, 2]]),
    "indefinite": validate_gcm([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]),
}

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)
BOX_POINTS = 4000
INT64_MAX = 2**63 - 1


@st.composite
def towers(draw, max_length=8):
    gcm = MATRICES[draw(st.sampled_from(sorted(MATRICES)))]
    length = draw(st.integers(1, max_length))
    word = draw(st.lists(st.integers(1, gcm.n), min_size=length, max_size=length))
    return build_bott_data(gcm, word)


def coeffs(n, bound):
    return st.lists(st.integers(-bound, bound), min_size=n, max_size=n)


@PROPERTY
@given(st.data())
def test_profile_equals_suffix_enumeration(data):
    bott = data.draw(towers())
    n = bott.length
    a = data.draw(coeffs(n, 4))
    profile = condition_profile(bott, a)
    for i in range(1, n + 1):
        values = [big_c(bott, a, i, (1,) * i + s) for s in all_sign_vectors(n - i)]
        assert profile.c_min[i - 1] == min(values)
        assert profile.c_max[i - 1] == max(values)


@st.composite
def random_gcms(draw):
    """Any generalized Cartan matrix of rank 2-4 with off-diagonal entries
    in [-3, 0], a_ij = 0 exactly when a_ji = 0."""
    n = draw(st.integers(2, 4))
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                entries[i][j] = draw(st.integers(-3, -1))
                entries[j][i] = draw(st.integers(-3, -1))
    return validate_gcm(entries)


@PROPERTY
@given(st.data())
def test_profile_over_random_matrices_equals_suffix_enumeration(data):
    gcm = data.draw(random_gcms())
    n = data.draw(st.integers(1, 8))
    bott = build_bott_data(gcm, data.draw(st.lists(st.integers(1, gcm.n), min_size=n, max_size=n)))
    a = data.draw(coeffs(n, 4))
    profile = condition_profile(bott, a)
    for i in range(1, n + 1):
        values = [big_c(bott, a, i, (1,) * i + s) for s in all_sign_vectors(n - i)]
        assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (min(values), max(values))


@PROPERTY
@given(st.data())
def test_grid_tables_over_random_matrices_equal_single_point_reports(data):
    gcm = data.draw(random_gcms())
    n = data.draw(st.integers(1, 5))
    bott = build_bott_data(gcm, data.draw(st.lists(st.integers(1, gcm.n), min_size=n, max_size=n)))
    ranges = data.draw(scan_ranges(n))
    tables = _sweep_bounds(bott, ranges)
    for a in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        profile = _vanishing_report(bott, a).profile
        k = 0  # lexicographic number of the suffix (a_{i+1}, ..., a_N)
        for i in range(n, 0, -1):
            low, high = tables[i - 1][k]
            assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (a[i - 1] + low, a[i - 1] + high)
            k += (a[i - 1] - ranges[i - 1][0]) * prod(hi - lo + 1 for lo, hi in ranges[i:])


@PROPERTY
@given(towers())
def test_alpha_summary_equals_interior_enumeration(bott):
    n = bott.length
    for pair in _alpha_summary(bott)["pairs"]:
        i, j = pair["i"], pair["j"]
        values = [
            alpha_reflect(bott, i, j, (1,) * i + interior + (1,) * (n - j + 1))
            for interior in all_sign_vectors(j - i - 1)
        ]
        assert (pair["min"], pair["max"]) == (min(values), max(values))


@PROPERTY
@given(st.data())
def test_alpha_summary_over_random_matrices_equals_interior_enumeration(data):
    # the summary reads the direction plan, whose coef and turn tables are
    # filled only as far as the condition sweep needs; any matrix must do
    gcm = data.draw(random_gcms())
    n = data.draw(st.integers(1, 8))
    bott = build_bott_data(gcm, data.draw(st.lists(st.integers(1, gcm.n), min_size=n, max_size=n)))
    pairs = _alpha_summary(bott)["pairs"]
    assert [(pair["i"], pair["j"]) for pair in pairs] == [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    for pair in pairs:
        i, j = pair["i"], pair["j"]
        values = [
            alpha_reflect(bott, i, j, (1,) * i + interior + (1,) * (n - j + 1))
            for interior in all_sign_vectors(j - i - 1)
        ]
        assert (pair["min"], pair["max"]) == (min(values), max(values))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_warm_direction_tables_agree_with_enumeration(data):
    # towers over one matrix share its direction table and alpha memo, so
    # every tower after the first starts from directions, reflections and
    # alpha steps that other words recorded; each must still agree with
    # alpha_reflect and big_c, which never read the table
    gcm = data.draw(random_gcms())
    for _ in range(data.draw(st.integers(4, 10))):
        n = data.draw(st.integers(1, 7))
        bott = build_bott_data(gcm, data.draw(st.lists(st.integers(1, gcm.n), min_size=n, max_size=n)))
        for pair in _alpha_summary(bott)["pairs"]:
            i, j = pair["i"], pair["j"]
            values = [
                alpha_reflect(bott, i, j, (1,) * i + interior + (1,) * (n - j + 1))
                for interior in all_sign_vectors(j - i - 1)
            ]
            assert (pair["min"], pair["max"]) == (min(values), max(values))
        a = data.draw(coeffs(n, 3))
        profile = condition_profile(bott, a)
        for i in range(1, n + 1):
            values = [big_c(bott, a, i, (1,) * i + s) for s in all_sign_vectors(n - i)]
            assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (min(values), max(values))


@PROPERTY
@given(st.data())
def test_serre_duality_of_the_toric_table(data):
    bott = data.draw(towers())
    n = bott.length
    divisor = ToricDivisor(a=data.draw(coeffs(n, 2)), b=data.draw(coeffs(n, 2)))
    dual = divisor.serre_dual()
    assume(weight_box(bott, divisor).num_points <= BOX_POINTS)
    assume(weight_box(bott, dual).num_points <= BOX_POINTS)
    dims = cohomology_table(bott, divisor).dims
    assert cohomology_table(bott, dual).dims == dims[::-1]


@PROPERTY
@given(st.data())
def test_sign_pattern_counts_equal_per_weight_masks(data):
    bott = data.draw(towers(max_length=6))
    n = bott.length
    divisor = ToricDivisor(a=data.draw(coeffs(n, 3)), b=data.draw(coeffs(n, 2)))
    box = weight_box(bott, divisor)
    grown = box.enlarged()
    assume(grown.num_points <= BOX_POINTS)
    for b in (box, grown):
        expected = Counter(_sign_masks(bott, divisor, m) for m in b.points())
        assert _sign_pattern_counts(bott, divisor, b.lo, b.hi) == expected


def flattened_line_masks(bott, divisor, lo, hi):
    line = range(lo[-1], hi[-1] + 1)
    return [
        (prefix + (m_n,), *masks_m)
        for prefix, masks in _line_masks(bott, divisor, lo, hi)
        for m_n, masks_m in zip(line, masks)
    ]


@st.composite
def boxes(draw, n):
    """lo and hi of a box of n ranges, each of width 1 to 4."""
    lo = draw(coeffs(n, 4))
    widths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return tuple(lo), tuple(l + w - 1 for l, w in zip(lo, widths))


@PROPERTY
@given(st.data())
def test_line_masks_equal_per_weight_masks(data):
    bott = data.draw(towers(max_length=6))
    n = bott.length
    divisor = ToricDivisor(a=data.draw(coeffs(n, 3)), b=data.draw(coeffs(n, 2)))
    box = weight_box(bott, divisor)
    grown = box.enlarged()
    assume(grown.num_points <= BOX_POINTS)
    for lo, hi in ((box.lo, box.hi), (grown.lo, grown.hi), data.draw(boxes(n))):
        expected = [(m, *_sign_masks(bott, divisor, m)) for m in WeightBox(lo, hi).points()]
        assert flattened_line_masks(bott, divisor, lo, hi) == expected


@pytest.mark.parametrize("name", ["B3", "A1^(1)", "indefinite"])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_line_masks_on_thin_boxes_equal_per_weight_masks(name, n):
    # a one-point box, and boxes whose last range has width 1, with b != 0
    gcm = MATRICES[name]
    bott = build_bott_data(gcm, [1 + k % gcm.n for k in range(n)])
    divisor = ToricDivisor(a=[(-1) ** k * (k + 1) for k in range(n)], b=[2 - k for k in range(n)])
    lo = tuple(range(-n, 0))
    for hi in (lo, tuple(l + 2 for l in lo[:-1]) + lo[-1:]):
        expected = [(m, *_sign_masks(bott, divisor, m)) for m in WeightBox(lo, hi).points()]
        assert flattened_line_masks(bott, divisor, lo, hi) == expected


@PROPERTY
@given(st.data())
def test_table_from_the_sweep_equals_the_scan(data):
    bott = data.draw(towers(max_length=6))
    n = bott.length
    divisor = ToricDivisor(a=data.draw(coeffs(n, 3)), b=data.draw(coeffs(n, 2)))
    assume(any(divisor.b))
    box = weight_box(bott, divisor)
    assume(box.num_points <= BOX_POINTS)
    assert cohomology_table(bott, divisor).dims == _scan_table(bott, divisor, box, False).dims


@PROPERTY
@given(st.data())
def test_corner_weights_lie_in_the_weight_box(data):
    bott = data.draw(towers(max_length=6))
    n = bott.length
    a = data.draw(coeffs(n, 4))
    box = weight_box(bott, ToricDivisor.upper(a))
    for eps in all_sign_vectors(n):
        assert box.contains(x_vector(bott, a, eps))


def reference_phi_values(bott, divisor, w):
    """phi_m on e_1^+, ..., e_N^+ and on e_1^-, ..., e_N^-, from the beta
    formula rather than the stored rays (the former bott._phi_values)."""
    a, b, beta = divisor.a, divisor.b, bott.beta
    n = bott.length
    up = [w[i] + a[i] for i in range(n)]
    down = [
        b[i] - w[i] - sum(beta[i][j] * w[j] for j in range(i + 1, n)) for i in range(n)
    ]
    return up, down


def reference_classify_weight(bott, divisor, w):
    """The closed form read off the phi values themselves (the former
    toric._classify_weight): None for all zero, else the degree."""
    degree = 0
    for up, down in zip(*reference_phi_values(bott, divisor, w)):
        if (up < 0) != (down < 0):
            return None
        if up < 0:
            degree += 1
    return degree


@PROPERTY
@given(st.data())
def test_sign_masks_and_closed_degree_equal_phi_references(data):
    bott = data.draw(towers(max_length=6))
    n = bott.length
    divisor = ToricDivisor(a=data.draw(coeffs(n, 3)), b=data.draw(coeffs(n, 3)))
    assume(any(divisor.b))
    grown = weight_box(bott, divisor).enlarged()
    weights = data.draw(st.lists(
        st.tuples(*(st.integers(l, h) for l, h in zip(grown.lo, grown.hi))),
        min_size=1, max_size=30,
    ))
    for m in weights:
        up, down = reference_phi_values(bott, divisor, m)
        bad_plus, bad_minus = _sign_masks(bott, divisor, m)
        for i in range(n):
            assert (bad_plus >> i & 1) == (up[i] < 0)
            assert (bad_minus >> i & 1) == (down[i] < 0)
            assert phi(bott, divisor, m, (i + 1, 1)) == up[i]
            assert phi(bott, divisor, m, (i + 1, -1)) == down[i]
        assert _closed_degree(bad_plus, bad_minus) == reference_classify_weight(bott, divisor, m)


@st.composite
def scan_ranges(draw, n, max_volume=200):
    """One [lo, hi] per index: width-1 ranges, negative lo, and at most one
    range near +-2^70."""
    big = draw(st.integers(-1, n - 1))
    ranges, volume = [], 1
    for k in range(n):
        width = draw(st.integers(1, max(1, min(3, max_volume // volume))))
        volume *= width
        if k == big:
            lo = draw(st.sampled_from([2**70, -(2**70)])) + draw(st.integers(-2, 2))
        else:
            lo = draw(st.integers(-4, 3))
        ranges.append([lo, lo + width - 1])
    return ranges


@PROPERTY
@given(st.data())
def test_scan_records_equal_single_point_reports(data):
    bott = data.draw(towers(max_length=7))
    ranges = data.draw(scan_ranges(bott.length))
    spec = parse_problem({
        "cartan": {"matrix": [list(row) for row in bott.gcm.entries]},
        "word": list(bott.word.letters),
        "scan": ranges,
    })
    records = run_scan(spec)["records"]
    grid = product(*(range(lo, hi + 1) for lo, hi in ranges))
    assert [rec["a"] for rec in records] == [list(a) for a in grid]
    for rec in records:
        report = vanishing_report(bott, rec["a"], with_toric=False)
        assert rec == {
            "a": rec["a"],
            "vanished": list(report.vanished),
            "single_degree": report.single_degree,
            "everything_vanishes": report.everything_vanishes,
        }


def _stringify_big_ints(value):
    """Reference for report_json: turn integers beyond 64-bit range into
    decimal strings, recursively, before json.dumps."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > INT64_MAX else value
    if isinstance(value, dict):
        return {k: _stringify_big_ints(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_big_ints(v) for v in value]
    return value


EDGE_INTS = [INT64_MAX, -INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, 2**70, -(2**70)]
EDGE_TEXT = ['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f", "é ü 漢字 😀", ""]
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(),
    st.text(),
    st.sampled_from(EDGE_TEXT),
)
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(EDGE_TEXT)), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=30,
)


class _Shade(IntEnum):
    DARK = 1


class _LyingInt(int):
    def __repr__(self):
        return "7"


# A list of equal-length, non-empty lists of type-int entries within
# +-(2**63 - 1) (a Cartan matrix, beta, rays_minus) takes report_json's %d
# row template; any other list of lists, a ragged or an empty row, a bool,
# a float, an int subclass or an int past that range, is written item by
# item.
TABLE_ODDS = [True, False, 1.0, None, _LyingInt(3), _Shade.DARK, [1], ()]


@st.composite
def int_tables(draw):
    """A rectangular int table, sometimes spoiled by one row or entry."""
    width = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(), st.sampled_from(EDGE_INTS))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                         min_size=1, max_size=5))
    spoil = draw(st.sampled_from(["none"] * 3 + ["ragged", "empty", "odd", "tuple"]))
    row = draw(st.sampled_from(rows))
    if spoil == "ragged":
        row.append(draw(entries))
    elif spoil == "empty":
        rows.insert(draw(st.integers(0, len(rows))), [])
    elif spoil == "odd":
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(TABLE_ODDS))
    elif spoil == "tuple":
        rows[rows.index(row)] = tuple(row)
    return {"beta": rows, "dimension": len(rows)} if draw(st.booleans()) else rows


@PROPERTY
@given(st.one_of(json_documents, int_tables()))
@example({})
@example([])
@example(())
@example({"empty": [{}, [], ()], "flags": [True, False, None, 0, 1]})
@example(EDGE_INTS)
@example({text: text for text in EDGE_TEXT})
@example([[1, 2], [3]])
@example([[1], [2, 3], [4, 5, 6]])
@example([[1, 2], []])
@example([[], [1]])
@example([[5]])
@example([[(i * 61 + j) % 17 - 8 for j in range(60)] for i in range(60)])
@example([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
@example([[INT64_MAX, -INT64_MAX], [0, 1]])
@example([[0, 1], [INT64_MAX + 1, 0]])
@example([[0, 1], [0, -INT64_MAX - 1]])
@example([[2**70]])
@example([[1, 1], [True, 1]])
@example([[1, 1], [1, 1.0]])
@example([[1, 1], [_LyingInt(3), 1]])
def test_report_json_equals_json_dumps_of_stringified_ints(doc):
    expected = json.dumps(_stringify_big_ints(doc), sort_keys=True, indent=2)
    assert report_json(doc) == expected



# Scan-shaped records reach report_json's per-conclusion writer only when a
# list's first item is a dict with exactly the scan-record keys, which
# json_documents almost never draws. The records below share a few
# conclusions up to values that compare equal but render differently (True,
# 1 and 1.0; False, 0, 0.0 and -0.0), which must not share a memo entry, and
# their "a" lists hold ints past +-(2**63 - 1), which must be written as
# strings. Any such value in any record sends the whole list item by item.
RECORD_INTS = [0, 1, -1, 10**18 - 1, -(10**18 - 1), 10**18, 2**63 - 1, 2**63,
               -(2**63), 10**19 - 1, 2**70]
EQUAL_GROUPS = ([True, 1, 1.0], [False, 0, 0.0, -0.0])
RECORD_ODDS = [True, 1, 1.0, False, 0, 0.0, -0.0, None, "", "1", [], [0], [True], [1.0]]
plain_a = st.lists(st.integers(-9, 9), min_size=1, max_size=4)
record_a = st.one_of(
    plain_a,
    st.lists(st.one_of(st.integers(), st.sampled_from(RECORD_INTS)), min_size=1, max_size=5),
    st.lists(st.one_of(st.sampled_from(RECORD_INTS), st.sampled_from(RECORD_ODDS)), max_size=3),
    st.lists(st.integers(-3, 3), max_size=3).map(tuple),
    st.sampled_from(RECORD_ODDS),
)
record_conclusion = st.one_of(
    st.sampled_from(RECORD_ODDS),
    st.lists(st.sampled_from(RECORD_ODDS + [2, 2**63, -(2**70), "x"]), max_size=3),
)


def equal_twins(value):
    """Values equal to value, with lists taken item by item."""
    if type(value) is list:
        return st.tuples(*map(equal_twins, value)).map(list)
    if type(value) in (bool, int, float):
        for group in EQUAL_GROUPS:
            if value in group:
                return st.sampled_from(group)
    return st.just(value)


@st.composite
def scan_documents(draw):
    """A list that starts with a scan record, bare or as a report's "records"."""
    conclusions = draw(st.lists(st.tuples(record_conclusion, record_conclusion, record_conclusion),
                                min_size=1, max_size=3))

    def record(a):
        conclusion = draw(st.sampled_from(conclusions))
        e, s, v = (draw(equal_twins(value)) for value in conclusion)
        return {"a": a, "everything_vanishes": e, "single_degree": s, "vanished": v}

    records = [record(draw(plain_a))]
    for kind in draw(st.lists(st.sampled_from(["record"] * 4 + ["extra", "missing", "other"]),
                              max_size=12)):
        if kind == "other":
            records.append(draw(json_scalars))
            continue
        records.append(record(draw(record_a)))
        if kind == "extra":
            records[-1][draw(st.sampled_from(["", "b", "a0", "zz"]))] = draw(record_conclusion)
        elif kind == "missing":
            del records[-1][draw(st.sampled_from(sorted(records[-1])))]
    return {"schema": 1, "records": records} if draw(st.booleans()) else records


def _record(a, e, s, v):
    return {"a": a, "everything_vanishes": e, "single_degree": s, "vanished": v}


@PROPERTY
@given(scan_documents())
@example([_record([1], True, None, [1]), _record([2], 1, None, [True]),
          _record([3], 1.0, None, [1.0]), _record([4], False, -0.0, [0])])
@example([_record([0], False, 0.0, []), _record([10**18 - 1, 2**63 - 1], False, -0.0, [])])
@example({"records": [_record([-(10**18)], False, None, [0]), _record([2**63], False, None, [0]),
                      _record([-(2**63), 10**19 - 1], False, None, [0])]})
@example([_record([1], False, None, [0]), {"a": [1], "vanished": [0]},
          dict(_record([2], False, None, [0]), extra=1), _record((3,), False, None, [0]),
          _record([], False, None, [0]), 7])
# one example per clause of the whole-list check: a later record breaks it
@example([_record([1], True, None, [0]), _record([2], 1, None, [0])])
@example([_record([1], False, None, [0]), _record([2], 0.0, None, [0])])
@example([_record([1], False, 1, [0]), _record([2], False, True, [0])])
@example([_record([1], False, None, [1]), _record([2], False, None, [True])])
@example([_record([1], False, None, [1]), _record([2], False, None, [1.0])])
@example([_record([1], False, None, [1]), _record([2], False, None, {1: 0})])
@example([_record([1], False, None, [0]), _record([2**63], False, None, [0])])
@example([_record([1], False, None, [0]), _record([-(2**63)], False, None, [0])])
@example([_record([1], False, None, [0]), _record([True], False, None, [0])])
@example([_record([1], False, None, [0]), _record([_LyingInt(5)], False, None, [0])])
@example([_record([1], False, None, [0]), _record([], False, None, [0])])
@example([_record([1], False, None, [0]), _record((2,), False, None, [0])])
@example([_record([1], False, None, [0]), _record({2: 0}, False, None, [0])])
@example([_record([1], False, None, [0]),
          {"a": [2], "everything_vanishes": False, "single_degree": None, "zz": [0]}])
@example([_record([1], False, None, [0]), dict(_record([2], False, None, [0]), zz=1)])
def test_report_json_of_scan_shaped_records_equals_json_dumps(doc):
    expected = json.dumps(_stringify_big_ints(doc), sort_keys=True, indent=2)
    assert report_json(doc) == expected


# Flat rows (a list of dicts with one key set and int, bool or None values)
# take report_json's one-template writer. The values below sit on both sides
# of its limits: ints of 18 and 19 characters, bools next to the ints and
# floats they equal, and values that must not be written from a repr: -0.0,
# strings that look like JSON words, nested lists, an IntEnum and an int
# subclass whose repr lies. Keys hold % (the template is %-formatted) or
# non-ASCII characters (written escaped).
ROW_KEYS = ["i", "j", "min", "max", "%", "%s", "a%%b", "\u00e9", "\u6f22\u5b57", ""]
ROW_PLAIN = [0, 1, -1, 10**18 - 1, -(10**18 - 1), True, False, None]
ROW_ODDS = [INT64_MAX, -INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, 10**18, -(10**18), 1.0, -0.0,
            "", "true", "%s", [1, 2], [True, None], _Shade.DARK, _LyingInt(3)]


@st.composite
def flat_row_documents(draw):
    """Two or more dicts with a shared key set, sometimes spoiled by an
    extra or a missing key, a non-dict item or an odd value."""
    keys = draw(st.lists(st.sampled_from(ROW_KEYS), min_size=1, max_size=4, unique=True))
    values = st.one_of(st.sampled_from(ROW_PLAIN), st.integers(-(10**6), 10**6))
    if draw(st.booleans()):
        values = st.one_of(values, st.sampled_from(ROW_ODDS))
    rows = [{k: draw(values) for k in keys} for _ in range(draw(st.integers(2, 6)))]
    spoil = draw(st.sampled_from(["none"] * 4 + ["extra", "missing", "item"]))
    row = draw(st.sampled_from(rows))
    if spoil == "extra":
        row[draw(st.sampled_from(ROW_KEYS + ["zz"]))] = draw(values)
    elif spoil == "missing":
        del row[draw(st.sampled_from(keys))]
    elif spoil == "item":
        rows.insert(draw(st.integers(1, len(rows))), draw(json_scalars))
    return {"pairs": rows, "dimension": len(rows)} if draw(st.booleans()) else rows


@PROPERTY
@given(flat_row_documents())
@example([{"i": 1, "max": True}, {"i": 1.0, "max": 1}])
@example([{"%": INT64_MAX, "%s": 10**18}, {"%": -INT64_MAX - 1, "%s": 10**18 - 1}])
@example([{"k": _LyingInt(3)}, {"k": _Shade.DARK}, {"k": -0.0}])
@example([{"\u00e9": None, "a%%b": False}, {"\u00e9": "None", "a%%b": 0}])
@example([{"i": 1, "j": 2}, {"i": 1, "j": 2, "min": 0}])
@example([{"i": 1, "j": 2}, {"i": 1}])
@example([{"k": 1}, {"k": None}, {"k": False}])
# int-only rows take the %d template, up to +-(2**63 - 1)
@example([{"i": INT64_MAX, "j": -INT64_MAX}, {"i": 0, "j": 10**18}])
@example([{"i": 0, "j": 1}, {"i": INT64_MAX + 1, "j": 1}])
@example([{"i": 0, "j": 1}, {"i": 1, "j": -INT64_MAX - 1}])
@example([{"i": 0, "j": 2**70}, {"i": 0, "j": 1}])
@example([{"i": 1, "j": 2}, {"i": True, "j": 2}])
def test_report_json_of_flat_rows_equals_json_dumps(doc):
    expected = json.dumps(_stringify_big_ints(doc), sort_keys=True, indent=2)
    assert report_json(doc) == expected
