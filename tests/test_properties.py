"""Property tests: the reachable-root sweeps against enumeration, scan
records against single-point reports, the sign-pattern sweep against
per-weight masks, the per-weight masks and the closed form against phi
from the beta formula, and Serre duality of the toric table, over
finite, affine and indefinite matrices; and report_json against
json.dumps.

Derandomized, so the examples are the same on every run.
"""

import json
from collections import Counter
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from bottsamelson import (
    ToricDivisor,
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
)
from bottsamelson.analysis import _alpha_summary
from bottsamelson.bott import _sign_masks, _sign_pattern_counts
from bottsamelson.toric import _closed_degree

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


@PROPERTY
@given(json_documents)
@example({})
@example([])
@example(())
@example({"empty": [{}, [], ()], "flags": [True, False, None, 0, 1]})
@example(EDGE_INTS)
@example({text: text for text in EDGE_TEXT})
def test_report_json_equals_json_dumps_of_stringified_ints(doc):
    expected = json.dumps(_stringify_big_ints(doc), sort_keys=True, indent=2)
    assert report_json(doc) == expected
