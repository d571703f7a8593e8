"""Property tests: the reachable-root sweeps against enumeration, and Serre
duality of the toric table, over finite, affine and indefinite matrices.

Derandomized, so the examples are the same on every run.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from bottsamelson import (
    ToricDivisor,
    all_sign_vectors,
    alpha_reflect,
    big_c,
    build_bott_data,
    cartan_of_type,
    cohomology_table,
    condition_profile,
    validate_gcm,
    weight_box,
)
from bottsamelson.analysis import _alpha_summary

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
