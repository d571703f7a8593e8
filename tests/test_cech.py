import random
import time
from itertools import combinations

import pytest

from bottsamelson import (
    CechComplex,
    IndexOutOfRange,
    TooLarge,
    ToricDivisor,
    Word,
    all_sign_vectors,
    build_bott_data,
    cartan_of_type,
    cech_complex,
    cech_table,
    cech_weight,
    classify_weight,
    cohomology_table,
    parse_problem,
    run_oracle,
    sparse_rank,
    weight_box,
)
from conftest import random_coeffs, random_instance

P1 = build_bott_data(cartan_of_type("A", 1), Word((1,)))
SL3 = build_bott_data(cartan_of_type("A", 2), Word((1, 2)))


def reference_dims(cc: CechComplex):
    """Cohomology of the alternating Cech complex, enumerated over every
    chart subset with exact coboundary ranks; independent of the complex
    of inactive subsets that CechComplex.dims reads it from."""
    count = len(cc.cover)
    active_by_size = {
        size: {s for s in combinations(range(count), size) if cc.active(s)}
        for size in range(1, count + 1)
    }
    ranks = {}
    for p in range(count - 1):
        sources, targets = active_by_size[p + 1], active_by_size[p + 2]
        cols = {s: {} for s in sources}
        for t in targets:
            for k in range(len(t)):
                f = t[:k] + t[k + 1:]
                if f in sources:
                    cols[f][t] = 1 if k % 2 == 0 else -1
        ranks[p] = sparse_rank(cols)
    dims = {}
    for p in range(count):
        h = len(active_by_size[p + 1]) - ranks.get(p, 0) - ranks.get(p - 1, 0)
        if h:
            dims[p] = h
    return dims


def test_line_tables_via_cech():
    assert cech_table(P1, ToricDivisor.upper((3,))).dims == (4, 0)
    assert cech_table(P1, ToricDivisor.upper((-2,))).dims == (0, 1)
    assert cech_table(P1, ToricDivisor.upper((0,))).dims == (1, 0)


def test_cech_weight_on_the_line():
    d = ToricDivisor.upper((3,))
    assert cech_weight(P1, d, (-2,)) == {0: 1}
    assert cech_weight(P1, d, (1,)) == {}
    assert cech_weight(P1, ToricDivisor.upper((-2,)), (1,)) == {1: 1}


def test_common_rays_of_chart_subsets():
    d = ToricDivisor.upper((0, 0))
    cc = cech_complex(SL3, d, (0, 0))
    cover = cc.cover
    assert cover == all_sign_vectors(2)
    # a single chart keeps all of its rays
    one = cover.index((1, -1))
    assert cc.common_rays((one,)) == ((1, 1), (2, -1))
    # two charts differing only at index 2 share the index-1 ray
    other = cover.index((1, 1))
    assert cc.common_rays((one, other)) == ((1, 1),)
    # opposite charts share nothing, so every weight is active there
    opposite = cover.index((-1, 1))
    assert cc.common_rays((one, opposite)) == ()
    assert cc.active((one, opposite))


def test_activity_is_monotone_under_enlarging_subsets():
    rng = random.Random(41)
    for _ in range(20):
        bott, a = random_instance(rng, max_rank=3, max_length=3, coeff_bound=3)
        divisor = ToricDivisor.upper(a)
        m = random_coeffs(rng, bott.length, 4)
        cc = cech_complex(bott, divisor, m)
        charts = range(len(cc.cover))
        for size in (1, 2):
            for s in combinations(charts, size):
                if not cc.active(s):
                    continue
                extras = [t for t in charts if t not in s]
                for extra in extras:
                    assert cc.active(tuple(sorted(s + (extra,))))


def test_cover_order_does_not_change_dimensions(rank3_tower):
    rng = random.Random(42)
    for _ in range(10):
        bott, a = random_instance(rng, max_rank=2, max_length=3, coeff_bound=3)
        divisor = ToricDivisor.upper(a)
        m = random_coeffs(rng, bott.length, 3)
        default = cech_weight(bott, divisor, m)
        cover = list(all_sign_vectors(bott.length))
        rng.shuffle(cover)
        assert cech_weight(bott, divisor, m, cover=tuple(cover)) == default
    # one N = 4 input: 16 charts in a shuffled order
    divisor = ToricDivisor.upper((-1, -1, 1, 0))
    cover = list(all_sign_vectors(4))
    rng.shuffle(cover)
    for m in ((1, 1, 0, 0), (0, 0, 0, 0), (2, 1, -1, 0)):
        default = cech_weight(rank3_tower, divisor, m)
        assert cech_weight(rank3_tower, divisor, m, cover=tuple(cover)) == default


def test_dims_match_reference_enumeration_on_every_small_pattern():
    rng = random.Random(45)
    patterns = 0
    for n in (1, 2, 3):
        default = all_sign_vectors(n)
        shuffled = list(default)
        rng.shuffle(shuffled)
        for bad_plus in range(1 << n):
            for bad_minus in range(1 << n):
                for cover in (default, tuple(shuffled)):
                    cc = CechComplex(n=n, cover=cover, bad_plus=bad_plus, bad_minus=bad_minus)
                    assert cc.dims() == reference_dims(cc), (n, bad_plus, bad_minus, cover)
                patterns += 1
    assert patterns == 84


@pytest.mark.parametrize("a", [(2, 2, 2, 2), (-1, -1, 1, 0)])
def test_cech_tables_match_closed_form_at_n4(rank3_tower, a):
    divisor = ToricDivisor.upper(a)
    assert cech_table(rank3_tower, divisor).dims == \
        cohomology_table(rank3_tower, divisor).dims


def test_n4_pattern_takes_well_under_a_second(rank3_tower):
    cc = cech_complex(rank3_tower, ToricDivisor.upper((-1, -1, 1, 0)), (1, 1, 0, 0))
    t0 = time.perf_counter()
    cc.dims()
    assert time.perf_counter() - t0 < 0.5


def test_cover_must_list_every_chart_once():
    divisor = ToricDivisor.upper((-2, 0))
    assert cech_weight(SL3, divisor, (1, 0)) == {1: 1}
    charts = all_sign_vectors(2)
    for cover in (
        ((1, 1),),
        all_sign_vectors(3),
        charts[:-1] + (charts[0],),
        charts + (charts[0],),
    ):
        with pytest.raises(IndexOutOfRange):
            cech_weight(SL3, divisor, (1, 0), cover=cover)


def test_cech_matches_closed_form_per_weight():
    rng = random.Random(43)
    for _ in range(15):
        bott, a = random_instance(rng, max_rank=3, max_length=3,
                                  coeff_bound=3, box_limit=500)
        divisor = ToricDivisor.upper(a)
        for m in weight_box(bott, divisor).points():
            assert cech_weight(bott, divisor, m) == \
                classify_weight(bott, divisor, m).dims()


def test_cech_tables_match_closed_form_with_nonzero_b():
    rng = random.Random(44)
    checked = 0
    while checked < 8:
        bott, a = random_instance(rng, max_rank=3, max_length=3, coeff_bound=2)
        b = random_coeffs(rng, bott.length, 2)
        divisor = ToricDivisor(a=a, b=b)
        if weight_box(bott, divisor).num_points > 400:
            continue
        assert cech_table(bott, divisor).dims == \
            cohomology_table(bott, divisor).dims
        checked += 1


def test_dimension_limit_is_refused():
    big = build_bott_data(cartan_of_type("A", 1), Word((1,) * 5))
    d = ToricDivisor.upper((0,) * 5)
    with pytest.raises(TooLarge):
        cech_weight(big, d, (0,) * 5)
    with pytest.raises(TooLarge):
        cech_complex(big, d, (0,) * 5)
    with pytest.raises(TooLarge):
        cech_table(big, d)
    with pytest.raises(TooLarge):
        run_oracle(parse_problem({"cartan": [[2]], "word": [1] * 5, "divisor": [0] * 5}))


def test_fully_active_weight_has_one_global_section():
    cc = cech_complex(SL3, ToricDivisor.upper((0, 0)), (0, 0))
    assert cc.dims() == {0: 1}
    for size in (1, 2, 3, 4):
        for s in combinations(range(4), size):
            assert cc.active(s)
