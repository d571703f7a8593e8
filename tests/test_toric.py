import random

import pytest

import bottsamelson.toric as toric
from bottsamelson import (
    BoxTooLarge,
    CohomologyTable,
    InconsistentData,
    IndexOutOfRange,
    ToricDivisor,
    WeightBox,
    Word,
    all_sign_vectors,
    build_bott_data,
    cartan_of_type,
    classify_weight,
    cohomology_table,
    demazure_table,
    demazure_weight,
    weight_box,
    x_vector,
)
from conftest import random_coeffs, random_gcm, random_instance, random_word

P1 = build_bott_data(cartan_of_type("A", 1), Word((1,)))
SL3 = build_bott_data(cartan_of_type("A", 2), Word((1, 2)))
DOUBLED = build_bott_data(cartan_of_type("A", 2), Word((1, 1)))


def test_divisor_validation():
    with pytest.raises(ValueError) as info:
        ToricDivisor(a=(1, 2), b=(0,))
    assert type(info.value) is IndexOutOfRange
    d = ToricDivisor.upper((1, 2))
    assert d.b == (0, 0)
    k_minus_d = d.serre_dual()
    assert k_minus_d.a == (-2, -3)
    assert k_minus_d.b == (-1, -1)


def test_classify_weight_on_the_line():
    d = ToricDivisor.upper((3,))
    for m in (-3, -2, -1, 0):
        cls = classify_weight(P1, d, (m,))
        assert not cls.is_zero and cls.degree == 0
        assert cls.dims() == {0: 1}
    for m in (-4, 1):
        assert classify_weight(P1, d, (m,)).is_zero


def test_line_tables():
    assert cohomology_table(P1, ToricDivisor.upper((3,))).dims == (4, 0)
    assert cohomology_table(P1, ToricDivisor.upper((-2,))).dims == (0, 1)
    assert cohomology_table(P1, ToricDivisor.upper((-1,))).dims == (0, 0)
    assert cohomology_table(P1, ToricDivisor.upper((-3,))).dims == (0, 2)


def test_trivial_divisor_gives_structure_sheaf_table():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 4)
        gcm = random_gcm(rng, n)
        bott = build_bott_data(gcm, random_word(rng, n, rng.randint(1, 5)))
        zero = ToricDivisor.upper((0,) * bott.length)
        table = cohomology_table(bott, zero)
        assert table.dims == (1,) + (0,) * bott.length
        assert table.euler == 1


def test_doubled_letter_tower_table():
    table = cohomology_table(DOUBLED, ToricDivisor.upper((1, 0)))
    assert table.dims == (2, 0, 0)


def test_box_bounds_are_tight_enough_and_corners_lie_inside():
    rng = random.Random(32)
    for _ in range(30):
        bott, a = random_instance(rng, max_rank=3, max_length=4,
                                  coeff_bound=3, box_limit=3000)
        divisor = ToricDivisor.upper(a)
        box = weight_box(bott, divisor)
        # every corner weight sits inside the box (b = 0 case)
        for eps in all_sign_vectors(bott.length):
            assert box.contains(x_vector(bott, a, eps))
        # nothing outside the box carries cohomology
        for m in box.shell_points():
            assert classify_weight(bott, divisor, m).is_zero
            assert demazure_weight(bott, divisor, m) == {}


def test_closed_form_equals_simplicial_per_weight():
    rng = random.Random(33)
    for _ in range(20):
        bott, a = random_instance(rng, max_rank=3, max_length=4,
                                  coeff_bound=3, box_limit=2000)
        divisor = ToricDivisor.upper(a)
        for m in weight_box(bott, divisor).points():
            assert classify_weight(bott, divisor, m).dims() == \
                demazure_weight(bott, divisor, m)


def test_tables_agree_with_nonzero_b():
    rng = random.Random(34)
    for _ in range(10):
        bott, a = random_instance(rng, max_rank=3, max_length=3, coeff_bound=3)
        b = random_coeffs(rng, bott.length, 2)
        divisor = ToricDivisor(a=a, b=b)
        if weight_box(bott, divisor).num_points > 2000:
            continue
        assert cohomology_table(bott, divisor).dims == \
            demazure_table(bott, divisor).dims


def test_serre_duality_small():
    rng = random.Random(35)
    checked = 0
    while checked < 15:
        bott, a = random_instance(rng, max_rank=3, max_length=4,
                                  coeff_bound=3, box_limit=2000)
        divisor = ToricDivisor.upper(a)
        dual = divisor.serre_dual()
        if weight_box(bott, dual).num_points > 4000:
            continue
        n = bott.length
        dims = cohomology_table(bott, divisor).dims
        dual_dims = cohomology_table(bott, dual).dims
        assert dims == tuple(reversed(dual_dims))
        checked += 1


def test_box_cap_is_enforced():
    with pytest.raises(BoxTooLarge):
        cohomology_table(P1, ToricDivisor.upper((100,)), cap=50)
    # cap is about enumerated points, so a generous cap passes
    assert cohomology_table(P1, ToricDivisor.upper((100,)), cap=200).dims == (101, 0)


def test_witness_collection_and_truncation(monkeypatch):
    table = cohomology_table(P1, ToricDivisor.upper((3,)), collect_witnesses=True)
    assert table.witnesses == (((-3,), 0), ((-2,), 0), ((-1,), 0), ((0,), 0))
    assert not table.witnesses_truncated
    monkeypatch.setattr(toric, "WITNESS_CAP", 2)
    capped = cohomology_table(P1, ToricDivisor.upper((3,)), collect_witnesses=True)
    assert capped.witnesses == (((-3,), 0), ((-2,), 0))
    assert capped.witnesses_truncated


def test_weight_box_helpers():
    box = WeightBox(lo=(0, -1), hi=(1, 0))
    assert box.num_points == 4
    assert list(box.points()) == [(0, -1), (0, 0), (1, -1), (1, 0)]
    assert box.contains((1, 0)) and not box.contains((2, 0))
    grown = box.enlarged()
    assert grown.lo == (-1, -2) and grown.hi == (2, 1)
    shell = set(box.shell_points())
    assert len(shell) == grown.num_points - box.num_points
    assert all(not box.contains(m) for m in shell)
    with pytest.raises(ValueError) as info:
        WeightBox(lo=(0,), hi=(-1,))
    assert type(info.value) is InconsistentData
    with pytest.raises(ValueError) as info:
        WeightBox(lo=(0,), hi=(0, 0))
    assert type(info.value) is IndexOutOfRange


def test_table_euler_validation():
    with pytest.raises(ValueError) as info:
        CohomologyTable(dims=(1, 0), euler=7)
    assert type(info.value) is InconsistentData


def test_multiplicities_above_one_show_up():
    # degree-1 dimension 2 on the line, and a rank-2 example with h^1 = 2
    assert cohomology_table(P1, ToricDivisor.upper((-3,))).dims[1] == 2
    table = cohomology_table(SL3, ToricDivisor.upper((-4, 1)))
    assert sum(table.dims) > 0 and any(h >= 2 for h in table.dims)
