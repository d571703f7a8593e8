import gc
import random
import weakref
from itertools import product

import pytest

from bottsamelson import (
    IndexOutOfRange,
    NotStrictlyIncreasing,
    ToricDivisor,
    Word,
    all_sign_vectors,
    alpha_path,
    alpha_reflect,
    big_c,
    build_bott_data,
    cartan_of_type,
    cech_complex,
    cech_table,
    cech_weight,
    classify_weight,
    cohomology_table,
    condition_profile,
    demazure_table,
    demazure_weight,
    det,
    maximal_cone_rows,
    phi,
    sigma_m,
    signs,
    weight_box,
    x_vector,
    x_vector_path,
)
from conftest import random_coeffs, random_gcm, random_word


def test_rank3_tower_fan_data(rank3_tower):
    bott = rank3_tower
    assert bott.length == 4
    assert bott.beta == (
        (2, -1, -1, 2),
        (-1, 2, 0, -1),
        (-1, 0, 2, -1),
        (2, -1, -1, 2),
    )
    assert bott.rays_plus == (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    )
    assert bott.rays_minus == (
        (-1, 1, 1, -2), (0, -1, 0, 1), (0, 0, -1, 1), (0, 0, 0, -1),
    )
    assert bott.ray((1, 1)) == (1, 0, 0, 0)
    assert bott.ray((1, -1)) == (-1, 1, 1, -2)


def test_minus_rays_satisfy_defining_relation():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        gcm = random_gcm(rng, n)
        bott = build_bott_data(gcm, random_word(rng, n, rng.randint(1, 5)))
        N = bott.length
        for i in range(N):
            expected = [0] * N
            expected[i] = -1
            for j in range(i + 1, N):
                expected[j] -= bott.beta[i][j]
            assert bott.rays_minus[i] == tuple(expected)


def test_every_maximal_cone_is_unimodular():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(1, 4)
        gcm = random_gcm(rng, n)
        bott = build_bott_data(gcm, random_word(rng, n, rng.randint(1, 4)))
        for eps in all_sign_vectors(bott.length):
            assert det(maximal_cone_rows(bott, eps)) in (1, -1)


def test_word_validation():
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError):
        Word((0, 1))
    with pytest.raises(ValueError):
        Word((1, -2))
    gcm = cartan_of_type("A", 2)
    with pytest.raises(IndexOutOfRange):
        build_bott_data(gcm, (1, 3))


def test_sign_helpers():
    assert signs("+-+") == (1, -1, 1)
    assert signs("") == ()
    with pytest.raises(ValueError) as info:
        signs("+x")
    assert type(info.value) is IndexOutOfRange
    assert all_sign_vectors(0) == ((),)
    assert all_sign_vectors(2) == ((1, 1), (1, -1), (-1, 1), (-1, -1))


def test_alpha_needs_increasing_indices(rank3_tower):
    eps = (1, 1, 1, 1)
    with pytest.raises(NotStrictlyIncreasing):
        alpha_reflect(rank3_tower, 2, 2, eps)
    with pytest.raises(NotStrictlyIncreasing):
        alpha_path(rank3_tower, 3, 1, eps)


def test_alpha_all_plus_is_beta(rank3_tower):
    eps = (1, 1, 1, 1)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert alpha_reflect(rank3_tower, i, j, eps) == rank3_tower.beta[i - 1][j - 1]


def test_alpha_two_routes_agree_small():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        gcm = random_gcm(rng, n)
        bott = build_bott_data(gcm, random_word(rng, n, rng.randint(2, 5)))
        N = bott.length
        for eps in all_sign_vectors(N):
            for i in range(1, N + 1):
                for j in range(i + 1, N + 1):
                    assert alpha_reflect(bott, i, j, eps) == alpha_path(bott, i, j, eps)


def test_alpha_depends_only_on_interior_signs(rank3_tower):
    # alpha_{1,3} may depend on eps_2 only; positions 1, 3, 4 are irrelevant
    for e2 in (1, -1):
        seen = {
            alpha_reflect(rank3_tower, 1, 3, (e1, e2, e3, e4))
            for e1, e3, e4 in product((1, -1), repeat=3)
        }
        assert len(seen) == 1


def test_condition_table_coefficient_forms(rank3_tower):
    rng = random.Random(14)
    for _ in range(20):
        a = random_coeffs(rng, 4, 10)
        a1, a2, a3, a4 = a
        by_index = {
            4: {a4},
            3: {a3, a3 - a4},
            2: {a2, a2 - a4},
            1: {a1, a1 - a2, a1 - a3, a1 - a2 - a3,
                a1 - a2 + a4, a1 - a3 + a4, a1 - a2 - a3 + 2 * a4},
        }
        for i, expected in by_index.items():
            computed = {
                big_c(rank3_tower, a, i, (1,) * i + suffix)
                for suffix in product((1, -1), repeat=4 - i)
            }
            assert computed == expected


def test_big_c_depends_only_on_later_signs(rank3_tower):
    rng = random.Random(15)
    a = random_coeffs(rng, 4, 5)
    for suffix in product((1, -1), repeat=2):
        seen = {
            big_c(rank3_tower, a, 2, (e1, e2) + suffix)
            for e1 in (1, -1)
            for e2 in (1, -1)
        }
        assert len(seen) == 1


def test_x_vector_special_cases(rank3_tower):
    a = (3, -1, 4, 2)
    assert x_vector(rank3_tower, a, (1, 1, 1, 1)) == (-3, 1, -4, -2)
    assert x_vector(rank3_tower, a, (-1, -1, -1, -1)) == (0, 0, 0, 0)


def test_x_vector_two_routes_agree():
    rng = random.Random(16)
    for _ in range(50):
        n = rng.randint(1, 4)
        gcm = random_gcm(rng, n)
        bott = build_bott_data(gcm, random_word(rng, n, rng.randint(1, 5)))
        a = random_coeffs(rng, bott.length, 6)
        for eps in all_sign_vectors(bott.length):
            assert x_vector(bott, a, eps) == x_vector_path(bott, a, eps)


def test_corner_identity():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 4)
        gcm = random_gcm(rng, n)
        bott = build_bott_data(gcm, random_word(rng, n, rng.randint(1, 5)))
        N = bott.length
        a = random_coeffs(rng, N, 6)
        divisor = ToricDivisor.upper(a)
        for eps in all_sign_vectors(N):
            x = x_vector(bott, a, eps)
            for i in range(1, N + 1):
                s = eps[i - 1]
                assert phi(bott, divisor, x, (i, s)) == 0
                assert phi(bott, divisor, x, (i, -s)) == big_c(bott, a, i, eps)


def test_phi_values(rank3_tower):
    divisor = ToricDivisor(a=(1, 2, 3, 4), b=(5, 6, 7, 8))
    m = (1, 1, 1, 1)
    assert phi(rank3_tower, divisor, m, (1, 1)) == 1 + 1
    assert phi(rank3_tower, divisor, m, (4, 1)) == 1 + 4
    # phi_m(e_1^-) = -m_1 - (beta_12 m_2 + beta_13 m_3 + beta_14 m_4) + b_1
    assert phi(rank3_tower, divisor, m, (1, -1)) == -1 - (-1 + -1 + 2) + 5
    assert phi(rank3_tower, divisor, m, (4, -1)) == -1 + 8


def test_phi_rejects_bad_ray(rank3_tower):
    divisor = ToricDivisor.upper((0, 0, 0, 0))
    with pytest.raises(IndexOutOfRange):
        phi(rank3_tower, divisor, (0, 0, 0, 0), (5, 1))
    with pytest.raises(IndexOutOfRange):
        phi(rank3_tower, divisor, (0, 0, 0, 0), (1, 2))


def test_eps_length_is_checked(rank3_tower):
    with pytest.raises(IndexOutOfRange):
        x_vector(rank3_tower, (0, 0, 0, 0), (1, 1))


_D = ToricDivisor.upper((0, 0, 0, 0))
_SHORT = (0, 0, 0)
_W = (0, 0, 0, 0)
_DIVISOR_CALLS = {
    "weight_box": lambda bott, d: weight_box(bott, d),
    "cohomology_table": lambda bott, d: cohomology_table(bott, d),
    "demazure_table": lambda bott, d: demazure_table(bott, d),
    "cech_table": lambda bott, d: cech_table(bott, d),
    "classify_weight": lambda bott, d: classify_weight(bott, d, _W),
    "demazure_weight": lambda bott, d: demazure_weight(bott, d, _W),
    "sigma_m": lambda bott, d: sigma_m(bott, d, _W),
    "cech_weight": lambda bott, d: cech_weight(bott, d, _W),
    "cech_complex": lambda bott, d: cech_complex(bott, d, _W),
    "phi": lambda bott, d: phi(bott, d, _W, (1, 1)),
}
_DIVISORS = {
    "short_divisor": ToricDivisor.upper((0, 0)),
    "long_divisor": ToricDivisor.upper((0, 0, 0, 0, 0, 7)),
}


@pytest.mark.parametrize("call", [
    lambda bott: classify_weight(bott, _D, _SHORT),
    lambda bott: demazure_weight(bott, _D, _SHORT),
    lambda bott: sigma_m(bott, _D, _SHORT),
    lambda bott: cech_weight(bott, _D, _SHORT),
    lambda bott: cech_complex(bott, _D, _SHORT),
    lambda bott: phi(bott, _D, _SHORT, (1, 1)),
    lambda bott: big_c(bott, (0, 0, 0, 0), 1, (1, 1, 1)),
    lambda bott: alpha_reflect(bott, 1, 3, (1, 1, 1)),
    lambda bott: condition_profile(bott, _SHORT),
] + [
    lambda bott, f=f, d=d: f(bott, d)
    for f in _DIVISOR_CALLS.values() for d in _DIVISORS.values()
], ids=["classify_weight", "demazure_weight", "sigma_m", "cech_weight", "cech_complex",
        "phi", "big_c", "alpha_reflect", "condition_profile"] + [
    f"{name}-{kind}" for name in _DIVISOR_CALLS for kind in _DIVISORS
])
def test_public_entry_points_check_lengths(rank3_tower, call):
    # the kernels behind these trust their input, so the check must stay here
    with pytest.raises(IndexOutOfRange):
        call(rank3_tower)


def test_tower_is_freed_after_a_profile():
    bott = build_bott_data(cartan_of_type("A", 3), Word((2, 1, 3, 2, 1)))
    condition_profile(bott, (1, -2, 0, 3, -1))
    ref = weakref.ref(bott)
    del bott
    gc.collect()
    assert ref() is None
