import random
import time
from itertools import product

import pytest

from bottsamelson import (
    ConditionProfile,
    InconsistentData,
    IndexOutOfRange,
    NotInPicardBasis,
    ToricDivisor,
    VanishingCertificate,
    Word,
    admissible_etas,
    all_sign_vectors,
    alpha_path,
    best_certificates,
    big_c,
    build_bott_data,
    cartan_of_type,
    check_toric_vanishing,
    condition_profile,
    is_admissible,
    parse_problem,
    run_scan,
    validate_gcm,
    vanishing_report,
)
from conftest import random_coeffs, random_instance, random_word

SL3 = build_bott_data(cartan_of_type("A", 2), Word((1, 2)))


def test_profile_of_the_mixed_sign_divisor(rank3_tower):
    profile = condition_profile(rank3_tower, (-1, -1, 1, 0))
    assert profile.c_min == (-2, -1, 1, 0)
    assert profile.c_max == (0, -1, 1, 0)
    assert profile.plus_ok == (False, True, True, True)
    assert profile.minus_ok == (False, True, False, False)


def test_profile_of_the_ample_like_divisor(rank3_tower):
    profile = condition_profile(rank3_tower, (2, 2, 2, 2))
    assert profile.c_min == (-2, 0, 0, 2)
    assert profile.c_max == (2, 2, 2, 2)
    assert profile.plus_ok == (False, True, True, True)
    assert profile.minus_ok == (False, False, False, False)


def test_profile_with_full_plus_coverage(rank3_tower):
    profile = condition_profile(rank3_tower, (3, 0, 0, 0))
    assert profile.plus_ok == (True, True, True, True)
    assert profile.minus_ok == (False, False, False, False)
    assert profile.c_min[0] == profile.c_max[0] == 3


def test_profile_matches_independent_enumeration():
    rng = random.Random(51)
    for _ in range(15):
        bott, a = random_instance(rng, max_rank=3, max_length=4, coeff_bound=4)
        n = bott.length
        profile = condition_profile(bott, a)
        for i in range(1, n + 1):
            values = set()
            for suffix in product((1, -1), repeat=n - i):
                eps = (1,) * i + suffix
                c = a[i - 1] + sum(
                    alpha_path(bott, i, j, eps) * a[j - 1]
                    for j in range(i + 1, n + 1)
                    if eps[j - 1] == 1
                )
                values.add(c)
            assert profile.c_min[i - 1] == min(values)
            assert profile.c_max[i - 1] == max(values)


@pytest.mark.parametrize("gcm", [
    cartan_of_type("A", 3),
    validate_gcm([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]),
], ids=["A3", "indefinite_rank3"])
def test_profile_at_length_20_stays_fast_and_exact(gcm):
    # 2^19 suffixes at index 1: enumerating them takes minutes
    rng = random.Random(20)
    n = 20
    bott = build_bott_data(gcm, random_word(rng, gcm.n, n))
    a = random_coeffs(rng, n, 3)
    start = time.perf_counter()
    profile = condition_profile(bott, a)
    assert time.perf_counter() - start < 5.0
    for i in range(n - 7, n + 1):
        values = [big_c(bott, a, i, (1,) * i + s) for s in all_sign_vectors(n - i)]
        assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (min(values), max(values))


def test_sweep_depth_is_not_bounded_by_the_recursion_limit():
    # N = 1200 is past Python's default recursion limit of 1000
    n = 1200
    bott = build_bott_data(cartan_of_type("A", 1), Word((1,) * n))
    profile = condition_profile(bott, (0,) * n)
    assert profile.c_min == profile.c_max == (0,) * n
    (record,) = run_scan(parse_problem({
        "cartan": {"type": "A", "rank": 1},
        "word": [1] * n,
        "scan": [[0, 0]] * n,
    }))["records"]
    assert record == {
        "a": [0] * n,
        "vanished": list(range(1, n + 1)),
        "single_degree": 0,
        "everything_vanishes": False,
    }


def test_certificate_degree_arithmetic():
    cert = VanishingCertificate(eta=(-1, 0, 1))
    assert cert.minus_count == 1 and cert.plus_count == 1
    assert cert.vanished_degrees() == (0, 3)
    assert cert.eta_string() == "-0+"
    assert VanishingCertificate(eta=(0, 0)).vanished_degrees() == ()
    assert VanishingCertificate(eta=(-1, -1)).vanished_degrees() == (0, 1)
    assert VanishingCertificate(eta=(1, 1)).vanished_degrees() == (1, 2)


def test_best_certificates_take_every_allowed_sign(rank3_tower):
    profile = condition_profile(rank3_tower, (-1, -1, 1, 0))
    cert_minus, cert_plus = best_certificates(profile)
    assert cert_minus.eta == (0, -1, 0, 0)
    assert cert_plus.eta == (0, 1, 1, 1)
    assert cert_minus.eta_string() == "0-00"
    assert cert_plus.eta_string() == "0+++"


def test_admissibility(rank3_tower):
    profile = condition_profile(rank3_tower, (-1, -1, 1, 0))
    etas = list(admissible_etas(profile))
    assert len(etas) == 12  # 1 * 3 * 2 * 2 sign options
    assert len(set(etas)) == 12
    for eta in etas:
        assert is_admissible(profile, eta)
    assert not is_admissible(profile, (1, 0, 0, 0))
    assert not is_admissible(profile, (0, 0, 0, -1))
    assert not is_admissible(profile, (0, 0, 0))
    assert not is_admissible(profile, (0, 2, 0, 0))


def test_report_for_the_mixed_sign_divisor_full_contents(rank3_tower):
    report = vanishing_report(rank3_tower, (-1, -1, 1, 0))
    assert set(report.vanished) >= {0, 3, 4}
    assert report.vanished == (0, 2, 3, 4)
    assert report.possible_window == (1,)
    # index 1 carries no flag, so no single-degree conclusion is claimed
    assert report.single_degree is None
    assert not report.everything_vanishes
    assert report.toric is not None
    for i in report.vanished:
        assert report.toric.dims[i] == 0


def test_report_with_a_single_surviving_degree(rank3_tower):
    report = vanishing_report(rank3_tower, (3, 0, 0, 0))
    assert report.vanished == (1, 2, 3, 4)
    assert report.possible_window == (0,)
    assert report.single_degree == 0
    assert report.toric.dims[0] > 0


def test_report_where_everything_vanishes():
    report = vanishing_report(SL3, (-2, -1))
    assert report.vanished == (0, 1, 2)
    assert report.possible_window == ()
    assert report.everything_vanishes
    assert report.toric.dims == (0, 0, 0)
    assert report.single_degree is None


def test_report_rejects_lower_ray_coefficients(rank3_tower):
    with pytest.raises(NotInPicardBasis):
        vanishing_report(rank3_tower, ToricDivisor(a=(0, 0, 0, 0), b=(1, 0, 0, 0)))


def test_report_accepts_plain_sequences_and_upper_divisors(rank3_tower):
    via_seq = vanishing_report(rank3_tower, (2, 2, 2, 2), with_toric=False)
    via_div = vanishing_report(
        rank3_tower, ToricDivisor.upper((2, 2, 2, 2)), with_toric=False
    )
    assert via_seq.vanished == via_div.vanished == (2, 3, 4)
    assert via_seq.toric is None


def test_vanished_is_never_empty_and_partitions_degrees():
    rng = random.Random(52)
    for _ in range(40):
        bott, a = random_instance(rng, max_rank=4, max_length=5, coeff_bound=4)
        report = vanishing_report(bott, a, with_toric=False)
        n = bott.length
        assert report.vanished
        assert sorted(report.vanished + report.possible_window) == list(range(n + 1))
        assert report.everything_vanishes == (not report.possible_window)
        if report.single_degree is not None:
            assert report.possible_window == (report.single_degree,)


def test_check_toric_vanishing(rank3_tower):
    profile = condition_profile(rank3_tower, (-1, -1, 1, 0))
    for eta in admissible_etas(profile):
        assert check_toric_vanishing(rank3_tower, (-1, -1, 1, 0), eta)
    with pytest.raises(ValueError) as info:
        check_toric_vanishing(rank3_tower, (-1, -1, 1, 0), (1, 0, 0, 0))
    assert type(info.value) is InconsistentData


def test_condition_profile_derives_its_flags():
    profile = ConditionProfile(c_min=(-2, -1, 1, -3), c_max=(0, -1, 1, -1))
    assert profile.plus_ok == (False, True, True, False)
    assert profile.minus_ok == (False, True, False, True)
    swept = condition_profile(SL3, (0, -1))
    assert ConditionProfile(c_min=swept.c_min, c_max=swept.c_max) == swept
    with pytest.raises(ValueError) as info:
        ConditionProfile(c_min=(1,), c_max=(0,))
    assert type(info.value) is InconsistentData
    with pytest.raises(ValueError) as info:
        ConditionProfile(c_min=(1, 0), c_max=(1,))
    assert type(info.value) is IndexOutOfRange


def test_shifting_the_last_coefficient_moves_its_flags():
    # C_N^eps = a_N for every suffix, so the index-N flags follow a_N alone
    for a_last in range(-3, 4):
        profile = condition_profile(SL3, (0, a_last))
        assert profile.plus_ok[-1] == (a_last >= -1)
        assert profile.minus_ok[-1] == (a_last <= -1)
