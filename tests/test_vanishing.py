import copy
import json
import pickle
import random
import sys
import threading
import time
from itertools import product
from math import prod

import pytest

from bottsamelson import (
    ConditionProfile,
    InconsistentData,
    IndexOutOfRange,
    NotAnInteger,
    NotInPicardBasis,
    ToricDivisor,
    VanishingCertificate,
    Word,
    admissible_etas,
    all_sign_vectors,
    alpha_path,
    alpha_reflect,
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
from bottsamelson import bott as bott_module
from bottsamelson.analysis import _alpha_summary, load_problem, report_json, run_analyze
from bottsamelson.bott import _direction_plan
from bottsamelson.vanishing import _sweep_bounds, _vanishing_report
from conftest import (
    SINGULAR_GCMS,
    bench_workloads,
    hard_deadline,
    random_coeffs,
    random_instance,
    random_word,
)

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
    with hard_deadline(5.0):
        profile = condition_profile(bott, a)
    for i in range(n - 7, n + 1):
        values = [big_c(bott, a, i, (1,) * i + s) for s in all_sign_vectors(n - i)]
        assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (min(values), max(values))


@pytest.mark.parametrize("gcm, n", [
    (cartan_of_type("A", 3), 60),
    (cartan_of_type("D", 4), 26),
    (validate_gcm([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]), 24),
], ids=["A3_N60", "D4_N26", "indefinite_rank3_N24"])
def test_long_profile_costs_its_directions_not_its_reach_set(gcm, n):
    # reach sets grow like (N max|a|)^rank: swept as sets, the A3 word took
    # about 20 s and the indefinite one over 1 s
    rng = random.Random(n)
    bott = build_bott_data(gcm, random_word(rng, gcm.n, n))
    a = random_coeffs(rng, n, 3)
    with hard_deadline(5.0):
        profile = condition_profile(bott, a)
    for i in range(n - 7, n + 1):
        values = [big_c(bott, a, i, (1,) * i + s) for s in all_sign_vectors(n - i)]
        assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (min(values), max(values))


@pytest.mark.parametrize("gcm, bound", [
    (cartan_of_type("A", 3), 12),
    (cartan_of_type("D", 4), 24),
    (SINGULAR_GCMS["A1^(1)"], 2),
], ids=["A3", "D4", "A1^(1)"])
def test_directions_are_bounded_by_the_roots(gcm, bound):
    # in finite type the directions are coroots, so their number does not
    # grow with N; in A1^(1) the functionals do not see the null coroot
    rng = random.Random(200)
    plan = _direction_plan(build_bott_data(gcm, random_word(rng, gcm.n, 200)))
    assert plan.size == sorted(plan.size)
    assert plan.size[-1] <= bound


def test_the_direction_plan_is_built_once_per_tower(monkeypatch):
    # the condition sweep and the alpha summary of one analyze read one
    # plan, and so do library loops over one tower
    builds, build = [], bott_module._direction_plan

    def counted(bott):
        builds.append(bott)
        return build(bott)

    monkeypatch.setattr(bott_module, "_direction_plan", counted)
    doc = {"cartan": {"type": "B", "rank": 3}, "word": [1, 2, 3, 2, 1, 3], "divisor": [1, -2, 0, 3, -1, 2]}
    run_analyze(parse_problem(doc), with_toric=False)
    assert len(builds) == 1
    bott = build_bott_data(cartan_of_type("B", 3), Word((1, 2, 3, 2, 1, 3)))
    for a in product(range(-1, 2), repeat=6):
        condition_profile(bott, a)
    _alpha_summary(bott)
    assert builds[1:] == [bott]


INDEFINITE = validate_gcm([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]])


def _certify_report(text):
    return report_json(run_analyze(load_problem(text), with_toric=False))


def _empty_cache():
    # drop every cached table, and its units with it
    with bott_module._lock:
        bott_module._tables.clear()
        bott_module._held = 0


def _cached(bott):
    # the cache key of the tower's matrix and letters, as bott._table makes it
    keys = tuple(sorted(set(bott.word.letters)))
    rows = bott.gcm.entries
    return (keys, tuple(tuple(rows[l - 1][k - 1] for k in keys) for l in keys))


def test_reports_do_not_depend_on_the_order_towers_meet_the_table():
    # towers over one matrix share a direction table and an alpha memo, in
    # whatever order they come; each report must be the one a fresh table
    # gives
    workloads = bench_workloads()
    texts = [workloads.problem("certify_long", 2, k).text for k in range(60)]
    fresh = []
    for text in texts:
        _empty_cache()
        fresh.append(_certify_report(text))
    _empty_cache()
    assert [_certify_report(text) for text in texts] == fresh
    assert [_certify_report(text) for text in reversed(texts)] == fresh[::-1]


def test_the_table_bounds_are_fixed():
    assert (bott_module._BUDGET, bott_module._MEMO_REACH) == (98304, 32)


def _cache_within_bounds():
    units = 0
    for table in bott_module._tables.values():
        steps = [(reach, out) for memo in table.memo.values() for reach, out in memo.items()]
        assert all(len(reach) <= bott_module._MEMO_REACH for reach, _ in steps)
        # a table weighs 96 units, 9 per direction, and per stored step
        # its reach, the reach it steps to, and 8 for itself
        assert table.units == 96 + 9 * len(table.vectors) + sum(
            len(reach) + len(out[2]) + 8 for reach, out in steps)
        units += table.units
    assert units == bott_module._held <= bott_module._BUDGET


def test_tables_and_memos_stay_within_their_bounds():
    # a table that takes the cache past its budget leaves it whole, memo
    # included, and the next tower over the matrix starts a fresh one
    rng = random.Random(300)
    _empty_cache()
    table, tables, held = None, 0, 0
    for _ in range(300):
        bott = build_bott_data(INDEFINITE, random_word(rng, 3, rng.randint(20, 26)))
        _alpha_summary(bott)
        if bott_module._tables.get(_cached(bott)) is not table:
            table, tables = bott_module._tables.get(_cached(bott)), tables + 1
        held = max(held, bott_module._held)
        _cache_within_bounds()
    assert tables > 1  # the budget was reached, and a fresh table made
    assert held > bott_module._BUDGET // 2
    # one tower past the budget on its own: its table is never cached
    _empty_cache()
    bott = build_bott_data(INDEFINITE, random_word(random.Random(40), 3, 40))
    assert 9 * bott.plan.size[-1] > bott_module._BUDGET
    assert bott_module._tables == {}
    _cache_within_bounds()
    # least recently used tables leave first, whole ...
    gcms = [validate_gcm([[2, -1 - k], [-1, 2]]) for k in range(600)]
    for gcm in gcms:
        _alpha_summary(build_bott_data(gcm, (1, 2, 1, 2)))
        _cache_within_bounds()
    firsts = [-1 - key[1][0][1] for key in bott_module._tables]
    oldest = firsts[0]
    assert oldest > 0 and firsts == list(range(oldest, 600))
    # ... and a table used again becomes the most recently used
    _alpha_summary(build_bott_data(gcms[oldest], (2, 1, 2, 1)))
    _alpha_summary(build_bott_data(validate_gcm([[2, -700], [-1, 2]]), (1, 2, 1, 2)))
    firsts = [-1 - key[1][0][1] for key in bott_module._tables]
    assert firsts[-2:] == [oldest, 699] and oldest + 1 not in firsts
    _cache_within_bounds()


def test_a_matrix_met_late_still_gets_a_memo(monkeypatch):
    # indefinite rank-3 towers over two matrices fill the cache until the
    # budget evicts a table; D4 towers met after them must still store and
    # hit their own alpha steps (with memos kept first come, first served,
    # the full memo left D4 none, and every step missed)
    rng = random.Random(57)
    gcms = [INDEFINITE, validate_gcm([[2, -3, -1], [-2, 2, -1], [-1, -1, 2]])]
    _empty_cache()
    seen = []
    for k in range(3000):
        _alpha_summary(build_bott_data(gcms[k % 2], random_word(rng, 3, rng.randint(11, 14))))
        tables = list(bott_module._tables.values())
        seen += [table for table in tables if table not in seen]
        if any(table not in tables for table in seen):
            break
    misses, step = [], bott_module._Directions.step

    def counted(self, l, reach):
        misses.append(l)
        return step(self, l, reach)

    monkeypatch.setattr(bott_module._Directions, "step", counted)
    d4, steps = cartan_of_type("D", 4), 0
    for _ in range(500):
        n = rng.randint(11, 14)
        _alpha_summary(build_bott_data(d4, random_word(rng, 4, n)))
        steps += n * (n - 1) // 2
    assert len(misses) < steps / 10


@pytest.mark.parametrize("gcm", [INDEFINITE, SINGULAR_GCMS["A2^(1)"]],
                         ids=["indefinite_rank3", "A2^(1)"])
def test_the_alpha_walk_reflects_what_its_table_lacks(gcm):
    # the walk reflects any member its table has not reflected by the
    # step's letter, so it is exact on a cold table with no plan built,
    # and on a table that left the cache between the plan and the walk
    rng = random.Random(58)
    for n in (6, 9):
        word = random_word(rng, gcm.n, n)
        _empty_cache()
        bott = build_bott_data(gcm, word)
        pairs = _alpha_summary(bott)["pairs"]
        assert "plan" not in vars(bott)
        for pair in pairs:
            i, j = pair["i"], pair["j"]
            values = [
                alpha_reflect(bott, i, j, (1,) * i + s + (1,) * (n - j + 1))
                for s in all_sign_vectors(j - i - 1)
            ]
            assert (pair["min"], pair["max"]) == (min(values), max(values))
        _empty_cache()
        bott = build_bott_data(gcm, word)
        assert bott.plan.size
        _empty_cache()
        assert _alpha_summary(bott)["pairs"] == pairs
        _cache_within_bounds()


def test_a_build_cut_short_leaves_its_table_out_of_the_cache(monkeypatch):
    # an exception inside a pass over a table (a deadline, say) may fall
    # between numbering a direction and storing it, so that table is not
    # reused; the other tables stay
    _empty_cache()
    _alpha_summary(build_bott_data(cartan_of_type("A", 3), (1, 2, 3, 2, 1)))
    a3 = list(bott_module._tables.items())
    add, calls = bott_module._Directions.add, []

    def cut(self, f):
        calls.append(f)
        if len(calls) == 40:
            raise TimeoutError
        return add(self, f)

    monkeypatch.setattr(bott_module._Directions, "add", cut)
    word = random_word(random.Random(26), 3, 26)
    with pytest.raises(TimeoutError):
        build_bott_data(INDEFINITE, word).plan
    assert list(bott_module._tables.items()) == a3
    _cache_within_bounds()
    monkeypatch.undo()
    bott = build_bott_data(INDEFINITE, word)
    assert bott.plan.size[-1] == 1338
    assert len(bott_module._tables[_cached(bott)].vectors) == 1338
    _cache_within_bounds()
    summary = _alpha_summary(bott)
    # an alpha walk cut short inside a reflection, on a tower with no plan
    reflect, calls = bott_module._Directions.reflect, []

    def cut_reflect(self, l, g):
        calls.append(g)
        if len(calls) == 40:
            raise TimeoutError
        return reflect(self, l, g)

    monkeypatch.setattr(bott_module._Directions, "reflect", cut_reflect)
    _empty_cache()
    _alpha_summary(build_bott_data(cartan_of_type("A", 3), (1, 2, 3, 2, 1)))
    a3 = list(bott_module._tables.items())
    with pytest.raises(TimeoutError):
        _alpha_summary(build_bott_data(INDEFINITE, word))
    assert len(calls) == 40
    assert list(bott_module._tables.items()) == a3
    _cache_within_bounds()
    monkeypatch.undo()
    assert _alpha_summary(build_bott_data(INDEFINITE, word)) == summary
    _cache_within_bounds()


def test_a_tower_pickles_and_copies_with_its_plan():
    # the plan is plain lists in the tower's own numbering: a copy of the
    # tower carries it and reports the same, on a warm table or a cold one
    bott = build_bott_data(INDEFINITE, (1, 2, 3, 1, 3, 2, 1, 2, 3, 3, 1))
    a = (1, -2, 0, 3, -1, 2, 0, 1, -3, 2, 1)
    profile, summary = condition_profile(bott, a), _alpha_summary(bott)
    for copy_ in (pickle.loads(pickle.dumps(bott)), copy.deepcopy(bott), copy.copy(bott)):
        assert copy_ == bott and vars(copy_)["plan"] == bott.plan
        assert condition_profile(copy_, a) == profile
        assert _alpha_summary(copy_) == summary
    _empty_cache()
    assert _alpha_summary(pickle.loads(pickle.dumps(bott))) == summary


class _YieldingList(list):
    """A list whose append first hands the interpreter to another thread,
    so an unguarded number-then-append in _Directions.add would interleave."""

    def append(self, item):
        time.sleep(0)
        super().append(item)


def test_towers_built_in_threads_share_a_table_safely():
    # indefinite words (all three letters) from an empty table: every tower
    # adds directions while the others read and extend the same table
    rng = random.Random(4)
    texts = [
        json.dumps({"cartan": {"matrix": [list(row) for row in INDEFINITE.entries]},
                    "word": [1, 2, 3] + list(random_word(rng, 3, n - 3).letters),
                    "divisor": random_coeffs(rng, n, 3)})
        for n in [12, 14, 16, 18] * 8
    ]
    towers = [load_problem(text).bott() for text in texts]
    fresh, fresh_plans = [], []
    for text, bott in zip(texts, towers):
        _empty_cache()
        fresh.append(_certify_report(text))
        fresh_plans.append(_direction_plan(bott))
    _empty_cache()
    with bott_module._table(towers[0]) as table:
        table.vectors = _YieldingList(table.vectors)
    reports, plans = {}, {}

    # the plan is built straight from _direction_plan as well, since
    # BottData.plan may serialise its builds (cached_property holds a lock
    # before Python 3.12); a tower's own numbering does not depend on the
    # table's, so each plan must equal its fresh one
    def work(start):
        for k in range(start, len(texts), 4):
            plans[k] = _direction_plan(towers[k])
            reports[k] = _certify_report(texts[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(start,)) for start in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [plans[k] for k in range(len(texts))] == fresh_plans
    assert [reports[k] for k in range(len(texts))] == fresh
    # a lost update would leave a number without its direction, or a
    # reflection that is not one
    assert list(bott_module._tables.values()) == [table]
    assert len(table.number) == len(table.vectors)
    assert all(table.number[f] == g for g, f in enumerate(table.vectors))
    for l, row in table.rows.items():
        at = table.column[l]
        assert len(table.turn[l]) == len(table.vectors)
        for g, t in enumerate(table.turn[l]):
            if t >= 0:
                f = table.vectors[g]
                assert table.vectors[t] == tuple(x - f[at] * y for x, y in zip(f, row))
    _cache_within_bounds()


def test_alpha_summary_of_a_long_word_costs_its_directions():
    # A3's directions are its 12 coroots at any N, so each of the N(N-1)/2
    # ranges reads at most 12 of them
    n = 200
    bott = build_bott_data(cartan_of_type("A", 3), random_word(random.Random(n), 3, n))
    with hard_deadline(5.0):
        pairs = _alpha_summary(bott)["pairs"]
    assert len(pairs) == n * (n - 1) // 2
    ranges = {(pair["i"], pair["j"]): (pair["min"], pair["max"]) for pair in pairs}
    # a coroot of a simply-laced finite system pairs with a root in [-2, 2]
    assert all(-2 <= lo <= hi <= 2 for lo, hi in ranges.values())
    for i in range(1, n, 19):
        for j in range(i + 1, min(i + 8, n + 1)):
            values = [
                alpha_reflect(bott, i, j, (1,) * i + s + (1,) * (n - j + 1))
                for s in all_sign_vectors(j - i - 1)
            ]
            assert ranges[i, j] == (min(values), max(values))


@pytest.mark.parametrize("name", sorted(SINGULAR_GCMS))
def test_profile_on_singular_matrices_matches_enumeration(name):
    gcm = SINGULAR_GCMS[name]
    rng = random.Random(31)
    for n in (4, 7, 10, 10):
        bott = build_bott_data(gcm, random_word(rng, gcm.n, n))
        a = random_coeffs(rng, n, 3)
        profile = condition_profile(bott, a)
        for i in range(1, n + 1):
            values = [big_c(bott, a, i, (1,) * i + s) for s in all_sign_vectors(n - i)]
            assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (min(values), max(values))


@pytest.mark.parametrize("name", sorted(SINGULAR_GCMS))
def test_alpha_summary_on_singular_matrices_matches_alpha_reflect(name):
    gcm = SINGULAR_GCMS[name]
    rng = random.Random(32)
    for n in (4, 7, 10):
        bott = build_bott_data(gcm, random_word(rng, gcm.n, n))
        pairs = _alpha_summary(bott)["pairs"]
        assert len(pairs) == n * (n - 1) // 2
        for pair in pairs:
            i, j = pair["i"], pair["j"]
            values = [
                alpha_reflect(bott, i, j, (1,) * i + s + (1,) * (n - j + 1))
                for s in all_sign_vectors(j - i - 1)
            ]
            assert (pair["min"], pair["max"]) == (min(values), max(values))


@pytest.mark.parametrize("name", sorted(SINGULAR_GCMS))
def test_scan_tables_on_singular_matrices_match_single_reports(name):
    gcm = SINGULAR_GCMS[name]
    rng = random.Random(33)
    for n, width in ((5, 3), (8, 2)):
        bott = build_bott_data(gcm, random_word(rng, gcm.n, n))
        ranges = tuple((lo, lo + rng.randint(0, width - 1)) for lo in random_coeffs(rng, n, 3))
        tables = _sweep_bounds(bott, ranges)
        for a in product(*(range(lo, hi + 1) for lo, hi in ranges)):
            profile = _vanishing_report(bott, a).profile
            k = 0  # lexicographic number of the suffix (a_{i+1}, ..., a_N)
            for i in range(n, 0, -1):
                low, high = tables[i - 1][k]
                assert (profile.c_min[i - 1], profile.c_max[i - 1]) == (a[i - 1] + low, a[i - 1] + high)
                k += (a[i - 1] - ranges[i - 1][0]) * prod(hi - lo + 1 for lo, hi in ranges[i:])


def test_profile_of_a_long_affine_word_stays_fast_and_exact():
    # 2^59 suffixes at index 1; in root coordinates the reachable vectors
    # also spread along the null root, which no pairing sees
    n = 60
    bott = build_bott_data(SINGULAR_GCMS["A2^(1)"], Word((1, 2, 3) * 20))
    a = (-2, 1, 3) * 20
    with hard_deadline(5.0):
        profile = condition_profile(bott, a)
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


@pytest.mark.parametrize("eta, error, match", [
    # an integer that is not a sign is out of range; a string entry falls
    # under the integer rule before the range is checked
    pytest.param((2,), IndexOutOfRange, "out of range -1, 0 or \\+1", id="eta0"),
    pytest.param((1, -1, "x"), NotAnInteger, "sign entry must be an integer", id="eta1"),
])
def test_certificate_refuses_entries_that_are_not_signs(eta, error, match):
    with pytest.raises(error, match=match):
        VanishingCertificate(eta=eta)


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
