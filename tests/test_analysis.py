import json
from itertools import product
from operator import or_

import pytest

from bottsamelson import (
    BottSamelsonError,
    BoxTooLarge,
    ProblemError,
    build_bott_data,
    cartan_of_type,
    load_problem,
    parse_problem,
    report_json,
    run_analyze,
    run_oracle,
    run_scan,
    run_toric,
    run_weights,
    vanishing_report,
)
from bottsamelson.vanishing import _conclusions, _flag_keys, _sweep_bounds

BASE_DOC = {
    "cartan": {"type": "A", "rank": 3},
    "word": [2, 1, 3, 2],
    "divisor": [2, 2, 2, 2],
}


def test_parse_cartan_by_type_and_by_matrix():
    by_type = parse_problem(BASE_DOC)
    by_matrix = parse_problem({
        "cartan": {"matrix": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]},
        "word": [2, 1, 3, 2],
        "divisor": [2, 2, 2, 2],
    })
    bare = parse_problem({
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "word": [2, 1, 3, 2],
        "divisor": [2, 2, 2, 2],
    })
    assert by_type.gcm == by_matrix.gcm == bare.gcm == cartan_of_type("A", 3)
    assert by_type.word.letters == (2, 1, 3, 2)
    assert by_type.a == (2, 2, 2, 2)
    assert by_type.b == (0, 0, 0, 0)


def test_parse_divisor_with_lower_coefficients():
    spec = parse_problem({
        "cartan": [[2]],
        "word": [1],
        "divisor": {"a": [-2], "b": [1]},
    })
    assert spec.divisor().a == (-2,) and spec.divisor().b == (1,)


def test_parse_rejects_malformed_documents():
    base = {"cartan": [[2]], "word": [1], "divisor": [0]}
    bad_docs = [
        {**base, "extra": 1},
        {**base, "divisor": [0, 0]},
        {**base, "divisor": "nope"},
        {**base, "divisor": [0.5]},
        {**base, "divisor": [True]},
        {**base, "word": []},
        {**base, "word": [1.5]},
        {**base, "word": ["1"]},
        {**base, "cartan": [[True]]},
        {**base, "divisor": {"a": [0], "b": [0.5]}},
        {**base, "scan": [[0, 1.5]]},
        {**base, "cartan": {"type": "A"}},
        {**base, "cartan": {"rank": 2}},
        {**base, "cartan": {"matrix": [[2]], "type": "A", "rank": 1}},
        {**base, "scan": [[2, 1]]},
        {**base, "scan": [[0, 1], [0, 1]]},
        "not a dict",
    ]
    # every malformed document maps to the invalid-input exit code, whether
    # the parser or a deeper validator catches it first
    for doc in bad_docs:
        with pytest.raises(BottSamelsonError):
            parse_problem(doc)


@pytest.mark.parametrize("rank", [10**5, 10**18])
def test_typed_cartan_entry_past_the_cap_is_refused_before_it_is_built(rank):
    doc = {"cartan": {"type": "A", "rank": rank}, "word": [1], "divisor": [0]}
    with pytest.raises(BoxTooLarge, match=f"Cartan matrix of rank {rank} has {rank * rank} entries"):
        parse_problem(doc)


def test_load_problem_rejects_bad_json():
    with pytest.raises(ProblemError):
        load_problem("{not json")
    spec = load_problem(json.dumps(BASE_DOC))
    assert spec.a == (2, 2, 2, 2)


def test_commands_requiring_missing_pieces():
    no_divisor = parse_problem({"cartan": [[2]], "word": [1]})
    with pytest.raises(ProblemError):
        run_analyze(no_divisor)
    no_scan = parse_problem({"cartan": [[2]], "word": [1], "divisor": [0]})
    with pytest.raises(ProblemError):
        run_scan(no_scan)


def test_analyze_report_round_trips_through_its_echo():
    spec = parse_problem(BASE_DOC)
    doc = run_analyze(spec)
    again = parse_problem(doc["input"])
    assert again.gcm == spec.gcm
    assert again.word == spec.word
    assert again.a == spec.a
    assert run_analyze(again)["vanishing"] == doc["vanishing"]


def test_reports_are_byte_identical_across_runs():
    first = report_json(run_analyze(parse_problem(BASE_DOC), collect_witnesses=True))
    second = report_json(run_analyze(parse_problem(dict(BASE_DOC)), collect_witnesses=True))
    assert first == second
    assert first.encode() == second.encode()


def test_big_integers_become_decimal_strings():
    huge = 2**80
    spec = parse_problem({
        "cartan": [[2]],
        "word": [1],
        "divisor": [huge],
    })
    doc = run_analyze(spec, with_toric=False)
    text = report_json(doc)
    parsed = json.loads(text)
    assert parsed["input"]["divisor"]["a"] == [str(huge)]
    assert parsed["conditions"][0]["c_min"] == str(huge)
    # values that fit in 64 bits stay numeric
    assert parsed["schema"] == 1


def test_scan_of_big_integers_renders_them_as_decimal_strings():
    huge = 2**70
    spec = parse_problem({
        "cartan": {"type": "A", "rank": 2},
        "word": [1, 2],
        "scan": [[huge, huge + 1], [-huge - 1, -huge]],
    })
    doc = run_scan(spec)
    parsed = json.loads(report_json(doc))
    assert [rec["a"] for rec in parsed["records"]] == [
        [str(a1), str(a2)] for a1 in (huge, huge + 1) for a2 in (-huge - 1, -huge)
    ]
    bott = build_bott_data(spec.gcm, spec.word)
    for rec in doc["records"]:
        rep = vanishing_report(bott, tuple(rec["a"]), with_toric=False)
        assert rec["vanished"] == list(rep.vanished)
        assert rec["single_degree"] == rep.single_degree
        assert rec["everything_vanishes"] == rep.everything_vanishes


def test_report_json_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        report_json({"x": object()})
    with pytest.raises(TypeError):
        report_json({(1, 2): 0})
    with pytest.raises(TypeError):
        report_json({"a": 1, 2: 1})


KEYED_GRIDS = {
    "indefinite": ([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]], [3, 1, 2, 3, 1]),
    "A1^(1)": ([[2, -2], [-2, 2]], [1, 2, 2, 1, 2]),
}
KEYED_RANGES = [[-3, 0], [-2, 1], [-3, 0], [-2, 1], [-2, 1]]

# (cartan, word, scan ranges): a small grid, one-point grids (every range of
# width 1) and the 1,024-point grids of KEYED_GRIDS
SCAN_CASES = [
    ({"type": "A", "rank": 2}, [1, 2], [[-2, 0], [-1, 1]]),
    *((BASE_DOC["cartan"], BASE_DOC["word"], [[v, v] for v in a])
      for a in [(2, 2, 2, 2), (-1, -1, 1, 0), (0, -3, 2, -1)]),
    *(({"matrix": matrix}, word, KEYED_RANGES) for matrix, word in KEYED_GRIDS.values()),
]


def test_scan_matches_individual_reports():
    for cartan, word, ranges in SCAN_CASES:
        spec = parse_problem({"cartan": cartan, "word": word, "scan": ranges})
        bott = build_bott_data(spec.gcm, spec.word)
        expected = []
        for a in product(*(range(lo, hi + 1) for lo, hi in ranges)):
            rep = vanishing_report(bott, a, with_toric=False)
            expected.append({
                "a": list(a),
                "vanished": list(rep.vanished),
                "single_degree": rep.single_degree,
                "everything_vanishes": rep.everything_vanishes,
            })
        assert run_scan(spec)["records"] == expected


@pytest.mark.parametrize("name", sorted(KEYED_GRIDS))
def test_scan_keys_agree_with_reports_on_a_1024_point_grid(name):
    matrix, word = KEYED_GRIDS[name]
    spec = parse_problem({"cartan": {"matrix": matrix}, "word": word, "scan": KEYED_RANGES})
    bott = build_bott_data(spec.gcm, spec.word)
    grid = list(product(*(range(lo, hi + 1) for lo, hi in KEYED_RANGES)))
    keys = _flag_keys(spec.scan, _sweep_bounds(bott, spec.scan))
    assert len(keys) == len(grid) == 1024
    for a, key in zip(grid, keys):
        profile = vanishing_report(bott, a, with_toric=False).profile
        plus_ok, minus_ok = profile.plus_ok, profile.minus_ok
        assert key == (sum(minus_ok), sum(plus_ok), all(map(or_, plus_ok, minus_ok)))
    # the grid reaches both special verdicts
    verdicts = [_conclusions(len(word), *key) for key in set(keys)]
    assert any(v.single_degree is not None for v in verdicts)
    assert any(v.everything_vanishes for v in verdicts)


def test_scan_of_a_one_letter_word():
    spec = parse_problem({"cartan": [[2]], "word": [1], "scan": [[-3, 1]]})
    records = run_scan(spec)["records"]
    # C_1 = a_1: minus flag below 0, plus flag from -1 up, both at -1
    assert records == [
        {"a": [-3], "vanished": [0], "single_degree": 1, "everything_vanishes": False},
        {"a": [-2], "vanished": [0], "single_degree": 1, "everything_vanishes": False},
        {"a": [-1], "vanished": [0, 1], "single_degree": None, "everything_vanishes": True},
        {"a": [0], "vanished": [1], "single_degree": 0, "everything_vanishes": False},
        {"a": [1], "vanished": [1], "single_degree": 0, "everything_vanishes": False},
    ]


def test_scan_grid_cap():
    spec = parse_problem({
        "cartan": [[2]],
        "word": [1],
        "scan": [[-1000, 1000]],
    })
    with pytest.raises(BoxTooLarge):
        run_scan(spec, cap=100)


def test_weights_and_toric_commands():
    spec = parse_problem({
        "cartan": {"type": "A", "rank": 2},
        "word": [1, 1],
        "divisor": [1, 0],
    })
    toric_doc = run_toric(spec)
    assert toric_doc["toric"]["dims"] == [2, 0, 0]
    weights_doc = run_weights(spec)
    concentrated = [r for r in weights_doc["weights"] if r["kind"] == "concentrated"]
    assert sum(1 for r in concentrated if r["degree"] == 0) == 2
    assert weights_doc["box"]["points"] == len(weights_doc["weights"])


def test_oracle_agreement_on_known_examples():
    for doc, dims in [
        ({"cartan": {"type": "A", "rank": 2}, "word": [1, 1], "divisor": [1, 0]},
         [2, 0, 0]),
        ({"cartan": [[2]], "word": [1], "divisor": [-2]}, [0, 1]),
    ]:
        out = run_oracle(parse_problem(doc))
        assert out["agree"]
        assert out["closed_form"]["dims"] == dims
        assert out["simplicial"]["dims"] == dims
        assert out["cech"]["dims"] == dims
        assert "first_mismatch" not in out
