import copy
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bottsamelson
import bottsamelson.analysis as analysis
import bottsamelson.cech as cech
import bottsamelson.cli as cli
from conftest import run_cli

PROBLEM_DOC = json.dumps({
    "cartan": {"type": "A", "rank": 3},
    "word": [2, 1, 3, 2],
    "divisor": [2, 2, 2, 2],
})
MIXED = json.dumps({
    "cartan": {"type": "A", "rank": 3},
    "word": [2, 1, 3, 2],
    "divisor": [-1, -1, 1, 0],
})
LINE = json.dumps({"cartan": [[2]], "word": [1], "divisor": [-2]})
ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "demos" / "problems"
# the environment of a CLI process: the package on its path, and stdout
# buffered as in a plain shell
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), ENV.get("PYTHONPATH")]))
CLI = [sys.executable, "-m", "bottsamelson.cli"]


def run(args, stdin=None):
    return run_cli(args, stdin)


def test_analyze_text_output():
    result = run(["analyze", "-"], stdin=MIXED)
    assert result.exit_code == 0
    assert "vanished degrees: (0, 2, 3, 4)" in result.output
    assert "possibly nonzero degrees: (1)" in result.output
    assert "0+++" in result.output


def test_analyze_reads_files(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(PROBLEM_DOC)
    result = run(["analyze", str(path)])
    assert result.exit_code == 0
    assert "vanished degrees: (2, 3, 4)" in result.output


def test_json_output_is_deterministic_and_parses():
    first = run(["analyze", "--json", "--witnesses", "-"], stdin=PROBLEM_DOC)
    second = run(["analyze", "--json", "--witnesses", "-"], stdin=PROBLEM_DOC)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["schema"] == 1
    assert doc["command"] == "analyze"
    assert doc["vanishing"]["vanished"] == [2, 3, 4]
    assert doc["toric"]["dims"] == [21, 1, 0, 0, 0]
    assert ([-3, -2, -2, 0], 1) in [
        (w["weight"], w["degree"]) for w in doc["toric"]["witnesses"]
    ]


def test_no_toric_flag():
    result = run(["analyze", "--json", "--no-toric", "-"], stdin=PROBLEM_DOC)
    doc = json.loads(result.output)
    assert doc["toric"] is None


def test_toric_and_weights_subcommands():
    result = run(["toric", "-"], stdin=LINE)
    assert result.exit_code == 0
    assert "h = (0, 1)" in result.output
    result = run(["weights", "-"], stdin=LINE)
    assert result.exit_code == 0
    assert "degree 1" in result.output


def test_scan_subcommand():
    doc = json.dumps({
        "cartan": {"type": "A", "rank": 2},
        "word": [1, 2],
        "scan": [[-2, 0], [-2, 0]],
    })
    result = run(["scan", "-"], stdin=doc)
    assert result.exit_code == 0
    assert "a = (-2, -1)" in result.output
    as_json = run(["scan", "--json", "-"], stdin=doc)
    assert len(json.loads(as_json.output)["records"]) == 9


def test_scan_report_past_one_write_is_written_whole():
    # B3 at N = 5 over [-2, 3]^5: 7,776 records, a JSON report of about
    # 1.7 MB and a text report of about 0.4 MB, written in 1 MiB pieces
    doc = json.dumps({
        "cartan": {"type": "B", "rank": 3},
        "word": [1, 2, 3, 2, 1],
        "scan": [[-2, 3]] * 5,
    })
    report = analysis.run_scan(analysis.load_problem(doc))
    as_json = run(["scan", "--json", "-"], stdin=doc)
    assert as_json.exit_code == 0
    assert len(as_json.output) > 1 << 20
    assert as_json.output == analysis.report_json(report) + "\n"
    as_text = run(["scan", "-"], stdin=doc)
    assert as_text.exit_code == 0
    assert as_text.output == cli._render_scan(report) + "\n"


def test_oracle_subcommand_agreement():
    result = run(["oracle", "-"], stdin=LINE)
    assert result.exit_code == 0
    assert "all three agree" in result.output


def test_exit_code_for_invalid_input():
    assert run(["analyze", "-"], stdin="{broken").exit_code == 2
    bad_gcm = json.dumps({"cartan": [[2, -1], [0, 2]], "word": [1], "divisor": [0]})
    assert run(["analyze", "-"], stdin=bad_gcm).exit_code == 2
    no_divisor = json.dumps({"cartan": [[2]], "word": [1]})
    assert run(["analyze", "-"], stdin=no_divisor).exit_code == 2
    big_word = json.dumps({"cartan": [[2]], "word": [1] * 6, "divisor": [0] * 6})
    assert run(["oracle", "-"], stdin=big_word).exit_code == 3


def test_exit_code_for_capacity():
    big = json.dumps({"cartan": [[2]], "word": [1], "divisor": [10**7]})
    result = run(["toric", "--cap", "100", "-"], stdin=big)
    assert result.exit_code == 3


def test_default_cap_refuses_a_box_just_over_two_million_points():
    # the weight box of O(2000000) on the line is [-2000000, 0]
    big = json.dumps({"cartan": [[2]], "word": [1], "divisor": [2_000_000]})
    result = run(["toric", "-"], stdin=big)
    assert result.exit_code == 3
    assert "2000001" in result.output


def test_scan_cap_error_names_the_scan_grid():
    path = PROBLEMS / "scan_surface.json"
    result = run(["scan", "--cap", "10", str(path)])
    assert result.exit_code == 3
    assert result.stderr == (
        "error: scan grid has 25 lattice points, exceeding the cap of 10\n"
    )


@pytest.mark.parametrize("rank", [10**5, 10**18])
def test_typed_cartan_entry_past_the_cap_is_a_capacity_error(rank):
    doc = json.dumps({"cartan": {"type": "A", "rank": rank}, "word": [1], "divisor": [0]})
    result = run(["analyze", "--no-toric", "-"], stdin=doc)
    assert result.exit_code == 3
    assert result.stderr == (
        f"error: Cartan matrix of rank {rank} has {rank * rank} entries, exceeding the fixed "
        "limit of 2000000 matrix entries (--cap does not change it)\n"
    )


@pytest.mark.parametrize("family", ["G", "e", "F"])
def test_unsupported_cartan_family_is_named_as_such(family):
    doc = json.dumps({"cartan": {"type": family, "rank": 2}, "word": [1], "divisor": [0]})
    result = run(["analyze", "--no-toric", "-"], stdin=doc)
    assert result.exit_code == 2
    assert result.stderr == (
        f"error: Cartan type '{family.upper()}' is not supported; "
        "the supported types are A, B, C and D\n"
    )


def test_unsupported_family_is_named_before_the_entry_limit():
    # G is refused at any rank, so the matrix-entry limit has nothing to say
    doc = json.dumps({"cartan": {"type": "G", "rank": 2000}, "word": [1], "divisor": [0]})
    result = run(["analyze", "--no-toric", "-"], stdin=doc)
    assert result.exit_code == 2
    assert result.stderr == (
        "error: Cartan type 'G' is not supported; the supported types are A, B, C and D\n"
    )


def test_typed_cartan_limit_is_fixed_whatever_the_cap():
    # the limit counts matrix entries, not lattice points, so --cap moves it
    # neither down nor up
    small = json.dumps({"cartan": {"type": "A", "rank": 4}, "word": [1], "divisor": [0]})
    assert run(["analyze", "--no-toric", "--cap", "10", "-"], stdin=small).exit_code == 0
    big = json.dumps({"cartan": {"type": "A", "rank": 1415}, "word": [1], "divisor": [0]})
    result = run(["analyze", "--no-toric", "--cap", "10000000", "-"], stdin=big)
    assert result.exit_code == 3
    assert "fixed limit of 2000000 matrix entries (--cap does not change it)" in result.stderr


@pytest.mark.parametrize("command", ["analyze", "toric", "weights", "scan", "oracle"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_a_usage_error(command, cap):
    result = run([command, "--cap", cap, "-"], stdin=LINE)
    assert result.exit_code == 2
    assert "Invalid value for '--cap'" in result.stderr


@pytest.mark.parametrize("flag", ["--js", "--wit", "--no-tor"])
def test_abbreviated_flags_are_usage_errors(flag):
    assert run(["analyze", flag, "-"], stdin=LINE).exit_code == 2


def test_exit_code_for_oracle_mismatch(monkeypatch):
    # the honest computations always agree, so exercise the exit-code wiring
    # by stubbing the report the command renders
    fake = {
        "schema": 1,
        "command": "oracle",
        "input": {},
        "closed_form": {"dims": [1, 0], "euler": 1},
        "simplicial": {"dims": [0, 0], "euler": 0},
        "cech": {"dims": [1, 0], "euler": 1},
        "agree": False,
        "first_mismatch": {
            "weight": [0],
            "closed_form": {0: 1},
            "simplicial": {},
            "cech": {0: 1},
        },
    }
    monkeypatch.setattr(cli, "run_oracle", lambda spec, cap: fake)
    result = run(["oracle", "-"], stdin=LINE)
    assert result.exit_code == 4
    assert "MISMATCH" in result.output


def test_exit_code_for_an_impossible_cech_degree(monkeypatch):
    # a Cech pattern cannot have cohomology above the tower's dimension;
    # stub one that does, and the command must fail with a typed error
    monkeypatch.setattr(cech, "_cech_pattern_dims", lambda n, plus, minus: ((n + 1, 1),))
    spec = analysis.load_problem(LINE)
    with pytest.raises(bottsamelson.InconsistentData):
        cech.cech_table(spec.bott(), spec.divisor())
    result = run(["oracle", "-"], stdin=LINE)
    assert result.exit_code == 2
    assert "error: impossible cohomology degree 2" in result.output


def test_exit_code_for_toric_contradiction(monkeypatch):
    # O(-2) on the line certifies vanishing in degree 0; a table that is
    # nonzero there must be reported as a disagreement, not a traceback
    table = bottsamelson.CohomologyTable(dims=(1, 1), euler=0)
    monkeypatch.setattr(analysis, "cohomology_table", lambda *args, **kwargs: table)
    result = run(["analyze", "-"], stdin=LINE)
    assert result.exit_code == 4
    assert "error: claimed vanishing in degree 0" in result.output


def test_big_integers_serialized_as_strings():
    doc = json.dumps({"cartan": [[2]], "word": [1], "divisor": [2**70]})
    result = run(["analyze", "--json", "--no-toric", "-"], stdin=doc)
    assert result.exit_code == 0
    parsed = json.loads(result.output)
    assert parsed["input"]["divisor"]["a"] == [str(2**70)]


def test_oracle_reads_the_divisor_before_the_dimension_gate():
    # the dimension gate lives in cech_table, which runs after spec.divisor()
    no_divisor = json.dumps({"cartan": [[2]], "word": [1] * 6})
    result = run(["oracle", "-"], stdin=no_divisor)
    assert result.exit_code == 2
    assert result.stderr == "error: this command needs a 'divisor' entry\n"


def _assert_input_error(result):
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("doc", [
    {"cartan": [[2]], "word": ["1"], "divisor": [0]},
    {"cartan": [[True]], "word": [1], "divisor": [0]},
    {"cartan": [[2]], "word": [1], "scan": [[0, 1.5]]},
    {"cartan": [[2]], "word": [1], "divisor": {"a": [0], "b": [0.5]}},
    {"cartan": [[2]], "word": [1], "divisor": "nope"},
])
def test_non_integer_document_entries_are_input_errors(doc):
    command = "scan" if "scan" in doc else "analyze"
    _assert_input_error(run([command, "-"], stdin=json.dumps(doc)))


def test_deeply_nested_document_is_an_input_error():
    _assert_input_error(run(["analyze", "-"], stdin="[" * 100_000))


def test_undecodable_bytes_are_an_input_error(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(b"\xff" + PROBLEM_DOC.encode())
    _assert_input_error(run(["analyze", str(path)]))
    _assert_input_error(run(["analyze", "-"], stdin=b"\xff" + PROBLEM_DOC.encode()))


DEMOS = {path.name: json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))}
DROP = "drop"


def _paths(node, path=()):
    """The path of every entry below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_demos(draw):
    """A demo problem with one key dropped, or one value swapped for a float,
    a bool, a string, None or a huge int."""
    doc = copy.deepcopy(DEMOS[draw(st.sampled_from(sorted(DEMOS)))])
    *head, last = draw(st.sampled_from(list(_paths(doc))))
    parent = reduce(lambda node, key: node[key], head, doc)
    changes = [1.5, True, "1", None, 10**40] + ([DROP] if isinstance(parent, dict) else [])
    change = draw(st.sampled_from(changes))
    if change == DROP:
        del parent[last]
    else:
        parent[last] = change
    return json.dumps(doc)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(doc=mutated_demos())
def test_every_command_keeps_the_exit_code_contract_on_mutated_demos(doc):
    for command in ("analyze", "toric", "weights", "scan", "oracle"):
        result = run([command, "--cap", "20000", "-"], stdin=doc)
        assert result.exit_code in (0, 2, 3, 4), (command, doc, result.output)
        if result.exit_code:
            assert result.stderr.startswith("error: "), (command, doc, result.output)
            assert "Traceback" not in result.output, (command, doc)


def test_undecodable_stdin_of_a_real_process_is_an_input_error():
    # a real stdin may decode with surrogateescape; the problem must not
    problem = b"\xff" + (PROBLEMS / "analyze_rank3_tower.json").read_bytes()
    done = subprocess.run([*CLI, "analyze", "-"], input=problem, capture_output=True,
                          env=ENV, timeout=20)
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: cannot decode the problem file")


B3_GRID = json.dumps({"cartan": {"type": "B", "rank": 3}, "word": [1, 2, 3, 2, 1],
                      "scan": [[-2, 2]] * 5})


@pytest.mark.parametrize("command, doc, keep", [
    # the report of the 3,125-point grid outgrows the pipe, so the command
    # is still writing when the reader leaves after 100 bytes
    ("scan", B3_GRID, 100),
    # the pipe closes before the command reads its problem: the small
    # report waits in the stream's buffer, so the flush meets the closed
    # pipe, and the interpreter's last flush must not meet it again
    ("analyze", MIXED, 0),
], ids=["while-writing", "before-writing"])
def test_a_closed_output_pipe_exits_1_with_nothing_on_stderr(command, doc, keep):
    proc = subprocess.Popen([*CLI, command, "--json", "-"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    proc.stdin.write(doc.encode())
    if not keep:
        proc.stdout.close()
    proc.stdin.close()
    if keep:
        assert len(proc.stdout.read(keep)) == keep
        proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=20) == 1


def test_importing_the_cli_loads_no_click():
    probe = "import sys, bottsamelson.cli; sys.exit('click' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=ENV, timeout=20).returncode == 0


@pytest.fixture
def int_digit_limit():
    """The interpreter's int/str digit limit (None before Python 3.10.7),
    restored after the test."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    yield limit
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_integer_past_the_digit_limit_is_an_input_error(int_digit_limit):
    if int_digit_limit is None:
        pytest.skip("this interpreter has no int/str digit limit")
    sys.set_int_max_str_digits(4300)
    doc = '{"cartan": [[2]], "word": [1], "divisor": [%s]}' % ("9" * 5000)
    with pytest.raises(analysis.ProblemError, match="invalid JSON"):
        analysis.load_problem(doc)
    # the CLI lifts the limit, so the same literal as a word letter reaches
    # the letter check
    letter = '{"cartan": [[2]], "word": [%s], "divisor": [0]}' % ("9" * 5000)
    result = run(["analyze", "-"], stdin=letter)
    _assert_input_error(result)
    assert result.stderr.startswith("error: word letter at position 1 index 999")
    assert sys.get_int_max_str_digits() == 4300


def test_capacity_error_with_a_2500_digit_box(int_digit_limit):
    a = str(10**2500 - 1)
    doc = '{"cartan": {"type": "A", "rank": 2}, "word": [1, 2], "divisor": [%s, %s]}' % (a, a)
    result = run(["toric", "-"], stdin=doc)
    assert result.exit_code == 3
    assert result.stderr.startswith("error: weight box has 1000")
    assert "Traceback" not in result.output


def test_analyze_prints_conditions_past_4300_digits(int_digit_limit):
    a = 10**4299 - 1
    doc = json.dumps({
        "cartan": {"matrix": [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]},
        "word": [1, 2, 3, 1, 2, 3],
        "divisor": [a] * 6,
    })
    text = run(["analyze", "--no-toric", "-"], stdin=doc)
    assert text.exit_code == 0
    as_json = run(["analyze", "--json", "--no-toric", "-"], stdin=doc)
    assert as_json.exit_code == 0
    c_min = [c["c_min"] for c in json.loads(as_json.output)["conditions"]]
    assert max(len(v.lstrip("-")) for v in c_min) > 4300
    assert c_min[-1] == str(a)


def test_round_trip_echo_reparses():
    result = run(["analyze", "--json", "-"], stdin=PROBLEM_DOC)
    echoed = json.loads(result.output)["input"]
    again = run(["analyze", "--json", "-"], stdin=json.dumps(echoed))
    assert again.exit_code == 0
    assert json.loads(again.output)["vanishing"] == \
        json.loads(result.output)["vanishing"]


def test_version_flag():
    result = run(["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == bottsamelson.__version__
