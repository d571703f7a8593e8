"""Golden report digests: every demo problem through every subcommand that
accepts it, rendered by report_json and compared by SHA-256 with
tests/golden_reports.json.

A failure means some report changed byte for byte. After an intended
report change, re-record the digests with

    PYTHONPATH=src python tests/test_golden.py

and commit the updated golden_reports.json with the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from bottsamelson.analysis import (
    load_problem,
    report_json,
    run_analyze,
    run_oracle,
    run_scan,
    run_toric,
    run_weights,
)
from bottsamelson.errors import BottSamelsonError

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

# name -> report builder
COMMANDS = {
    "analyze": lambda spec: run_analyze(spec),
    "analyze --witnesses": lambda spec: run_analyze(spec, collect_witnesses=True),
    "analyze --no-toric": lambda spec: run_analyze(spec, with_toric=False),
    "toric": lambda spec: run_toric(spec),
    "toric --witnesses": lambda spec: run_toric(spec, collect_witnesses=True),
    "weights": lambda spec: run_weights(spec),
    "scan": lambda spec: run_scan(spec),
    "oracle": lambda spec: run_oracle(spec),
}


def _digest(problem: str, command: str):
    """SHA-256 of the rendered report, or None if the command refuses it."""
    spec = load_problem((PROBLEMS / problem).read_text())
    try:
        doc = COMMANDS[command](spec)
    except BottSamelsonError:
        return None
    return hashlib.sha256(report_json(doc).encode("utf-8")).hexdigest()


def _cases():
    for path in sorted(PROBLEMS.glob("*.json")):
        for command in COMMANDS:
            yield path.name, command


def record() -> dict:
    digests = {}
    for problem, command in _cases():
        digest = _digest(problem, command)
        if digest is not None:
            digests.setdefault(problem, {})[command] = digest
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return digests


def test_every_demo_problem_is_recorded():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(p.name for p in PROBLEMS.glob("*.json"))


def test_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    for problem, command in _cases():
        assert _digest(problem, command) == golden[problem].get(command), (problem, command)


if __name__ == "__main__":
    recorded = record()
    print(f"recorded {sum(map(len, recorded.values()))} digests in {GOLDEN}", file=sys.stderr)
