"""Golden command-line digests: every demo problem through each command
line below, as text and as --json, compared with tests/golden_cli.json by
the SHA-256 of stdout, the SHA-256 of stderr and the exit code.

tests/test_golden.py pins the JSON reports; this file pins the text
renderers, the error lines and the exit codes as well. The digests are
recorded from real processes (`python -m bottsamelson.cli`) and replayed
in process, so a failure means the command line's bytes changed. After an
intended change, re-record them with

    PYTHONPATH=src python tests/test_cli_golden.py

and commit the updated golden_cli.json with the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "demos" / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

COMMAND_LINES = (
    "analyze", "analyze --witnesses", "analyze --no-toric", "toric", "toric --witnesses",
    "weights", "scan", "oracle", "scan --cap 10", "toric --cap 5",
)


def _cases():
    for path in sorted(PROBLEMS.glob("*.json")):
        for line in COMMAND_LINES:
            for extra in ("", " --json"):
                yield path, line + extra


def _digests(stdout: bytes, stderr: bytes, exit_code: int) -> dict:
    return {
        "stdout": hashlib.sha256(stdout).hexdigest(),
        "stderr": hashlib.sha256(stderr).hexdigest(),
        "exit_code": exit_code,
    }


def record() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    golden = {}
    for path, line in _cases():
        done = subprocess.run([sys.executable, "-m", "bottsamelson.cli", *line.split(), str(path)],
                              capture_output=True, env=env)
        golden.setdefault(path.name, {})[line] = _digests(done.stdout, done.stderr, done.returncode)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


def test_every_demo_problem_and_command_line_is_recorded():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(p.name for p in PROBLEMS.glob("*.json"))
    assert all(len(cases) == 2 * len(COMMAND_LINES) for cases in golden.values())


def test_command_lines_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    for path, line in _cases():
        result = run_cli([*line.split(), str(path)])
        got = _digests(result.stdout.encode("utf-8"), result.stderr.encode("utf-8"),
                       result.exit_code)
        assert got == golden[path.name][line], (path.name, line, result.output[-300:])


if __name__ == "__main__":
    recorded = record()
    print(f"recorded {sum(map(len, recorded.values()))} cases in {GOLDEN}", file=sys.stderr)
