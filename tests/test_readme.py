"""The Python examples of README.md run, and print what their comments say.

Every ```python block of the README is executed on its own. A line of the
form `print(...)  # expected` must print exactly `expected`.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
EXPECTED = re.compile(r"^print\(.*\)\s+#\s*(.*?)\s*$")


def python_blocks():
    return BLOCK.findall(README.read_text(encoding="utf-8"))


def test_readme_has_python_examples():
    blocks = python_blocks()
    assert blocks
    assert all(any(EXPECTED.match(line) for line in b.splitlines()) for b in blocks)


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_python_block_prints_its_comments(index):
    code = python_blocks()[index]
    expected = [m.group(1) for m in map(EXPECTED.match, code.splitlines()) if m]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"README.md python block {index + 1}", "exec"), {})
    assert out.getvalue().splitlines() == expected
