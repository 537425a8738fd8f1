"""Every ```python block in README.md runs as written.

Each block runs on its own, so a block that drifts from the API (a
removed method, a renamed argument) fails here instead of in a
reader's hands.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    for m in re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M):
        yield text.count("\n", 0, m.start()) + 1, m.group(1)


BLOCKS = list(python_blocks())


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


# Ids count blocks from the top, so an edit above a block that adds or
# removes lines keeps its id; the line number names it in tracebacks.
@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(line, code):
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})
