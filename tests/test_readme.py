"""Each Python block of README.md runs as written, so the docs follow the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    exec(compile(code, str(README), "exec"), {})
