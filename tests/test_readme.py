"""The README's python examples run as written, each in a fresh interpreter."""

import re

import pytest

from test_cli import SRC, python

README = SRC.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block, tmp_path):
    proc = python("-c", block, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
