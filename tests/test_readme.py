"""The README's python examples run as written, each in a fresh interpreter, and it
names every CLI option and every public name."""

import argparse
import re

import pytest

import pwsurv
from pwsurv.cli import _build_parser

from test_cli import SRC, python

README = SRC.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def _subcommand_options():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted({
        option
        for parser in sub.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    })


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block, tmp_path):
    proc = python("-c", block, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("option", _subcommand_options())
def test_names_every_subcommand_option(option):
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", TEXT)


@pytest.mark.parametrize("name", [name for name in pwsurv.__all__ if name != "__version__"])
def test_names_every_public_name(name):
    assert re.search(rf"\b{name}\b", TEXT)
