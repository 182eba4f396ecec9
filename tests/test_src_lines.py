"""``tools/src_lines.py``: every line of a module in exactly one kind."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment alone
import os  # a comment after code


def f(x):
    """A function docstring."""
    text = """a string that is

no docstring"""
    return x, text, os


class C:
    """A class docstring,

    with a blank line."""
'''


def test_a_small_module_splits_by_kind():
    assert src_lines.split(FIXTURE) == {"code": 7, "docstring": 6, "comment": 1, "blank": 5}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "gentropies").glob("*.py")),
                         ids=lambda path: path.name)
def test_the_kinds_of_each_module_sum_to_its_lines(path):
    source = path.read_text()
    counts = src_lines.split(source)
    assert sum(counts.values()) == len(source.splitlines())
    assert counts["code"] > 0
