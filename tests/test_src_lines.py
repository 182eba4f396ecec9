"""``tools/src_lines.py``: every line of a module in exactly one kind."""

import importlib.util
import subprocess
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


def _write(root: Path, sources: dict[str, str]) -> None:
    """``root``'s ``src/gentropies`` holding exactly ``sources`` (file name -> text)."""
    package = root / src_lines.PACKAGE
    package.mkdir(parents=True, exist_ok=True)
    for path in package.glob("*.py"):
        path.unlink()
    for name, text in sources.items():
        (package / name).write_text(text)


@pytest.mark.parametrize("form", ["revision", "checkout"])
def test_against_takes_a_git_revision_or_a_checkout_directory(monkeypatch, tmp_path, capsys, form):
    """The change from two modules to one, with a docstring more and a module fewer,
    reads the same from a commit of the tree and from a copy of it elsewhere."""
    before = {"a.py": "x = 1\n", "b.py": "y = 2\n\n# a comment\n"}
    tree, copy = tmp_path / "tree", tmp_path / "copy"
    _write(tree, before)
    _write(copy, before)
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "before"]):
        subprocess.run(git + args, check=True, capture_output=True)
    _write(tree, {"a.py": '"""A docstring."""\nx = 1\n'})
    monkeypatch.setattr(src_lines, "ROOT", tree)
    assert src_lines.main(["--against", "HEAD" if form == "revision" else str(copy)]) == 0
    change = {"a.py": {"code": 0, "docstring": 1, "comment": 0, "blank": 0},
              "b.py": {"code": -1, "docstring": 0, "comment": -1, "blank": -1}}
    assert capsys.readouterr().out.endswith(":\n" + src_lines._table(change, signed=True) + "\n")
