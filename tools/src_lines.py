"""Lines of ``src/gentropies`` per module, split into code, docstring, comment and blank.

Every line falls in one kind: a line of a docstring (of the module, a class
or a function) is a docstring line; any other line that holds part of a
token is code (a comment after code included, and every line of a string
that is not a docstring); a line that holds a comment alone is a comment
line; the rest are blank.  So the four counts of a file sum to its lines.

Usage, from any directory::

    python tools/src_lines.py [--against REV_OR_CHECKOUT]

With ``--against``, the same table follows for the change to the working tree
from a checkout directory of the repository (one that holds ``src/gentropies``),
or else from a git revision, read through ``git show REV:path``: a module that
exists on one side only counts as empty on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/gentropies"
KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def split(source: str) -> dict[str, int]:
    """The number of lines of each kind (see the module docstring) in ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    skip = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in skip:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if line in docstrings else "code" if line in code
                else "comment" if line in comments else "blank")
        counts[kind] += 1
    return counts


def _sources(against: str | None) -> dict[str, str]:
    """Module file name -> source, in the working tree, in the checkout directory
    ``against`` or at the git revision ``against``."""
    if ((root := ROOT if against is None else Path(against)) / PACKAGE).is_dir():
        return {path.name: path.read_text() for path in sorted((root / PACKAGE).glob("*.py"))}
    names = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "--name-only",
                            f"{against}:{PACKAGE}"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {name: subprocess.run(["git", "-C", str(ROOT), "show", f"{against}:{PACKAGE}/{name}"],
                                 capture_output=True, text=True, check=True).stdout
            for name in names if name.endswith(".py")}


def _table(rows: dict[str, dict[str, int]], signed: bool = False) -> str:
    """One line per module and a total, with the line count and the four kinds."""
    total = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    number = "{:>+10,}" if signed else "{:>10,}"
    lines = [f"{'module':<16}{'lines':>10}" + "".join(f"{kind:>10}" for kind in KINDS)]
    for name, row in [*rows.items(), ("total", total)]:
        lines.append(f"{name:<16}" + "".join(number.format(n) for n in
                                             [sum(row.values()), *(row[k] for k in KINDS)]))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV_OR_CHECKOUT",
                        help="also print the change from a git revision or a checkout directory")
    args = parser.parse_args(argv)
    now = {name: split(source) for name, source in _sources(None).items()}
    print(_table(now))
    if args.against is not None:
        before = {name: split(source) for name, source in _sources(args.against).items()}
        empty = dict.fromkeys(KINDS, 0)
        change = {name: {k: now.get(name, empty)[k] - before.get(name, empty)[k] for k in KINDS}
                  for name in sorted({*now, *before})}
        print(f"\nchange from {args.against}:")
        print(_table(change, signed=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
