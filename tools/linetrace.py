"""Line trace of ``src/gentropies`` under the tier-1 tests, without ``coverage``.

Runs pytest in this process with a ``sys.settrace`` line counter on the
package's files, then lists every statement inside a function that never
ran, and every function whose body never ran.  Code that only runs in a
child interpreter (the CLI tests that start one) is not seen: the package's
``__dir__``, and ``cli.console_main``, which ends its process and so is never
called in this one, are listed as never run.

Usage, from the repository root::

    PYTHONPATH=src python tools/linetrace.py [pytest arguments]

With no arguments it runs the tier-1 command's tests (``-q
--continue-on-collection-errors``).  The exit status is 0 when the tests pass
and every statement inside a function ran, else 1.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gentropies"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose events show that ``stmt`` ran: all of a simple
    statement, the header of a compound one (decorators included)."""
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
    return range(first, max(first, last) + 1)


def _body(node: ast.AST):
    """The statements of a function, its nested blocks included, but not
    those of nested functions or classes (they are functions of their own)."""
    stmts = [s for field in ("body", "orelse", "finalbody") for s in getattr(node, field, ())]
    stmts += [s for h in getattr(node, "handlers", ()) for s in h.body]
    stmts += [s for c in getattr(node, "cases", ()) for s in c.body]
    for stmt in stmts:
        yield stmt
        if not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
            yield from _body(stmt)


def _functions(path: Path):
    """(qualified name, def line, statements) of every function in ``path``;
    a docstring is no statement, and a ``try`` shows only in its body."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}{getattr(child, 'name', '')}"
            if isinstance(child, FUNCTIONS):
                stmts = [s for s in _body(child) if not isinstance(s, ast.Try)]
                doc = child.body[0]
                if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant):
                    stmts = [s for s in stmts if s is not doc]
                yield name, child.lineno, stmts
            yield from walk(child, f"{name}." if isinstance(child, (*FUNCTIONS, ast.ClassDef))
                            else prefix)

    return list(walk(ast.parse(path.read_text(), str(path)), ""))


def trace(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` and return its exit code and the lines that ran, per file."""
    import pytest

    root, seen = str(PACKAGE), defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def report(seen: dict[str, set[int]]) -> tuple[list[str], list[str]]:
    """The statements inside functions that never ran, and the functions that never ran."""
    unrun, uncalled = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = seen.get(str(path), set())
        rel = path.relative_to(PACKAGE.parent.parent)
        for name, line, stmts in _functions(path):
            missed = [s for s in stmts if lines.isdisjoint(_own_lines(s))]
            if stmts and len(missed) == len(stmts):
                uncalled.append(f"{rel}:{line}: {name}")
            else:
                unrun += [f"{rel}:{s.lineno}: in {name}" for s in missed]
    return unrun, uncalled


def main(argv: list[str]) -> int:
    code, seen = trace(argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    unrun, uncalled = report(seen)
    print(f"\nline trace of {PACKAGE.relative_to(PACKAGE.parent.parent)}: "
          f"{len(unrun)} unrun statements inside functions, {len(uncalled)} functions never run")
    for line in unrun:
        print("  unrun:", line)
    for line in uncalled:
        print("  never run:", line)
    return 0 if code == 0 and not unrun else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
