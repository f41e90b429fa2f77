"""List each statement of ``src/ncphase`` that no tier-1 test runs in process.

Runs the tier-1 suite under a ``sys.settrace`` line tracer and prints, for
every statement of the package's source that never produced a line event,
``file:line: source text``.  Code that only a child process runs (the CLI's
``__main__`` guard, its broken-pipe handling) shows up here too, since the
tracer sees only this process.  No coverage package is needed.

Usage, from anywhere:

    python tests/tools/trace_statements.py [extra pytest arguments]

Tracing slows the suite about threefold (about a minute on a 2-vCPU VM).
The script is not collected by tier-1; it exits 1 if any test failed and
0 otherwise, whatever it lists.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "ncphase"


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, the lines whose events count as running it) of each statement of ``path``.

    A simple statement counts on any of its lines; a compound one on its
    header (decorators included), up to its first body statement.  ``try``
    and a function's docstring compile to no line event, so neither is listed.
    """
    tree = ast.parse(path.read_text(), str(path))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {f.body[0] for f in functions if ast.get_docstring(f, clean=False) is not None}
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        children = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        last = min(c.lineno for c in children) - 1 if children else node.end_lineno
        spans.append((node.lineno, range(first, max(first, last) + 1)))
    return sorted(spans, key=lambda s: s[0])


class _NoDeadline:
    """Tracing is slow enough to trip hypothesis deadlines, which would only add shrinking time."""

    @staticmethod
    def pytest_configure(config) -> None:
        import hypothesis

        hypothesis.settings.register_profile("trace_statements", deadline=None)
        hypothesis.settings.load_profile("trace_statements")


def main(argv: list[str]) -> int:
    hit: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv], plugins=[_NoDeadline()]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for lineno, span in statements(path):
            if not any((str(path), n) in hit for n in span):
                missed.append(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"\n{len(missed)} statements of {PACKAGE.relative_to(ROOT)} never ran in process:")
    print("\n".join(missed))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
