"""Delete each statement of ``src/ncphase`` in turn and list the deletions no test notices.

A mutant replaces one statement inside a function body with ``pass``; a
compound statement goes with its whole block.  Returns, nested ``def`` and
``class`` statements, imports and docstrings are left alone.  For each
mutant the module's own test file runs first, then the whole tier-1 suite,
each with ``-x``.  A mutant that passes both survives and is printed as
``file:line: source text``.  A survivor listed in ``EQUIVALENT`` changes no
output by design and is printed with that reason instead.

Usage, from anywhere:

    python tests/tools/delete_statements.py

It sweeps every module of ``MODULE_TESTS`` with ``WORKERS`` parallel test
runs.  Each worker copies ``src/`` once into a temporary directory and
mutates only its copy; the tests run from the repository against that copy,
with hypothesis deadlines off and its example database in the copy.  The
whole sweep takes about 20 minutes on a 2-vCPU VM.  The script is not collected by
tier-1.  It exits 2 if the unmutated suite fails, 1 if a survivor is not
in ``EQUIVALENT``, and 0 otherwise.
"""

from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "ncphase"

#: Each swept module and the test file that runs first on its mutants.
MODULE_TESTS = {
    "__init__": "tests/test_cli.py",
    "cli": "tests/test_cli.py",
    "dynamics": "tests/test_dynamics.py",
    "representation": "tests/test_representation.py",
    "composite": "tests/test_composite.py",
    "algebra": "tests/test_algebra.py",
    "reports": "tests/test_reports.py",
}

#: (module, source text of the statement) -> why deleting it changes no output.
EQUIVALENT: dict[tuple[str, str], str] = {}

#: Runs pytest with hypothesis deadlines off: two workers on two cores slow
#: every test, and a missed deadline would count as a kill.
_PYTEST = """
import sys, pytest

class NoDeadline:
    @staticmethod
    def pytest_configure(config):
        import hypothesis

        hypothesis.settings.register_profile("sweep", deadline=None)
        hypothesis.settings.load_profile("sweep")

sys.exit(pytest.main(sys.argv[1:], plugins=[NoDeadline()]))
"""
#: Parallel test runs: two, or one on a single core.
WORKERS = min(2, os.cpu_count() or 1)
#: Longest a test run may take before the mutant counts as killed (a loop that never ends).
TIMEOUT_S = 600


def statements(path: Path) -> list[ast.stmt]:
    """Every statement inside a function body of ``path`` that the sweep deletes, in source order."""
    tree = ast.parse(path.read_text(), str(path))
    skip = (ast.Return, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Pass)
    found = []

    def visit(body: list[ast.stmt], first_is_docstring: bool) -> None:
        for i, node in enumerate(body):
            docstring = first_is_docstring and i == 0 and isinstance(node, ast.Expr) and (
                isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or docstring:
                continue  # a nested def is visited as a function of its own
            if not isinstance(node, skip):
                found.append(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ExceptHandler):
                    visit(child.body, False)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), False)
            for case in getattr(node, "cases", []):
                visit(case.body, False)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node.body, True)
    return sorted(found, key=lambda n: (n.lineno, n.col_offset))


def deleted(source: str, node: ast.stmt) -> str:
    """``source`` with ``node``'s text replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    head = lines[node.lineno - 1][: node.col_offset]
    tail = lines[node.end_lineno - 1][node.end_col_offset:]
    return "".join(lines[: node.lineno - 1]) + head + "pass" + tail + "".join(lines[node.end_lineno:])


def passes(copy: Path, tests: list[str]) -> bool:
    """Whether ``tests`` pass, with ``-x``, against the package in ``copy``."""
    env = dict(
        os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
        HYPOTHESIS_STORAGE_DIRECTORY=str(copy / ".hypothesis"),
    )
    argv = [sys.executable, "-c", _PYTEST, "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main() -> int:
    mutants = []
    for module in MODULE_TESTS:
        path = PACKAGE / f"{module}.py"
        source = path.read_text()
        for node in statements(path):
            text = ast.get_source_segment(source, node).splitlines()[0].strip()
            mutants.append((module, node.lineno, text, deleted(source, node)))

    with tempfile.TemporaryDirectory(prefix="delete_statements-") as scratch:
        copies = queue.Queue()
        for i in range(WORKERS):
            copy = Path(scratch) / f"worker{i}"
            shutil.copytree(ROOT / "src", copy / "src")
            copies.put(copy)
        base = copies.get()
        if not passes(base, ["tests"]):
            print("the unmutated suite fails; no mutant was run", file=sys.stderr)
            return 2
        copies.put(base)

        def survives(mutant) -> bool:
            module, lineno, text, source = mutant
            copy = copies.get()
            target = copy / "src" / "ncphase" / f"{module}.py"
            original = target.read_text()
            try:
                target.write_text(source)
                survived = passes(copy, [MODULE_TESTS[module]]) and passes(copy, ["tests"])
            finally:
                target.write_text(original)
                copies.put(copy)
            print(f"{'survived' if survived else 'killed':8} {module}.py:{lineno}: {text}", file=sys.stderr)
            return survived

        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(survives, mutants))

    survivors = [m for m, survived in zip(mutants, outcomes) if survived]
    unexplained = 0
    print(f"{len(mutants)} mutants: {len(mutants) - len(survivors)} killed, {len(survivors)} survived")
    for module, lineno, text, _ in survivors:
        reason = EQUIVALENT.get((module, text))
        unexplained += reason is None
        print(f"src/ncphase/{module}.py:{lineno}: {text}" + (f"  (equivalent: {reason})" if reason else ""))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
