"""List the statements of src/samt that a pytest run did not execute.

Run as ``python tests/uncovered.py [PYTEST ARGS]`` from any directory;
with no arguments it runs the suite pytest's configuration names.
pytest runs in this process under `sys.settrace` and `threading.settrace`,
with this tree's ``src/`` first on the import path and the stdlib as the
only tracer.  Afterwards each statement of ``src/samt`` that did not run
prints as ``module.py:LINE: source``, then a count line.  `def`, `class`
and import statements and docstrings are left out: they run at import.
The exit code is pytest's.

Code a test runs in another process, such as ``samt`` started through
`subprocess`, is not seen, so its statements are listed even when that
test runs them.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "samt"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)  # the statements that can open with a docstring
SKIPPED = (*SCOPES, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statement_lines(source: str) -> set[int]:
    """First lines of the statements that run when the code around them
    runs: every statement but `def`, `class`, imports and docstrings."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, *SCOPES)) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                docstrings.add(body[0])
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED) and node not in docstrings
    }


def run_traced(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines of each package file that ran."""
    ran = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local_tracer(lines):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        return trace

    tracers = {}  # co_filename as imported: its lines' tracer, or None outside the package

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            lines = ran.get(os.path.realpath(filename))
            tracers[filename] = None if lines is None else local_tracer(lines)
        return tracers[filename]

    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return int(code), ran


def main(argv=None) -> int:
    code, ran = run_traced(sys.argv[1:] if argv is None else argv)
    missed = total = 0
    for filename in sorted(ran):
        path = Path(filename)
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        statements = statement_lines(source)
        total += len(statements)
        for lineno in sorted(statements - ran[filename]):
            missed += 1
            print(f"{path.name}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} of {total} statements in src/samt did not run")
    return code


if __name__ == "__main__":
    sys.exit(main())
