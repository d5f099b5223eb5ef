"""The statements of the package sources that a pytest run never reaches.

    python tools/reached.py [pytest args]

Puts a line hook (``sys.settrace`` and ``threading.settrace``) on the
modules under ``src/splittrap``, runs pytest in this process with the
given arguments, and prints each statement that never ran, as
``path:line: source``, then a count.  Docstrings, ``def``, ``class``,
imports, ``global`` and ``nonlocal`` are not listed.  A statement counts
as run when any line of its header (all of a simple statement, or a
compound statement's lines before its body) raised a line event.  Code
run only in a subprocess, a ``python -m splittrap`` run or a process-pool
worker, is not seen, so a ``__main__`` guard shows as never run.  The
exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "splittrap"
_NOT_LISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
               ast.Global, ast.Nonlocal)


def statements(path):
    """{first line: its header lines} for each listed statement of one source file."""
    tree = ast.parse(path.read_text())
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_LISTED) or node in docstrings:
            continue
        body = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = min(body) - 1 if body else node.end_lineno
        found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def _line_hook(lines):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    return trace


def run(root, pytest_args):
    """Run pytest in this process with the hook on ``root/*.py``.

    Returns pytest's exit code and {path: the statement lines that never
    ran}, for every module under ``root`` with one at least.
    """
    paths = sorted(Path(root).resolve().glob("*.py"))
    hits = {str(path): set() for path in paths}
    hooks = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in hooks:
            lines = hits.get(os.path.realpath(filename))
            hooks[filename] = None if lines is None else _line_hook(lines)
        return hooks[filename]

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    missed = {}
    for path in paths:
        ran = hits[str(path)]
        lines = [first for first, header in statements(path).items() if ran.isdisjoint(header)]
        if lines:
            missed[path] = sorted(lines)
    return int(code), missed


def main(argv=None, root=SRC):
    argv = sys.argv[1:] if argv is None else argv
    code, missed = run(root, argv)
    total = 0
    for path, lines in missed.items():
        source = path.read_text().splitlines()
        for line in lines:
            print(f"{os.path.relpath(path)}:{line}: {source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
