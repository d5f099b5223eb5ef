"""Line counts of the package sources, per module and in total.

Prints two numbers for each module under ``src/splittrap``: its
``wc -l`` (every line), and its code lines, the lines left after
dropping blank lines, lines that hold only a ``#`` comment, and the
line spans of the module, class and function docstrings.

    python tools/count_lines.py [directory]
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "splittrap"


def _docstring_lines(tree):
    # Line numbers of every docstring: the leading string constant of a
    # module, class or function body.
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(wc -l, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = _docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, start=1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else SRC
    totals = [0, 0]
    print(f"{'module':<24}{'wc -l':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<24}{counts[0]:>8}{counts[1]:>8}")
    print(f"{'total':<24}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
