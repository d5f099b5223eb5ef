"""tools/reached.py: the statements of a package that a pytest run never reaches."""

import importlib.util
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "reached.py"
_SPEC = importlib.util.spec_from_file_location("reached", _SCRIPT)
reached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reached)

TINY = '''"""Module
docstring."""

import math


class A:
    """One line."""

    value = 1


def covered(x):
    if (x
            and True):
        return 1
    return (
        2
    )


def never():
    """Doc."""
    global G
    total = 0
    for i in range(3):
        total += i
    return total
'''


def test_statements_skip_docstrings_defs_classes_and_imports(tmp_path):
    source = tmp_path / "tiny.py"
    source.write_text(TINY)
    found = reached.statements(source)
    assert sorted(found) == [10, 14, 16, 17, 25, 26, 27, 28]
    # A compound statement's header is its lines before its body; a
    # simple statement is all of its lines.
    assert list(found[14]) == [14, 15]
    assert list(found[17]) == [17, 18, 19]
    assert list(found[26]) == [26]


def test_main_lists_what_a_run_never_reaches(tmp_path, capsys, monkeypatch):
    package = tmp_path / "reach_tiny_pkg"
    package.mkdir()
    (package / "tiny.py").write_text(TINY)
    (tmp_path / "test_reach_tiny.py").write_text(
        "from reach_tiny_pkg import tiny\n\n\n"
        "def test_covered():\n"
        "    assert tiny.covered(True) == 1\n"
    )
    monkeypatch.setattr(sys, "path", sys.path[:])
    try:
        code = reached.main([str(tmp_path / "test_reach_tiny.py"), "-q", "-p", "no:cacheprovider"],
                            root=package)
    finally:
        sys.modules.pop("reach_tiny_pkg.tiny", None)
        sys.modules.pop("reach_tiny_pkg", None)
        sys.modules.pop("test_reach_tiny", None)
    assert code == 0
    report = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[0].rsplit(":", 1)[1] for line in report[-6:-1]] == [
        "17", "25", "26", "27", "28"]
    assert report[-6].endswith("tiny.py:17: return (")
    assert report[-1] == "5 statements never ran"
