"""tools/count_lines.py: the wc -l and code-line counts of the package sources."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _SCRIPT)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)


def test_counts_skip_docstrings_comments_and_blank_lines(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "import math  # a trailing comment keeps the line\n"
        "\n"
        "# a comment line\n"
        "class A:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n'
        '        lines."""\n'
        '        return "not a docstring"\n'
    )
    assert count_lines.count(source) == (13, 4)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert count_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "3", "2"], ["b.py", "2", "1"], ["total", "5", "3"]]
