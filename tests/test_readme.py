"""The README's library quick start and command lines run against the current API."""

import re
import shlex
from pathlib import Path

from splittrap import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "3.0"
    assert abs(float(lines[-1]) - 3.0) <= 2e-4


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # Each documented command line parses and runs, from a directory that
    # holds a small version of the config file the sweep line names.
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text("mode = spectrum\nkappa = 0, 1\nlevels = 2\n")
    for tokens in commands:
        assert cli.main(tokens[tokens.index("splittrap") + 1:]) == 0, tokens
