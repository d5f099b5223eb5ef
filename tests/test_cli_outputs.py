"""tools/cli_outputs.py: a listed command line runs and leaves its streams, exit code and files."""

import importlib.util
import shlex
from pathlib import Path

from splittrap import cli, dvr

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
_SPEC = importlib.util.spec_from_file_location("cli_outputs", _SCRIPT)
cli_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_outputs)


def test_spectrum_entry_keeps_its_outputs(tmp_path, capsys):
    assert cli_outputs.main([str(tmp_path), "spectrum"]) == 0
    assert capsys.readouterr().out == "spectrum: exit 0\n"
    run = tmp_path / "spectrum"
    assert sorted(p.name for p in run.iterdir()) == ["exit", "levels.csv", "stderr", "stdout"]
    assert (run / "exit").read_text() == "0\n"
    assert (run / "stdout").read_bytes() == (run / "stderr").read_bytes() == b""
    lines = (run / "levels.csv").read_text().splitlines()
    assert lines[0] == "kappa,level,parity,n,energy"
    assert len(lines) == 1 + 4 * 6


def test_unknown_names_are_rejected(tmp_path):
    assert cli_outputs.main([str(tmp_path), "no-such-run"]) == 1
    assert not any(tmp_path.iterdir())


def test_dvr_sweep_entry_inverse_applications(monkeypatch, tmp_path):
    # A machine-independent cost of the grid route: the dvr-sweep entry (20
    # points on 81 / 0.16, CSV, so ground runs only) applies the sector
    # inverses at most 160 times, counted through the module-global
    # LinearOperator that the benchmark tracer wraps.  The shift
    # 2 eps_0 - 1/16 takes 152; 2 eps_0 - 1/2 took 202.
    applications = 0
    real_operator = dvr.LinearOperator

    def counting(shape, matvec):
        op = real_operator(shape, matvec)

        def apply(b):
            nonlocal applications
            applications += 1
            return op(b)

        return apply

    monkeypatch.setattr(dvr, "LinearOperator", counting)
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(cli_outputs.COMMANDS["dvr-sweep"])) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 20
    assert applications <= 160


def test_bytes_do_not_depend_on_the_blas_thread_count(monkeypatch, tmp_path):
    # The Tonks entropy landmarks, the two JSON grid entries, one of them
    # on two workers, and the grid entry with every output, whose rspd and
    # momentum sidecars and (inf, 0) amplitudes are formed on read, under
    # the pinned one BLAS thread and under two.
    names = ["tonks-landmarks", "dvr-json", "dvr-workers", "dvr-all"]
    one, two = tmp_path / "one", tmp_path / "two"
    assert cli_outputs.main([str(one), *names]) == 0
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setitem(cli_outputs.PINNED, variable, "2")
    assert cli_outputs.main([str(two), *names]) == 0
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    for name in files:
        assert (two / name).read_bytes() == (one / name).read_bytes(), name
