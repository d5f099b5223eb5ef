"""The benchmark tracer's hooks resolve, and its tallies count a traced run.

``bench/tracer.py`` replaces the functions in its ``TARGETS`` table, and
``dvr.LinearOperator`` and ``dvr.eigsh``, with timed wrappers; a missing
name, or a result its tallies can no longer read, would only surface
when a traced benchmark run fails.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

# Installs the tracer on this checkout's package and runs three commands
# through cli.main, their output sent to stderr; prints the exit codes
# and the tracer's metrics as one JSON line.  Nothing is written to bench/.
TRACED_RUN = """
import contextlib, json, sys
sys.dont_write_bytecode = True
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from splittrap import cli
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
commands = (
    ["tonks", "--kappa", "1", "--outputs", "energy,momentum", "--format", "json"],
    ["dvr", "--kappa", "1", "--g1d", "1", "--n-points", "41", "--dx", "0.2"],
    ["spectrum", "--kappa", "0.5", "--levels", "4"],
)
with contextlib.redirect_stdout(sys.stderr):
    codes = [cli.main(argv) for argv in commands]
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""


def _hooked_names():
    # Executed from source, so nothing is written next to the tracer.
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    targets = [(module, attr) for module, attr, _ in namespace["TARGETS"]]
    return targets + [("dvr", "LinearOperator"), ("dvr", "eigsh")]


@pytest.mark.parametrize("module_name,attr", _hooked_names())
def test_tracer_hooks_resolve(module_name, attr):
    module = importlib.import_module(f"splittrap.{module_name}")
    assert callable(getattr(module, attr, None)), f"splittrap.{module_name}.{attr} is gone"


def test_traced_run_counts_every_layer(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "bench")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    metrics = report["metrics"]
    for counter in ("specfun.kummer_u.points", "tonks.tonks_rspd.flops",
                    "analysis.momentum_distribution.retained_orbitals", "dvr.matvec.calls",
                    "single_particle.even_energy.calls"):
        assert metrics.get(counter, 0) > 0, counter
    # The one-point tonks command forms its density through the hooked
    # tonks_rspd exactly once; the tonks_rspd metrics read that call.
    assert metrics["tonks.tonks_rspd.calls"] == 1
    # The one-point dvr command solves its ground state by one Krylov run
    # through the hooked eigsh; a seam that bound eigsh when it was defined
    # would read 0 here.
    assert metrics["dvr.eigensolver.calls"] == 1
    # The CLI reads dvr.ground_state when the point runs, so the hooked
    # grid route times that one point.
    assert metrics.get("dvr.ground_state.calls", 0) == 1
