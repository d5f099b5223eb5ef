"""Run a fixed list of splittrap command lines and keep everything each one writes.

    python tools/cli_outputs.py OUT_DIR [NAME ...]

Each entry of ``COMMANDS`` (all of them, or the NAMEs given) runs as
``python -m splittrap ...`` in a fresh interpreter that imports this
checkout's ``src``, with BLAS pinned to one thread and help text
wrapped at 80 columns.  It runs in its own new directory
``OUT_DIR/NAME``; every ``--out`` is a bare file name, so the main
table, its sidecars and its failure manifest land there, next to the
files ``stdout``, ``stderr`` and ``exit`` (the exit code).  The outputs
of two checkouts then compare byte for byte:

    python tools/cli_outputs.py /tmp/before     # from one checkout
    python tools/cli_outputs.py /tmp/after      # from the other
    diff -r /tmp/before /tmp/after

The list holds the command shapes of the benchmark's three workloads,
with fixed barriers, and every subcommand and output kind besides:
``tonks`` and ``dvr`` with every output and ``--out``, ``tonks`` on a
mesh out to |x| = 40, where the orbitals underflow, a two-worker
``dvr`` run, a JSON ``dvr`` run on the default mesh, whose
``near_degenerate`` reads the gap, the ``sweep --mode`` alias, the Tonks
entropy landmarks from kappa = 0 to inf, a run that exits 2,
a ``--k-span`` so large its grid overflows and one whose grid is finite
but whose phases k x overflow on the mesh, both of which exit 1,
``spectrum`` (also with 8200 levels), ``units`` as text and as JSON, a
JSON ``tonks`` run of the energy alone, which loads no numpy, and the
``tonks`` and ``dvr`` help texts, which print each route's default mesh.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"}

COMMANDS = {
    "dvr-sweep": "sweep --mode dvr --kappa 0.0 3.49508 13.0381 14.3229 "
                 "--g1d 0.0 1.0 5.0 20.0 500.0 --n-points 81 --dx 0.16 "
                 "--outputs energy,entropy,schmidt --format csv --out sweep.csv",
    "tonks-dense": "tonks --kappa 0.0 inf 51.231 95.0513 --n-points 1201 --dx 0.01 "
                   "--k-points 401 --k-span 8.0 --outputs energy,entropy,schmidt,momentum "
                   "--format json --out sweep.json",
    "tonks-all": "tonks --kappa 0 0.3 1 3.3 10 inf "
                 "--outputs energy,rspd,momentum,entropy,schmidt --out tonks.csv",
    # A 1601 / 0.05 mesh out to |x| = 40, where phi_0 underflows to 0.
    "tonks-wide": "tonks --kappa 0 7 1e13 inf --n-points 1601 --dx 0.05 "
                  "--outputs energy,momentum,rspd --out wide.csv",
    "dvr-all": "dvr --kappa 0 2.5 inf --g1d 0 3 inf "
               "--outputs energy,rspd,momentum,entropy,schmidt --out dvr.csv",
    "dvr-workers": "dvr --kappa 0 1 3.3 inf --g1d 0 1 5 500 inf "
                   "--outputs energy,entropy,schmidt,momentum --workers 2 --format json",
    # The default 81 / 0.16 mesh, where the gap at (inf, 0) is 9.5e-5.
    "dvr-json": "dvr --kappa 0 1 10 inf --g1d 0 0.0001 5 inf --format json --out dvr.json",
    "sweep-alias": "sweep --mode tonks --kappa 0 1 2 inf --outputs energy,entropy,schmidt",
    "tonks-energy": "tonks --kappa 0 1 inf --outputs energy --format json --out tonks.json",
    # Momentum reads the pair density on the mesh, which is too coarse: exit 2.
    "tonks-coarse": "tonks --kappa 0 1 5 --n-points 13 --dx 1.0 --outputs energy,momentum "
                    "--out coarse.csv",
    # The entropy landmarks of the hard-core pair, from kappa = 0 to inf.
    "tonks-landmarks": "tonks --kappa 0 1 1.33 3.4 10 95.0513 10000 1000000 inf "
                       "--outputs energy,entropy,schmidt --format json",
    # 2 * span overflows: one error line and exit 1 before any point runs.
    "kspan-overflow": "dvr --kappa 1 --g1d 1 --n-points 41 --dx 0.3 --outputs momentum "
                      "--format json --k-span 1e308",
    # 2 * span is finite but k x on the mesh is not: the same, exit 1.
    "kspan-phase-overflow": "dvr --kappa 1 --g1d 1 --n-points 41 --dx 0.3 --outputs momentum "
                            "--format json --k-span 8.98e307",
    "spectrum": "spectrum --kappa 0 0.5 1 inf --levels 6 --out levels.csv",
    # The 60 drawn barriers of sweep 0 of a levels benchmark run with seed 1.
    "levels": "spectrum --kappa 0.0 inf 3.62333 565.351 0.0525773 553.665 0.362374 1.30807 "
              "137.567 1.11172 5.59717 0.013734 58.5552 4.90588 0.445306 87.5273 0.328076 "
              "1.85135 0.046796 1.03649 0.104058 0.204912 56.4707 0.252374 2.66658 801.099 "
              "643.111 42.0678 5.08317 0.242357 0.0635711 707.338 3.8049 0.0379602 13.1054 "
              "76.4567 11.6149 385.912 0.0157748 4.39487 1.98006 0.0204997 16.0931 183.301 "
              "9.21945 0.19975 158.273 3.5276 3.58463 58.2306 0.0549048 125.353 26.0876 "
              "86.1955 0.090799 102.759 0.090494 0.0255719 188.858 202.496 241.371 2.28849 "
              "--levels 10 --format csv --out sweep.csv",
    "spectrum-high": "spectrum --kappa 1 --levels 8200",
    "units": "units --omega-perp 6e5 --omega 6e3 --mass 1.45e-25 --a3d 5e-9",
    "units-json": "units --omega-perp 6e5 --omega 6e3 --mass 1.45e-25 --a3d 5e-9 --format json",
    "tonks-help": "tonks --help",
    "dvr-help": "dvr --help",
}


def run(name, out_dir):
    """Run ``COMMANDS[name]`` in ``out_dir/name``, keep its streams, and return its exit code."""
    where = Path(out_dir) / name
    where.mkdir(parents=True)
    env = {**os.environ, **PINNED, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "splittrap", *shlex.split(COMMANDS[name])],
                          cwd=where, env=env, capture_output=True, timeout=600)
    (where / "stdout").write_bytes(proc.stdout)
    (where / "stderr").write_bytes(proc.stderr)
    (where / "exit").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python tools/cli_outputs.py OUT_DIR [NAME ...]", file=sys.stderr)
        return 1
    names = argv[1:] or list(COMMANDS)
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        print(f"unknown command names {unknown}; known: {list(COMMANDS)}", file=sys.stderr)
        return 1
    for name in names:
        print(f"{name}: exit {run(name, argv[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
