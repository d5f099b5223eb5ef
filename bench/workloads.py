"""The three benchmark workloads: seeded CLI inputs, and what each sweep holds.

Each sweep is one ``splittrap`` command line.  Sweep ``i`` of a run with
seed ``s`` draws its barrier strengths from ``numpy.random.default_rng([s, i])``,
so every sweep sees fresh kappa values and two programs given the same
seed and sweep count see exactly the same inputs.  Drawn values are
rounded to 6 significant digits so that the command lines stay readable;
the rounded value is what the program and the reference both use.
"""

import math
from dataclasses import dataclass

import numpy as np

DVR_COUPLINGS = (0.0, 1.0, 5.0, 20.0, 500.0)
DVR_MESH = (81, 0.16)
TONKS_MESH = (1201, 0.01)
TONKS_K_POINTS = 401
TONKS_K_SPAN = 8.0
LEVELS = 10


def _label(value):
    return "inf" if math.isinf(value) else repr(value)


def _round6(values):
    return [float(f"{v:.6g}") for v in values]


@dataclass(frozen=True)
class Sweep:
    """One sweep: the CLI argv, the inputs it encodes, and its point count."""

    argv: tuple
    out: str
    kappas: tuple
    couplings: tuple
    points: int


@dataclass(frozen=True)
class Workload:
    """A named workload, the smallest valid call of its subcommand, and the
    nominal cost of one cycle (a sweep and its check) used to plan a run."""

    name: str
    draw: object  # (rng, out_dir) -> Sweep
    setup_argv: tuple
    cycle_s: float

    def sweep(self, seed, index, out_dir):
        """Sweep ``index`` of a run with ``seed``, writing into ``out_dir``."""
        return self.draw(np.random.default_rng([seed, index]), out_dir)


def _dvr_sweep(rng, out_dir):
    out = str(out_dir / "sweep.csv")
    # One kappa from each third of [0.1, 20]: the Krylov cost falls with
    # kappa, so stratifying keeps the work of one sweep close to the next.
    edges = np.linspace(0.1, 20.0, 4)
    kappas = [0.0] + _round6(rng.uniform(edges[:-1], edges[1:]))
    n, dx = DVR_MESH
    argv = (
        "sweep", "--mode", "dvr",
        "--kappa", *map(_label, kappas),
        "--g1d", *map(_label, DVR_COUPLINGS),
        "--n-points", str(n), "--dx", str(dx),
        "--outputs", "energy,entropy,schmidt",
        "--format", "csv", "--out", out,
    )
    return Sweep(argv, out, tuple(kappas), DVR_COUPLINGS, len(kappas) * len(DVR_COUPLINGS))


def _tonks_dense(rng, out_dir):
    out = str(out_dir / "sweep.json")
    kappas = [0.0, math.inf] + _round6(rng.uniform(0.1, 100.0, 2))
    n, dx = TONKS_MESH
    argv = (
        "tonks",
        "--kappa", *map(_label, kappas),
        "--n-points", str(n), "--dx", str(dx),
        "--k-points", str(TONKS_K_POINTS), "--k-span", str(TONKS_K_SPAN),
        "--outputs", "energy,entropy,schmidt,momentum",
        "--format", "json", "--out", out,
    )
    return Sweep(argv, out, tuple(kappas), (), len(kappas))


def _levels(rng, out_dir):
    out = str(out_dir / "sweep.csv")
    drawn = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), 60))
    kappas = [0.0, math.inf] + _round6(drawn)
    argv = (
        "spectrum",
        "--kappa", *map(_label, kappas),
        "--levels", str(LEVELS),
        "--format", "csv", "--out", out,
    )
    return Sweep(argv, out, tuple(kappas), (), len(kappas))


# Cycle costs are set 8 to 14% above the median sweep on the reference
# machine (README.md: about 2.2 s, 2.0 s and 1.9 s), so that a run of
# this code replays every planned sweep in about --seconds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dvr-sweep", _dvr_sweep,
                 ("sweep", "--mode", "dvr", "--kappa", "0", "--g1d", "0",
                  "--n-points", "3", "--dx", "0.16"), 2.5),
        Workload("tonks-dense", _tonks_dense, ("tonks", "--kappa", "0", "--outputs", "energy"), 2.15),
        Workload("levels", _levels, ("spectrum", "--kappa", "0", "--levels", "1"), 2.1),
    )
}
