"""Reference values computed apart from splittrap, and the check of each sweep.

Nothing here imports splittrap.  Even single-particle levels are roots of

    h(E) = 2 / Gamma(1/4 - E/2) + kappa / Gamma(3/4 - E/2),

which is the gamma-ratio relation -kappa = 2 Gamma(3/4 - E/2) / Gamma(1/4 - E/2)
multiplied through by 1 / Gamma(3/4 - E/2).  h is entire and changes sign
across [2j + 1/2, 2j + 3/2], so scipy's brentq finds the root from the
exact level bracket with no inset and no pole handling.

Each ``check_*`` function reads the CLI output of one sweep and returns
the list of misses; an empty list means the sweep passed.
"""

import csv
import json
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import dawsn, rgamma

from workloads import LEVELS

# The CLI prints 12 significant digits; allow twice that rounding.
PRINT_REL = 1e-11
# dvr-sweep, 81 / 0.16 mesh.  Measured at kappa <= 20: kappa = 0 row
# within 1.5e-5 of the exact relative-coordinate level, g = 0 column
# within 1.8e-4 of 2 eps_0, hard-core ceiling exceeded by at most 7.4e-5
# (g = 500).  The unrenormalized couplings miss the kappa = 0 row by
# 3.8e-3 to 2.6e-2.
DVR_CONTACT_TOL = 1e-4
DVR_PRODUCT_TOL = 5e-4
DVR_CEILING_SLACK = 5e-4
DVR_MONOTONE_SLACK = 1e-10
# tonks-dense, 1201 / 0.01 mesh, k in [-8, 8] on 401 points.  The
# kappa = inf profile sits 6.0e-6 from the closed form; the k window cuts
# a 1/k^4 tail that holds 3.5e-4 to 5.0e-4 of the norm.
MOMENTUM_TOL = 1e-5
MOMENTUM_NORM_TOL = 1e-3
ENTROPY_FREE = 0.985  # paper value of S at kappa = 0, hard core
ENTROPY_FREE_TOL = 5e-3
ENTROPY_SPLIT_TOL = 1e-8


def even_level(kappa, j):
    """j-th even single-particle level at barrier strength kappa."""
    if kappa == 0.0:
        return 2.0 * j + 0.5
    if math.isinf(kappa):
        return 2.0 * j + 1.5

    def h(e):
        return 2.0 * rgamma(0.25 - 0.5 * e) + kappa * rgamma(0.75 - 0.5 * e)

    return brentq(h, 2.0 * j + 0.5, 2.0 * j + 1.5,
                  xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200)


def tg_momentum_infinite_barrier(k):
    """Hard-core pair momentum density at kappa = inf, via Dawson's integral."""
    bracket = 1.0 - math.sqrt(2.0) * k * dawsn(k / math.sqrt(2.0))
    return (2.0 / math.pi**1.5) * (bracket**2 + 0.5 * math.pi * k * k * np.exp(-k * k))


def _label(kappa):
    return "inf" if math.isinf(kappa) else f"{kappa:.12g}"


def _close(value, reference):
    return abs(value - reference) <= PRINT_REL * max(1.0, abs(reference))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_levels(sweep, path):
    rows = _read_csv(path)
    if len(rows) != len(sweep.kappas) * LEVELS:
        return [f"{len(rows)} rows for {len(sweep.kappas)} barriers x {LEVELS} levels"]
    # The lowest LEVELS of the even levels j = 0..LEVELS//2 and as many odd
    # oscillator levels, even first on ties (the kappa = inf degeneracy).
    half = LEVELS // 2 + 1
    misses = []
    for i, kappa in enumerate(sweep.kappas):
        ref = [("even", 2 * j, even_level(kappa, j)) for j in range(half)]
        ref += [("odd", 2 * j + 1, 2 * j + 1.5) for j in range(half)]
        ref.sort(key=lambda s: (s[2], s[0] != "even"))
        got = rows[i * LEVELS:(i + 1) * LEVELS]
        for level, (row, (parity, n, energy)) in enumerate(zip(got, ref)):
            where = f"kappa={_label(kappa)} level={level}"
            if row["kappa"] != _label(kappa) or row["level"] != str(level):
                misses.append(f"{where}: row is kappa={row['kappa']} level={row['level']}")
            elif row["parity"] != parity or row["n"] != str(n):
                misses.append(f"{where}: {row['parity']} n={row['n']}, expected {parity} n={n}")
            elif not _close(float(row["energy"]), energy):
                misses.append(f"{where}: E={row['energy']}, reference {energy!r}")
    return misses


def check_tonks(sweep, path):
    with open(path) as fh:
        points = json.load(fh)["points"]
    if len(points) != len(sweep.kappas):
        return [f"{len(points)} points for {len(sweep.kappas)} barriers"]
    misses = []
    for kappa, point in zip(sweep.kappas, points):
        where = f"kappa={_label(kappa)}"
        if point["kappa"] != _label(kappa):
            misses.append(f"{where}: point is kappa={point['kappa']}")
            continue
        pair = even_level(kappa, 0) + 1.5
        if not _close(point["energy"], pair):
            misses.append(f"{where}: E={point['energy']!r}, reference {pair!r}")
        k = np.asarray(point["momentum"]["k"])
        n = np.asarray(point["momentum"]["n"])
        norm = float(np.trapezoid(n, k))
        if abs(norm - 1.0) > MOMENTUM_NORM_TOL:
            misses.append(f"{where}: momentum integrates to {norm!r}")
        entropy, schmidt = point["entropy"], point["schmidt"]
        if math.isinf(kappa):
            dev = float(np.max(np.abs(n - tg_momentum_infinite_barrier(k))))
            if dev > MOMENTUM_TOL:
                misses.append(f"{where}: momentum {dev:.2e} from the closed form")
            if abs(entropy - 1.0) > ENTROPY_SPLIT_TOL or schmidt != 2:
                misses.append(f"{where}: S={entropy!r} K={schmidt}, expected 1 and 2")
        elif kappa == 0.0 and abs(entropy - ENTROPY_FREE) > ENTROPY_FREE_TOL:
            misses.append(f"{where}: S={entropy!r}, expected {ENTROPY_FREE} +- {ENTROPY_FREE_TOL}")
    return misses


def check_dvr(sweep, path):
    rows = _read_csv(path)
    gs = sweep.couplings
    if len(rows) != len(sweep.kappas) * len(gs):
        return [f"{len(rows)} rows for {len(sweep.kappas)} x {len(gs)} points"]
    misses = []
    for i, kappa in enumerate(sweep.kappas):
        eps0 = even_level(kappa, 0)
        energies = []
        for row, g in zip(rows[i * len(gs):(i + 1) * len(gs)], gs):
            where = f"kappa={_label(kappa)} g={g:g}"
            if row["kappa"] != _label(kappa) or float(row["g1d"]) != g:
                misses.append(f"{where}: row is kappa={row['kappa']} g={row['g1d']}")
                continue
            e = float(row["energy"])
            energies.append(e)
            if kappa == 0.0:
                ref = 0.5 + even_level(g / math.sqrt(2.0), 0)
                if abs(e - ref) > DVR_CONTACT_TOL:
                    misses.append(f"{where}: E={e!r}, relative-coordinate reference {ref!r}")
            if g == 0.0:
                if abs(e - 2.0 * eps0) > DVR_PRODUCT_TOL:
                    misses.append(f"{where}: E={e!r}, product state {2.0 * eps0!r}")
                if float(row["entropy"]) != 0.0 or row["schmidt"] != "1":
                    misses.append(f"{where}: S={row['entropy']} K={row['schmidt']}, expected 0 and 1")
            if e > eps0 + 1.5 + DVR_CEILING_SLACK:
                misses.append(f"{where}: E={e!r} above the hard-core ceiling {eps0 + 1.5!r}")
        for lo, hi in zip(energies, energies[1:]):
            if hi < lo - DVR_MONOTONE_SLACK * abs(lo):
                misses.append(f"kappa={_label(kappa)}: E falls from {lo!r} to {hi!r} as g grows")
    return misses


CHECKS = {
    "dvr-sweep": check_dvr,
    "tonks-dense": check_tonks,
    "levels": check_levels,
}
