"""Shared fixtures: cached eigensolves so the suite reuses ground states.

DVR solves and analytic density matrices are deterministic pure
functions of their parameters, so one cache per session is safe and
keeps the property tests (which revisit the same parameter grids) from
repeating a solve dozens of times: each DVR solve builds the one-body
eigenbasis and the contact capacitances of its mesh again, which costs
0.04 s on the 161 / 0.08 mesh and 0.3 s on 321 / 0.04.  The
``fresh_python`` fixture runs a new interpreter, for the tests of what
an import or a call loads.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splittrap
from splittrap import analysis, dvr, tonks

_STATES = {}
_TONKS_RHOS = {}
# The CLI's default mesh for the analytic route.
_TONKS_GRID = analysis.build_grid(161, 0.08)


def _solve(kappa, g1d, n_points=81, spacing=0.16):
    key = (float(kappa), float(g1d), int(n_points), float(spacing))
    if key not in _STATES:
        grid = analysis.build_grid(n_points, spacing)
        _STATES[key] = dvr.ground_state(grid, kappa, g1d)
    return _STATES[key]


def _tonks_rho(kappa):
    key = float(kappa)
    if key not in _TONKS_RHOS:
        _TONKS_RHOS[key] = tonks.tonks_state(kappa, _TONKS_GRID).density
    return _TONKS_RHOS[key]


@pytest.fixture(scope="session")
def solve():
    """Cached DVR ground-state solve keyed by (kappa, g1d, N, dx)."""
    return _solve


@pytest.fixture(scope="session")
def tonks_rho():
    """Cached density matrix of the analytic pair on ``tonks_grid``, keyed by kappa."""
    return _tonks_rho


@pytest.fixture(scope="session")
def tonks_grid():
    """The 161-point, dx = 0.08 mesh of the analytic route."""
    return _TONKS_GRID


@pytest.fixture(scope="session")
def dense_momentum():
    """n(k) of a density matrix from its dense parity blocks, formed here.

    n(k) = (dx / pi) (|E a_k|^2 + |O b_k|^2) over k >= 0, mirrored, with
    the phase rows a_k = (sqrt(1/2), cos k x_i) and b_k = sin k x_i on
    x >= 0, by the operations, in their order, of the grid route's dense product.
    """

    def density(rho, k):
        grid = rho.grid
        angles = np.outer(grid.points[grid.center_index :], k[k.size // 2 :])
        cos_rows = np.cos(angles)
        cos_rows[0] = math.sqrt(0.5)
        even, odd = rho.even @ cos_rows, rho.odd @ np.sin(angles[1:])
        half = (grid.spacing / math.pi) * (np.sum(even * even, axis=0)
                                           + np.sum(odd * odd, axis=0))
        return np.concatenate((half[::-1][: k.size - half.size], half))

    return density


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Wrap dvr.eigsh; each Krylov run appends its k to the list."""
    calls = []
    real_eigsh = dvr.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs.get("k", 1))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(dvr, "eigsh", counting)
    return calls


@pytest.fixture(scope="session")
def fresh_python():
    """Run a new interpreter, with these arguments, that imports this checkout's package."""
    src = str(Path(splittrap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)

    return run
