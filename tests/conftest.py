"""Shared fixtures: cached eigensolves so the suite reuses ground states.

DVR solves and analytic density matrices are deterministic pure
functions of their parameters, so one cache per session is safe and
keeps the property tests (which revisit the same parameter grids) from
repeating a solve dozens of times: each DVR solve builds the one-body
eigenbasis and the contact capacitances of its mesh again, which costs
0.04 s on the 161 / 0.08 mesh and 0.3 s on 321 / 0.04.
"""

import pytest

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


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Wrap dvr.eigsh; each Krylov run appends its return_eigenvectors flag to the list."""
    calls = []
    real_eigsh = dvr.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs.get("return_eigenvectors", True))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(dvr, "eigsh", counting)
    return calls
