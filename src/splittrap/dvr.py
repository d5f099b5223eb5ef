"""Sinc-DVR solver for two bosons with contact interaction.

The two-body Hamiltonian on a uniform symmetric mesh is

    H = T (x) 1 + 1 (x) T + diag(V_trap + V_barrier + V_int)

with the sinc-DVR kinetic matrix (including the 1/2 prefactor)

    T_ii = pi^2 / (6 dx^2),   T_ij = (-1)^(i-j) / (dx^2 (i-j)^2)

(sinc-DVR of Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)), and
the delta potentials represented by kappa_eff/dx and g1d_eff/dx on
their supporting mesh points.

The couplings are renormalized.  The sinc basis holds only momenta
|k| < pi/dx, so a bare kappa/dx drops the tail of the free Green's
function, int_{|k|>pi/dx} dk/2pi 2/k^2 = 2 dx/pi^2, which shifts 1/kappa
by that amount and biases the energy at first order in dx.  Restoring
the tail gives

    kappa_eff = kappa / (1 + 2 kappa dx / pi^2)
    g1d_eff   = g1d / (1 + g1d dx / pi^2)

where the contact term acts on the relative coordinate, whose reduced
mass halves the shift.  Both stay finite as the bare couplings diverge,
kappa_eff -> pi^2 / (2 dx) and g1d_eff -> pi^2 / dx, so the impenetrable
barrier (kappa = inf) and the hard-core contact (g1d = inf) are the same
operator taken at those limits.  What remains is the energy-dependent
tail int_{|k|>pi/dx} dk/2pi 4E/k^4 = 4E dx^3 / (3 pi^4), so energies
converge at third order in dx.

The full N^2 x N^2 matrix is never materialized; apply_hamiltonian and
the Krylov iteration of ground_state apply the same product
T x + x T + V * x to the N x N amplitude array.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .single_particle import BarrierStrength

_DEGENERACY_GAP = 1e-6
# Shift applied to the exchange-antisymmetric sector during the solve.
# Must sit above every energy of interest.  The renormalized couplings
# cap the symmetric spectrum near 3 pi^2 / dx^2 plus the trap, about
# 1.2e3 on the 81 / 0.16 mesh, so 1e4 clears it without stretching the
# Krylov range.
_EXCHANGE_PENALTY = 1e4


class GridError(ValueError):
    """Mesh specification violates the solver's grid contract."""


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform symmetric mesh with an odd point count (exact x = 0 point)."""

    n_points: int
    spacing: float

    @property
    def points(self):
        half = (self.n_points - 1) // 2
        return (np.arange(self.n_points) - half) * self.spacing

    @property
    def center_index(self):
        return (self.n_points - 1) // 2

    @property
    def span(self):
        return 0.5 * (self.n_points - 1) * self.spacing


def build_grid(n_points, spacing):
    """Validated uniform symmetric grid.

    Parameters
    ----------
    n_points : int
        Odd, >= 3, so the barrier point x = 0 is on the mesh.
    spacing : float
        Positive mesh step.
    """
    if n_points != int(n_points):
        raise GridError(f"point count must be an integer, got {n_points!r}")
    n_points = int(n_points)
    if n_points < 3:
        raise GridError(f"need at least 3 points, got {n_points}")
    if n_points % 2 == 0:
        raise GridError(f"point count must be odd so that x = 0 is a mesh point, got {n_points}")
    spacing = float(spacing)
    if not (spacing > 0.0) or not math.isfinite(spacing):
        raise GridError(f"spacing must be positive and finite, got {spacing!r}")
    return Grid(n_points, spacing)


@lru_cache(maxsize=32)
def _kinetic_matrix_cached(n_points, spacing):
    idx = np.arange(n_points)
    delta = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        t = np.where(delta == 0, math.pi**2 / 6.0, (-1.0) ** delta / delta.astype(float) ** 2)
    t /= spacing**2
    t.setflags(write=False)
    return t


def kinetic_matrix(grid):
    """One-particle sinc-DVR kinetic matrix (1/2 d^2/dx^2 included)."""
    return _kinetic_matrix_cached(grid.n_points, grid.spacing)


def _coupling(value, name):
    # A barrier flag or a float; +inf is valid, NaN and negatives are not.
    if isinstance(value, BarrierStrength):
        return math.inf if value.infinite else value.kappa
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _hamiltonian(grid, kappa, g1d):
    """Validated couplings, kinetic matrix and potential diagonal of H."""
    kappa = _coupling(kappa, "kappa")
    g1d = _coupling(g1d, "g1d")
    dx = grid.spacing
    if math.isinf(kappa):
        kappa_eff = math.pi**2 / (2.0 * dx)
    else:
        kappa_eff = kappa / (1.0 + 2.0 * kappa * dx / math.pi**2)
    if math.isinf(g1d):
        g1d_eff = math.pi**2 / dx
    else:
        g1d_eff = g1d / (1.0 + g1d * dx / math.pi**2)
    q = grid.points
    v = 0.5 * (q[:, None] ** 2 + q[None, :] ** 2)
    mid = grid.center_index
    v[mid, :] += kappa_eff / dx
    v[:, mid] += kappa_eff / dx
    v[np.diag_indices_from(v)] += g1d_eff / dx
    return kappa, g1d, kinetic_matrix(grid), v


def _apply(t, v, x):
    return t @ x + x @ t + v * x


def apply_hamiltonian(vec, grid, kappa, g1d):
    """Matrix-vector product H @ vec for the two-body Hamiltonian.

    ``vec`` holds the row-major flattened amplitudes on the N x N
    product mesh.  kappa and g1d may be infinite.
    """
    _, _, t, v = _hamiltonian(grid, kappa, g1d)
    vec = np.asarray(vec, dtype=float)
    n = grid.n_points
    if vec.shape != (n * n,):
        raise ValueError(f"expected a flat vector of length {n * n}, got shape {vec.shape}")
    return _apply(t, v, vec.reshape(n, n)).ravel()


@dataclass(frozen=True, eq=False)
class TwoBodyState:
    """Ground state on the product mesh.

    ``amplitudes`` is the N x N array Psi(q_i, q_j) normalized so that
    sum(Psi^2) * dx^2 = 1, sign-fixed to be positive at its peak.
    ``kappa`` and ``g1d`` are the bare couplings, math.inf for the
    limits.  ``gap`` is the distance to the next eigenvalue; a gap below
    1e-6 marks the state as near-degenerate.
    """

    energy: float
    amplitudes: np.ndarray
    grid: Grid
    kappa: float
    g1d: float
    gap: float

    @property
    def near_degenerate(self):
        return self.gap < _DEGENERACY_GAP


def ground_state(grid, kappa, g1d, *, tol=1e-10, maxiter=None):
    """Lowest bosonic eigenpair of the two-body split-trap Hamiltonian.

    The iteration is confined to the exchange-symmetric sector: the
    raw matrix also carries antisymmetric states, and near the strong
    coupling regime one of those dips below the symmetric ground state
    on a coarse mesh, so an unprojected solve would hand back a state
    with the wrong exchange symmetry depending on rounding noise.

    Parameters
    ----------
    grid : Grid
    kappa : float or BarrierStrength
        Barrier strength, >= 0; math.inf or the infinite-barrier flag
        give the impenetrable barrier.
    g1d : float
        Contact coupling, >= 0; math.inf gives the hard-core limit.
    tol : float
        Relative eigenvalue tolerance passed to the Krylov iteration.

    Returns
    -------
    TwoBodyState

    Raises
    ------
    ValueError
        If kappa or g1d is negative or NaN.
    ConvergenceError
        If the Krylov iteration does not converge.
    """
    kappa, g1d, t, v = _hamiltonian(grid, kappa, g1d)
    n = grid.n_points

    def matvec(vec):
        x = 0.5 * (vec.reshape(n, n) + vec.reshape(n, n).T)
        hx = _apply(t, v, x)
        hx = 0.5 * (hx + hx.T)
        return hx.ravel() + _EXCHANGE_PENALTY * (vec - x.ravel())

    op = LinearOperator((n * n, n * n), matvec=matvec, dtype=float)
    # Deterministic start vector: the symmetric Gaussian product state.
    q = grid.points
    v0 = np.exp(-0.5 * (q[:, None] ** 2 + q[None, :] ** 2)).ravel()
    v0 /= np.linalg.norm(v0)
    try:
        vals, vecs = eigsh(op, k=2, which="SA", v0=v0, tol=tol, maxiter=maxiter)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ground-state iteration failed at kappa={kappa}, g1d={g1d}, "
            f"N={n}, dx={grid.spacing}: {exc}"
        ) from exc

    psi = vecs[:, 0].reshape(n, n)
    psi = 0.5 * (psi + psi.T)
    psi /= math.sqrt(np.sum(psi * psi)) * grid.spacing
    peak = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
    if psi[peak] < 0.0:
        psi = -psi
    psi.setflags(write=False)
    return TwoBodyState(
        energy=float(vals[0]),
        amplitudes=psi,
        grid=grid,
        kappa=kappa,
        g1d=g1d,
        gap=float(vals[1] - vals[0]),
    )
