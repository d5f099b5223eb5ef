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

The full N^2 x N^2 matrix is never materialized.  H splits as
h (x) 1 + 1 (x) h plus the contact term c on the N diagonal points x = y,
with the one-body h = T + x^2/2 + kappa_eff/dx delta_{x0} and
c = g1d_eff/dx; _hamiltonian is the one place that builds these pieces.
apply_hamiltonian applies H to the N x N amplitude array.  ground_state
runs Lanczos on the exact inverse (H - sigma)^-1, acting on the
coefficients B of psi = U B U^T in the eigenbasis h = U diag(eps) U^T
of one N x N eigh: there the separable part is inverted elementwise
(the fast diagonalization method of Lynch, Rice & Thomas, Numer. Math.
6, 185 (1964)), and the Woodbury identity adds the contact term through
an N x N capacitance matrix, at two N x N products a step.  The ground
state and the gap to the next bosonic level come out of the two largest
eigenvalues of that inverse; only the ground state is mapped back to
the mesh.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .single_particle import check_coupling

_DEGENERACY_GAP = 1e-6
# Bound on ||H psi - E psi|| for a unit-norm psi.  Converged pairs sit at
# 1e-13 to 1e-12 on the 81 / 0.16 and 161 / 0.08 meshes, the rounding
# floor of H; a pair this far off is not an eigenpair.
_RESIDUAL_BOUND = 1e-6
# Relative eigenvalue tolerance of the Krylov iteration.
_EIGEN_TOL = 1e-10
# Entries within this relative distance of max |psi| tie for the sign
# fix, which takes the first of them in row-major order: at (inf, 0) four
# extrema of opposite signs agree to rounding, and argmax would let the
# rounding pick the sign.
_PEAK_TIE = 1e-8


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


def kinetic_matrix(grid):
    """One-particle sinc-DVR kinetic matrix (1/2 d^2/dx^2 included).

    T is Toeplitz, T_ij = row[|i - j|], so it is gathered from its first row.
    """
    m = np.arange(grid.n_points)
    row = (-1.0) ** m / np.maximum(m, 1).astype(float) ** 2
    row[0] = math.pi**2 / 6.0
    return row[np.abs(m[:, None] - m[None, :])] / grid.spacing**2


def _hamiltonian(grid, kappa, g1d):
    """Validated couplings and the three pieces of H.

    H = h (x) 1 + 1 (x) h + c sum_a |aa><aa| with the one-body operator
    h = T + diag(w); returns (kappa, g1d, T, w, c).
    """
    kappa = check_coupling(kappa, "kappa")
    g1d = check_coupling(g1d, "g1d")
    dx = grid.spacing
    if math.isinf(kappa):
        kappa_eff = math.pi**2 / (2.0 * dx)
    else:
        kappa_eff = kappa / (1.0 + 2.0 * kappa * dx / math.pi**2)
    if math.isinf(g1d):
        g1d_eff = math.pi**2 / dx
    else:
        g1d_eff = g1d / (1.0 + g1d * dx / math.pi**2)
    w = 0.5 * grid.points**2
    w[grid.center_index] += kappa_eff / dx
    return kappa, g1d, kinetic_matrix(grid), w, g1d_eff / dx


def _apply(t, w, c, x):
    v = w[:, None] + w[None, :]
    v[np.diag_indices_from(v)] += c
    return t @ x + x @ t + v * x


def _shifted_inverse(t, w, c):
    """Eigenbasis u of h, shift sigma below the spectrum, and B -> (H - sigma)^-1 B.

    The inverse acts on the coefficients B of psi = U B U^T, with
    h = U diag(eps) U^T.  There the separable part A = h (x) 1 + 1 (x) h
    - sigma inverts elementwise, A^-1 B = d * B with d_ij =
    1 / (eps_i + eps_j - sigma), and the Woodbury identity adds the
    contact term, which lives on the N diagonal points only, through the
    N x N capacitance I + c K with K_ab = <aa|A^-1|bb> (factored once):
    one N x N product out to psi_aa, one back.  sigma = 2 eps_0 - 1/2 is
    a strict lower bound because c >= 0.  Outputs are symmetrized, so the
    exchange-antisymmetric sector maps to zero.
    """
    eps, u = np.linalg.eigh(t + np.diag(w))
    sigma = 2.0 * eps[0] - 0.5
    d = 1.0 / (eps[:, None] + eps[None, :] - sigma)
    # K_ab = sum_ij U_ai U_aj U_bi U_bj d_ij, one row at a time.
    k = np.empty_like(d)
    for a in range(eps.size):
        ua = u * u[a]
        k[a] = np.sum((ua @ d) * ua, axis=1)
    capacitance = cho_factor(np.eye(eps.size) + c * k)

    def inverse(b):
        y = d * b
        on_contact = np.sum((u @ y) * u, axis=1)
        y -= d * ((u.T * (c * cho_solve(capacitance, on_contact))) @ u)
        return 0.5 * (y + y.T)

    return u, d, sigma, inverse


def apply_hamiltonian(vec, grid, kappa, g1d):
    """Matrix-vector product H @ vec for the two-body Hamiltonian.

    ``vec`` holds the row-major flattened amplitudes on the N x N
    product mesh.  kappa and g1d may be infinite.
    """
    _, _, t, w, c = _hamiltonian(grid, kappa, g1d)
    vec = np.asarray(vec, dtype=float)
    n = grid.n_points
    if vec.shape != (n * n,):
        raise ValueError(f"expected a flat vector of length {n * n}, got shape {vec.shape}")
    return _apply(t, w, c, vec.reshape(n, n)).ravel()


@dataclass(frozen=True, eq=False)
class TwoBodyState:
    """Ground state on the product mesh.

    ``amplitudes`` is the N x N array Psi(q_i, q_j) normalized so that
    sum(Psi^2) * dx^2 = 1, sign-fixed to be positive at its first peak
    in row-major order, where entries within 1e-8 of max |Psi| tie.
    ``kappa`` and ``g1d`` are the bare couplings, math.inf for the
    limits.  ``gap`` is the distance to the next exchange-symmetric
    eigenvalue, of either spatial parity; a gap below 1e-6 marks the
    state as near-degenerate.
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


def ground_state(grid, kappa, g1d):
    """Lowest bosonic eigenpair of the two-body split-trap Hamiltonian.

    Lanczos on the exact inverse (H - sigma)^-1 of _shifted_inverse,
    whose largest eigenvalues nu give the lowest energies sigma + 1/nu;
    it runs on the one-body eigenbasis coefficients B to a relative
    eigenvalue tolerance of 1e-10 (``_EIGEN_TOL``), and only its Ritz
    vector is mapped to the mesh, as psi = U B U^T.  The inverse is
    confined to the exchange-symmetric sector: the raw matrix also
    carries antisymmetric states, and near the strong coupling regime
    one of those dips below the symmetric ground state on a coarse mesh.
    The start vector d is exchange-symmetric and nonzero on every pair
    of one-body levels, so both parity classes of the symmetric sector
    are in reach and ``gap`` is the distance to the first excited
    bosonic level.  The ground state of the parity-symmetric H is even
    under (x, y) -> (-x, -y); the returned amplitudes are averaged with
    their reflection, like the exchange average, so they are parity-even
    to the last bit.

    Parameters
    ----------
    grid : Grid
    kappa : float
        Barrier strength, >= 0; math.inf gives the impenetrable barrier.
    g1d : float
        Contact coupling, >= 0; math.inf gives the hard-core limit.

    Returns
    -------
    TwoBodyState

    Raises
    ------
    ValueError
        If kappa or g1d is negative or NaN.
    ConvergenceError
        If the Krylov iteration does not converge, or the residual
        ||H psi - E psi|| of the returned pair exceeds 1e-6.
    """
    kappa, g1d, t, w, c = _hamiltonian(grid, kappa, g1d)
    n = grid.n_points
    u, d, sigma, inverse = _shifted_inverse(t, w, c)

    def matvec(vec):
        return inverse(vec.reshape(n, n)).ravel()

    op = LinearOperator((n * n, n * n), matvec=matvec, dtype=float)
    failure = (
        f"ground-state iteration failed at kappa={kappa}, g1d={g1d}, N={n}, dx={grid.spacing}"
    )
    try:
        nu, vecs = eigsh(op, k=2, which="LA", v0=d.ravel() / np.linalg.norm(d), tol=_EIGEN_TOL)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"{failure}: {exc}") from exc
    energy = sigma + 1.0 / nu[1]

    psi = u @ vecs[:, 1].reshape(n, n) @ u.T
    psi = 0.5 * (psi + psi.T)
    psi = 0.5 * (psi + psi[::-1, ::-1])
    psi /= math.sqrt(np.sum(psi * psi)) * grid.spacing
    residual = np.linalg.norm(_apply(t, w, c, psi) - energy * psi) * grid.spacing
    if not residual <= _RESIDUAL_BOUND:
        raise ConvergenceError(f"{failure}: residual ||H psi - E psi|| = {residual:.3e}")
    magnitude = np.abs(psi).ravel()
    peak = np.argmax(magnitude >= (1.0 - _PEAK_TIE) * magnitude.max())
    if psi.flat[peak] < 0.0:
        psi = -psi
    psi.setflags(write=False)
    return TwoBodyState(
        energy=float(energy),
        amplitudes=psi,
        grid=grid,
        kappa=kappa,
        g1d=g1d,
        gap=float(1.0 / nu[0] - 1.0 / nu[1]),
    )
