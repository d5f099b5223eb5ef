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
c = g1d_eff/dx; _one_body and _contact are the one place that builds
these pieces.  apply_hamiltonian applies H to the N x N amplitude array.
The barrier sits at the trap centre, so h is parity-symmetric and H
commutes with total parity, (x, y) -> (-x, -y).  The ground state comes
from Lanczos on the exact inverse (H - sigma)^-1 in each parity sector
of the exchange-symmetric states, acting on the coefficients B of
psi = U B U^T in the eigenbasis of h, which two eigh of its folded even
and odd blocks (sizes (N + 1)/2 and (N - 1)/2) give.  There the
separable part is inverted elementwise (the fast diagonalization method
of Lynch, Rice & Thomas, Numer. Math. 6, 185 (1964)), and the Woodbury
identity adds the contact term through one capacitance matrix per
sector, of size (N + 1)/2, at two or four half-size products a step.
One Krylov run of the even sector gives the ground state.  The gap is
computed on first read, by two more runs: the even sector's top two
Ritz pairs give the next even level, the odd sector's top one its lowest
level, and the gap is the nearer of the two.  Only the ground state is
mapped back: its coefficients become the two blocks of W = dx psi in
the parity fold of ``analysis._fold``, v_e B_ee v_e^T and v_o B_oo
v_o^T over the eigenvectors v_e and v_o of the folded blocks of h,
which the state holds as its ``analysis.DensityMatrix`` and the
observable chain reads as they are; psi on the mesh is that density's
``amplitudes``.  The mesh (``analysis.Grid``) and the fold maps live
in ``analysis``, which this module imports; this module holds the
Hamiltonian and its Krylov solve.  That solve is a numpy Lanczos
(``eigsh``) with full reorthogonalization, which stops once each Ritz
pair it reports meets |beta_m s_mi| <= 1e-10 theta_i and raises
ConvergenceError after 300 steps; no route of the package needs scipy.

Only the capacitances depend on g1d.  Per kappa, ground_state_solver
builds h, its two eigh, the shift sigma, the elementwise inverses d and
the matrices K behind the capacitances, 3 N^4 / 16 multiply-adds; per
g1d, it inverts the two capacitances and runs the one Lanczos
iteration of the ground state.  ground_state is the one-coupling case.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .analysis import DensityMatrix, _fold, _half_rows, _read_only
from .single_particle import check_coupling

_DEGENERACY_GAP = 1e-6
# Bound on ||H psi - E psi|| for a unit-norm psi.  Converged pairs sit at
# 1e-13 to 1e-12 on the 81 / 0.16 and 161 / 0.08 meshes, the rounding
# floor of H; a pair this far off is not an eigenpair.
_RESIDUAL_BOUND = 1e-6
# Relative eigenvalue tolerance of the Krylov iteration.
_EIGEN_TOL = 1e-10
# Step limit of one Lanczos run (eigsh).  Runs on meshes from 41 / 0.3
# to 321 / 0.04 stop within 23 steps.
_MAX_STEPS = 300
# Entries within this relative distance of max |psi| tie for the sign
# fix, which takes the first of them in row-major order: at (inf, 0) four
# extrema of opposite signs agree to rounding, and argmax would let the
# rounding pick the sign.
_PEAK_TIE = 1e-8


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge."""


def _one_body(grid, kappa):
    """Validated kappa and the one-body operator h = T + diag(w); returns (kappa, T, w).

    T is the sinc-DVR kinetic matrix (1/2 d^2/dx^2 included).  It is
    Toeplitz, T_ij = row[|i - j|], so it is gathered from its first row.
    """
    kappa = check_coupling(kappa, "kappa")
    dx = grid.spacing
    if math.isinf(kappa):
        kappa_eff = math.pi**2 / (2.0 * dx)
    else:
        kappa_eff = kappa / (1.0 + 2.0 * kappa * dx / math.pi**2)
    w = 0.5 * grid.points**2
    w[grid.center_index] += kappa_eff / dx
    m = np.arange(grid.n_points)
    row = (-1.0) ** m / np.maximum(m, 1).astype(float) ** 2
    row[0] = math.pi**2 / 6.0
    return kappa, row[np.abs(m[:, None] - m[None, :])] / dx**2, w


def _contact(grid, g1d):
    """Validated g1d and the contact strength c = g1d_eff / dx; returns (g1d, c)."""
    g1d = check_coupling(g1d, "g1d")
    dx = grid.spacing
    if math.isinf(g1d):
        g1d_eff = math.pi**2 / dx
    else:
        g1d_eff = g1d / (1.0 + g1d * dx / math.pi**2)
    return g1d, g1d_eff / dx


def _apply(t, w, c, x):
    v = w[:, None] + w[None, :]
    v[np.diag_indices_from(v)] += c
    return t @ x + x @ t + v * x


def _woodbury(k, weight):
    # (W^-1 + K)^-1 written so that it stays finite at W = 0.
    s = np.sqrt(weight)
    return s[:, None] * np.linalg.inv(np.eye(s.size) + s[:, None] * k * s) * s


def _shifted_inverse(t, w):
    """Fold-basis eigenvectors, shift sigma and c -> both sectors' (H - sigma)^-1.

    h = T + diag(w) is parity-symmetric, so ``analysis._fold`` splits it
    into an even block of size n = (N + 1)/2 and an odd block of size
    n - 1, each taken through its own eigh, whose eigenvectors v_e and
    v_o are returned.  U_e and U_o are those vectors on the mesh, and
    ``e`` and ``o`` their rows x >= 0 (``_half_rows``).  In that
    eigenbasis the exchange-symmetric pair coefficients split by total
    parity into

    - the even sector, blocks B_ee and B_oo, both symmetric, with
      psi = U_e B_ee U_e^T + U_o B_oo U_o^T, whose _fold blocks are
      v_e B_ee v_e^T and v_o B_oo v_o^T;
    - the odd sector, block X = B_eo with B_oe = X^T, with
      psi = U_e X U_o^T + U_o X^T U_e^T.

    The separable part A = h (x) 1 + 1 (x) h - sigma inverts elementwise
    in each block, A^-1 B = d * B with d_ij = 1 / (eps_i + eps_j -
    sigma).  The contact term touches psi only on the diagonal x = y, and
    in each sector only its n points x >= 0, where psi_aa is
    diag(e B_ee e^T + o B_oo o^T) or 2 diag(e X o^T); a point x > 0
    stands for its mirror image too, which doubles its weight.  So the
    Woodbury identity adds the contact term through one n x n
    capacitance per sector, over K_ab = <a|A^-1|b> of those diagonal
    samples; building both K costs 3 N^4 / 16 multiply-adds.  sigma =
    2 eps_0 - 1/2, with eps_0 the lowest one-body level, is a strict
    lower bound because c >= 0.  The eigh, sigma, d and K depend on the
    one-body operator alone and are built here, once per kappa; the
    returned ``at_contact(c)`` inverts both capacitances of one coupling
    once, explicitly, and returns that coupling's even and odd inverses,
    which act on the flat coefficients, (B_ee, B_oo) and X.  The even
    inverse symmetrizes its output, so the exchange-antisymmetric states
    of that sector map to zero.  ``start`` holds both sectors' start
    vectors, the normalized d.
    """
    h_even, h_odd = _fold(t + np.diag(w))
    eps_e, v_e = np.linalg.eigh(h_even)
    eps_o, v_o = np.linalg.eigh(h_odd)
    n = eps_e.size
    e, o = _half_rows(v_e, v_o)
    sigma = 2.0 * min(eps_e[0], eps_o[0]) - 0.5
    d_ee = 1.0 / (eps_e[:, None] + eps_e[None, :] - sigma)
    d_oo = 1.0 / (eps_o[:, None] + eps_o[None, :] - sigma)
    d_eo = 1.0 / (eps_e[:, None] + eps_o[None, :] - sigma)
    # K_ab = sum_ij L_ai R_aj d_ij L_bi R_bj for each block (L, R), one row at a time.
    k_even = np.empty((n, n))
    k_odd = np.empty((n, n))
    for a in range(n):
        ea, oa = e * e[a], o * o[a]
        k_even[a] = np.sum((ea @ d_ee) * ea, axis=1) + np.sum((oa @ d_oo) * oa, axis=1)
        k_odd[a] = np.sum((ea @ d_eo) * oa, axis=1)
    multiplicity = np.full(n, 2.0)
    multiplicity[0] = 1.0
    even_start = np.concatenate((d_ee.ravel(), d_oo.ravel()))
    start = (even_start / np.linalg.norm(even_start), d_eo.ravel() / np.linalg.norm(d_eo))

    def at_contact(c):
        q_even = _woodbury(k_even, c * multiplicity)
        # In the odd sector psi_aa = 2 diag(e X o^T)_a and |B|^2 = 2 |X|^2.
        q_odd = _woodbury(k_odd, 2.0 * c * multiplicity)

        def even_inverse(b):
            y_ee, y_oo = d_ee * b[: n * n].reshape(n, n), d_oo * b[n * n :].reshape(n - 1, n - 1)
            z = q_even @ (np.sum((e @ y_ee) * e, axis=1) + np.sum((o @ y_oo) * o, axis=1))
            y_ee -= d_ee * ((e.T * z) @ e)
            y_oo -= d_oo * ((o.T * z) @ o)
            return np.concatenate(((0.5 * (y_ee + y_ee.T)).ravel(), (0.5 * (y_oo + y_oo.T)).ravel()))

        def odd_inverse(b):
            x = d_eo * b.reshape(n, n - 1)
            x -= d_eo * ((e.T * (q_odd @ np.sum((e @ x) * o, axis=1))) @ o)
            return x.ravel()

        return even_inverse, odd_inverse

    return v_e, v_o, sigma, start, at_contact


def apply_hamiltonian(vec, grid, kappa, g1d):
    """Matrix-vector product H @ vec for the two-body Hamiltonian.

    ``vec`` holds the row-major flattened amplitudes on the N x N
    product mesh.  kappa and g1d may be infinite.
    """
    _, t, w = _one_body(grid, kappa)
    _, c = _contact(grid, g1d)
    vec = np.asarray(vec, dtype=float)
    n = grid.n_points
    if vec.shape != (n * n,):
        raise ValueError(f"expected a flat vector of length {n * n}, got shape {vec.shape}")
    return _apply(t, w, c, vec.reshape(n, n)).ravel()


@dataclass(frozen=True, eq=False)
class TwoBodyState:
    """Ground state on the product mesh.

    ``density`` is its ``analysis.DensityMatrix``: the two parity blocks
    of W = dx * Psi in the fold basis of ``analysis._fold``, of sizes
    (N + 1)/2 and (N - 1)/2, both exactly symmetric, with squared norms
    that sum to 1.  ``density.amplitudes`` is the N x N array
    Psi(q_i, q_j) unfolded from them, so sum(Psi^2) * dx^2 = 1 and Psi
    is symmetric and parity-even to the last bit.  The blocks are
    read-only and sign-fixed together, so that Psi is positive at its
    first peak in row-major order, where entries within 1e-8 of max
    |Psi| tie.  ``gap`` is the distance to the next exchange-symmetric
    eigenvalue, of either spatial parity; a gap below 1e-6 marks the
    state as near-degenerate, which ``diagnostics`` reports.  The solver
    computes the gap on first read, by the two Krylov runs of ``_gap``,
    one for the even sector's top two Ritz values and one for the odd
    sector's top one (see ``ground_state_solver``), and keeps it; reading
    it, or ``diagnostics``, may raise ConvergenceError.
    """

    energy: float
    density: DensityMatrix
    _gap: Callable[[], float] = field(repr=False)

    @functools.cached_property
    def gap(self):
        return self._gap()

    @property
    def near_degenerate(self):
        return self.gap < _DEGENERACY_GAP

    @property
    def diagnostics(self):
        """The per-point fields the JSON table prints beside the energy."""
        return {"near_degenerate": self.near_degenerate}


# The benchmark tracer (bench/tracer.py) replaces LinearOperator and
# eigsh on this module to time the matvecs and the eigensolver, so both
# stay module functions with scipy's call shapes, and _top reads them as
# globals on every call.  LinearOperator is a pass-through that the
# tracer's move onto _top (ROADMAP item 19) can retire.
def LinearOperator(shape, matvec, dtype=float):
    """The operator eigsh takes: the matvec itself."""
    return matvec


def eigsh(op, k=1, *, v0, tol=_EIGEN_TOL, return_eigenvectors=True):
    """Top k eigenvalues of the symmetric operator ``op``, by Lanczos from v0.

    Each step applies ``op`` once and orthogonalizes the result against
    every earlier Lanczos vector in two Gram-Schmidt passes.  The run
    stops once each of the top k Ritz pairs (theta_i, s_i) of the m x m
    tridiagonal matrix meets |beta_m s_mi| <= tol theta_i, beta_m the
    norm of the next residual: ARPACK's relative test.  Returns the
    values in ascending order and, with ``return_eigenvectors``, the
    Ritz vectors as the columns of an (n, k) array.  Raises
    ConvergenceError after _MAX_STEPS steps.
    """
    # Sized for the step limit; the rows a run does not reach stay unwritten.
    basis = np.empty((_MAX_STEPS + 1, v0.size))
    tridiagonal = np.zeros((_MAX_STEPS + 1, _MAX_STEPS + 1))
    basis[0] = v0 / np.linalg.norm(v0)
    for m in range(_MAX_STEPS):
        w = op(basis[m])
        tridiagonal[m, m] = basis[m] @ w
        for _ in range(2):
            w -= basis[: m + 1].T @ (basis[: m + 1] @ w)
        tridiagonal[m, m + 1] = tridiagonal[m + 1, m] = beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(tridiagonal[: m + 1, : m + 1])
        if m + 1 >= k and np.all(beta * np.abs(s[m, -k:]) <= tol * theta[-k:]):
            return (theta[-k:], basis[: m + 1].T @ s[:, -k:]) if return_eigenvectors else theta[-k:]
        basis[m + 1] = w / beta
    raise ConvergenceError(f"Lanczos found no {k} converged Ritz pairs in {_MAX_STEPS} steps")


def _top(inverse, start, failure, vectors=False, k=1):
    """Top k eigenvalues nu of one sector's inverse, and with ``vectors`` their Ritz vectors.

    The Krylov run is this module's ``eigsh``, a numpy Lanczos from
    ``start`` to the relative tolerance _EIGEN_TOL, on the operator that
    ``LinearOperator`` makes of ``inverse``; both are read as module
    globals at each call, so a wrapper set on the module sees every run.
    A run that does not converge raises ConvergenceError with
    ``failure`` in its message.
    """
    op = LinearOperator((start.size,) * 2, matvec=inverse, dtype=float)
    try:
        return eigsh(op, k=k, v0=start, tol=_EIGEN_TOL, return_eigenvectors=vectors)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{failure}: {exc}") from exc


def ground_state_solver(grid, kappa):
    """Solver for the lowest bosonic eigenpairs at one barrier: g1d -> TwoBodyState.

    Everything that depends on kappa alone is built here, once: the
    one-body operator h, the eigh of its even and odd blocks, the shift
    sigma, d and K of _shifted_inverse, and the start vectors.  Each call
    of the returned function inverts its coupling's two capacitances and
    runs Lanczos on the exact inverse (H - sigma)^-1 in the even sector,
    of dimension (N + 1)^2 / 4 + (N - 1)^2 / 4, whose largest eigenvalue
    nu gives the ground energy sigma + 1/nu and whose Ritz vector g the
    ground state.  The first read of the state's ``gap`` runs Lanczos
    twice more: for the top two Ritz values of the even inverse, from the
    same start, whose smaller one gives the next even level, and for the
    top one of the odd sector, of dimension (N^2 - 1) / 4, which gives
    its lowest level.  Every run is this module's numpy Lanczos on the
    one-body eigenbasis coefficients, which stops when each Ritz pair it
    reports meets the relative test |beta_m s_mi| <= 1e-10 theta_i
    (``_EIGEN_TOL``) and fails after ``_MAX_STEPS`` = 300 steps, and only
    the ground Ritz vector is mapped back.  A
    call gives the same bits as ``ground_state`` at that coupling, and a
    failed call leaves the solver usable for other couplings.

    Both inverses are confined to exchange-symmetric states: the raw
    matrix also carries antisymmetric states, and near the strong
    coupling regime one of those dips below the symmetric ground state
    on a coarse mesh.  Each start vector, the sector's part of d, is
    nonzero on every pair of one-body levels of its sector.  The ground
    state is parity-even, and ``gap`` is the distance from it to the
    nearer of the next even level and the lowest odd one, the first
    excited bosonic level.  The map back takes the Ritz vector's blocks
    B_ee and B_oo to the fold blocks v_e B_ee v_e^T and v_o B_oo v_o^T
    of W = dx psi, symmetrizes and normalizes them into the state's
    ``DensityMatrix``, and reads psi as its ``amplitudes`` for the
    residual check and the sign fix, which flips both blocks and hands
    the flipped density -psi as its amplitudes, so psi unfolds once a
    point: psi computes its rows x >= 0 and copies the rows x < 0 from
    them, so it is parity-even to the last bit with no averaging over
    the reflection, and the blocks are the fold of dx psi to rounding.

    Parameters
    ----------
    grid : analysis.Grid
    kappa : float
        Barrier strength, >= 0; math.inf gives the impenetrable barrier.

    Returns
    -------
    callable
        ``solve(g1d)`` with the contact coupling g1d >= 0, math.inf for
        the hard-core limit, returning a TwoBodyState.

    Raises
    ------
    ValueError
        If kappa is negative or NaN; ``solve`` raises it for such a g1d.
    ConvergenceError
        From ``solve``, if the Krylov iteration does not converge, or the
        residual ||H psi - E psi|| of the returned pair exceeds 1e-6; from
        the first read of ``gap``, if one of its iterations does not
        converge.
    """
    kappa, t, w = _one_body(grid, kappa)
    v_e, v_o, sigma, (even_start, odd_start), at_contact = _shifted_inverse(t, w)
    n = v_e.shape[0]

    def solve(g1d):
        g1d, c = _contact(grid, g1d)
        even_inverse, odd_inverse = at_contact(c)
        failure = (
            f"ground-state iteration failed at kappa={kappa}, g1d={g1d}, N={grid.n_points}, "
            f"dx={grid.spacing}"
        )
        (nu,), vecs = _top(even_inverse, even_start, failure, vectors=True)
        energy = sigma + 1.0 / nu
        ground = vecs[:, 0]

        def gap():
            # The next even level is the smaller of the even sector's top two Ritz values.
            nu_next = min(_top(even_inverse, even_start, failure, k=2))
            (nu_odd,) = _top(odd_inverse, odd_start, failure)
            return float(min(1.0 / nu_next, 1.0 / nu_odd) - 1.0 / nu)

        even = v_e @ ground[: n * n].reshape(n, n) @ v_e.T
        odd = v_o @ ground[n * n :].reshape(n - 1, n - 1) @ v_o.T
        even, odd = even + even.T, odd + odd.T
        norm = math.sqrt(np.sum(even * even) + np.sum(odd * odd))
        density = DensityMatrix(even / norm, odd / norm, grid)
        psi = density.amplitudes
        residual = np.linalg.norm(_apply(t, w, c, psi) - energy * psi) * grid.spacing
        if not residual <= _RESIDUAL_BOUND:
            raise ConvergenceError(f"{failure}: residual ||H psi - E psi|| = {residual:.3e}")
        magnitude = np.abs(psi).ravel()
        peak = np.argmax(magnitude >= (1.0 - _PEAK_TIE) * magnitude.max())
        if psi.flat[peak] < 0.0:
            density = DensityMatrix(-density.even, -density.odd, grid)
            # Negation commutes with the unfold bit for bit, so -psi is the
            # flipped blocks unfolded: fill that cache, and psi unfolds once.
            vars(density)["amplitudes"] = _read_only(-psi)
        return TwoBodyState(float(energy), density, gap)

    return solve


def ground_state(grid, kappa, g1d):
    """Lowest bosonic eigenpair at barrier kappa and contact coupling g1d.

    ``ground_state_solver(grid, kappa)(g1d)``: see there for the method,
    the arguments and the errors.
    """
    return ground_state_solver(grid, kappa)(g1d)
