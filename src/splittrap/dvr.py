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
mass halves the shift: one rule, c / (1 + f c dx / pi^2) with f = 2 for
the barrier and f = 1 for the contact, which the helper _renormalized
states once for both.  Both stay finite as the bare couplings diverge,
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

The barrier sits at the trap centre, so h is parity-symmetric:
``analysis._fold`` splits it into an even block of size n = (N + 1)/2
and an odd block of size n - 1, whose eigh give the one-body levels eps
and eigenvectors v_e and v_o, or U_e and U_o on the mesh.  H commutes
with total parity, (x, y) -> (-x, -y), so in that eigenbasis the
exchange-symmetric pair coefficients split into two sectors:

- the even sector, symmetric blocks B_ee and B_oo, with
  psi = U_e B_ee U_e^T + U_o B_oo U_o^T;
- the odd sector, one block X = B_eo, with
  psi = U_e X U_o^T + U_o X^T U_e^T.

The ground state comes from Lanczos on the exact inverse (H - sigma)^-1
in each sector.  Since c >= 0, H >= h (x) 1 + 1 (x) h >= 2 eps_0, so
sigma = 2 eps_0 - 1/16 lies strictly below every pair level.  Lanczos on
a shifted inverse converges at a rate set by the relative gap
(E_1 - E_0) / (E_0 - sigma) (Ericsson & Ruhe, Math. Comp. 35, 1251
(1980)), so a shift just below E_0 takes fewer steps: over the 20
points of a 4 x 5 sweep on 81 / 0.16, the margin 1/16 takes 152 inverse
applications, where 1/2 took 202.  The separable part
A = h (x) 1 + 1 (x) h - sigma inverts elementwise,
d_ij = 1 / (eps_i + eps_j - sigma): the fast diagonalization method of
Lynch, Rice & Thomas, Numer. Math. 6, 185 (1964).  The contact term
touches psi only on the n diagonal points x >= 0, where psi_aa is
diag(e B_ee e^T + o B_oo o^T) or 2 diag(e X o^T), over the rows x >= 0
of U_e and U_o, e and o (``analysis._half_rows``); a point x > 0 stands
for its mirror image too, which doubles its weight.  So the Woodbury
identity adds the contact term through one n x n capacitance per
sector, over K_ab = <a|A^-1|b> of those diagonal samples, at two or
four half-size products a step.  Each K is symmetric, so ``_kernel``
forms it row by row on its upper triangle and mirrors it.  Each inverse
is confined to exchange-symmetric states: the raw matrix also carries
antisymmetric ones, and near strong coupling one of those dips below
the symmetric ground state on a coarse mesh.

The even sector is one (2, n, n) stack (B_ee, B_oo) over the stacked
fold bases (v_e, v_o), with v_o padded by a zero row and column, o by
a zero column and the B_oo block of d by zeros.  The padded entries of
the start vector and of every Krylov vector are then exactly zero, and
d, its start vector, its K, each of its inverse applications and the
map back each run once over the stack, not once per block.

One Krylov run of the even sector, from its part of d, which is nonzero
on every pair of one-body levels, gives the ground energy sigma + 1/nu
and its Ritz vector.  The gap is computed on first read, by two more
runs: the even sector's top two Ritz pairs give the next even level, the
odd sector's top one its lowest level, and the gap is the nearer of the
two.  Only the ground vector is mapped back: B_ee and B_oo become the
blocks v_e B_ee v_e^T and v_o B_oo v_o^T of W = dx psi in the parity
fold, the latter cut from its padding, symmetrized and normalized into
the state's ``analysis.DensityMatrix``, which the observable chain
reads as they are.  psi on the mesh is that density's ``amplitudes``, unfolded once a
point with its rows x < 0 copied from its rows x >= 0, so it is
parity-even to the last bit.  Every run is ``eigsh``, a numpy Lanczos
with full reorthogonalization, which stops once each Ritz pair it
reports meets |beta_m s_mi| <= 1e-10 theta_i and raises ConvergenceError
after 300 steps; no route of the package needs scipy.

Only the capacitances depend on g1d.  Per kappa, ground_state_solver
builds h, its two eigh, sigma, d and the even K, N^4 / 16 multiply-adds;
per g1d, it inverts the even capacitance and runs the one Lanczos
iteration of the ground state.  Only the gap reads the odd sector, so
its K, N^4 / 32 multiply-adds, is formed on the first gap read of a
kappa row, and its capacitance on the first gap read of a point.
ground_state is the one-coupling case.  The mesh (``analysis.Grid``)
and the fold maps live in ``analysis``, which this module imports.
numpy comes through the lazy seam ``_numpy.np`` and loads on the first
array formed, so importing this module, as ``cli`` does, loads none.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from . import analysis
from ._numpy import np
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
# to 321 / 0.04 stop within 5 to 22 steps, a ground run within 10.
_MAX_STEPS = 300
# Entries within this relative distance of max |psi| tie for the sign
# fix, which takes the first of them in row-major order: at (inf, 0) four
# extrema of opposite signs agree to rounding, and argmax would let the
# rounding pick the sign.
_PEAK_TIE = 1e-8


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge."""


def _renormalized(value, name, spacing, factor):
    """Validated coupling and its renormalized strength value / (1 + factor value dx / pi^2).

    ``factor`` is 2 for kappa and 1 for g1d (see the module docstring);
    an infinite coupling gives the limit pi^2 / (factor dx).
    """
    value = check_coupling(value, name)
    if math.isinf(value):
        return value, math.pi**2 / (factor * spacing)
    return value, value / (1.0 + factor * value * spacing / math.pi**2)


def _one_body(grid, kappa):
    """Validated kappa and the one-body operator h = T + diag(w); returns (kappa, T, w).

    T is the sinc-DVR kinetic matrix (1/2 d^2/dx^2 included).  It is
    Toeplitz, T_ij = row[|i - j|], so it is gathered from its first row.
    The barrier adds kappa_eff / dx at x = 0, with kappa_eff from
    ``_renormalized`` at factor 2.
    """
    dx = grid.spacing
    kappa, kappa_eff = _renormalized(kappa, "kappa", dx, 2.0)
    w = 0.5 * grid.points**2
    w[grid.center_index] += kappa_eff / dx
    m = np.arange(grid.n_points)
    row = (-1.0) ** m / np.maximum(m, 1).astype(float) ** 2
    row[0] = math.pi**2 / 6.0
    return kappa, row[np.abs(m[:, None] - m[None, :])] / dx**2, w


def _contact(grid, g1d):
    """Validated g1d and the contact strength c = g1d_eff / dx; returns (g1d, c).

    g1d_eff comes from ``_renormalized`` at factor 1.
    """
    g1d, g1d_eff = _renormalized(g1d, "g1d", grid.spacing, 1.0)
    return g1d, g1d_eff / grid.spacing


def _apply(t, w, c, x):
    v = w[:, None] + w[None, :]
    v[np.diag_indices_from(v)] += c
    return t @ x + x @ t + v * x


def _woodbury(k, weight):
    # (W^-1 + K)^-1 written so that it stays finite at W = 0.
    s = np.sqrt(weight)
    return s[:, None] * np.linalg.inv(np.eye(s.size) + s[:, None] * k * s) * s


def _kernel(left, right, d):
    """K_ab = sum_sij L_sai R_saj d_sij L_sbi R_sbj over the stack axis s of L, R and d.

    a and b run over the half-mesh points x >= 0.  K is symmetric: each
    row is formed from its diagonal on, and the upper triangle is
    mirrored into the lower.  When ``right`` is ``left`` a row's one
    product serves both.
    """
    n = left.shape[1]
    k = np.zeros((n, n))
    for a in range(n):
        la = left[:, a:] * left[:, a, None]
        ra = la if right is left else right[:, a:] * right[:, a, None]
        k[a, a:] = np.sum((la @ d) * ra, axis=(0, 2))
    return k + np.triu(k, 1).T


def _shifted_inverse(t, w):
    """Stacked fold bases, shift sigma and c -> both sectors' (H - sigma)^-1.

    Takes the T and w of ``_one_body`` and returns (basis, sigma, start,
    at_contact): the (2, n, n) stack of the eigenvectors of the folded
    even block of h and of its odd block padded with a zero row and
    column, the shift, both sectors' start vectors (their parts of d,
    normalized), and ``at_contact(c)``, which returns one coupling's
    even and odd inverses on the flat sector coefficients, the stack
    (B_ee, B_oo) with B_oo padded and X (module docstring).  Everything
    but the odd kernel and the capacitances is built here, once per
    kappa; ``at_contact`` inverts the even capacitance, and the odd
    inverse forms the odd kernel, once per kappa, and inverts its
    capacitance on its first call.  The even inverse symmetrizes its
    output, so the exchange-antisymmetric states of that sector map to
    zero, and keeps the padding zero.
    """
    h_even, h_odd = _fold(t + np.diag(w))
    eps_e, v_e = np.linalg.eigh(h_even)
    eps_o, v_o = np.linalg.eigh(h_odd)
    n = eps_e.size
    basis = np.stack((v_e, np.pad(v_o, (0, 1))))
    rows = np.stack(_half_rows(v_e, basis[1, :-1]))
    e, o = rows[0], rows[1, :, :-1]
    sigma = 2.0 * min(eps_e[0], eps_o[0]) - 1.0 / 16.0
    # The padded level sits at infinity, so d is exactly zero on the padding.
    eps = np.stack((eps_e, np.append(eps_o, math.inf)))
    d = 1.0 / (eps[:, :, None] + eps[:, None, :] - sigma)
    d_eo = 1.0 / (eps_e[:, None] + eps_o[None, :] - sigma)
    k_even = _kernel(rows, rows, d)
    # Only the gap runs the odd sector, so its kernel is formed on the
    # first odd application of the row and its capacitance on the first
    # of the coupling.
    k_odd = functools.cache(lambda: _kernel(e[None], o[None], d_eo[None]))
    multiplicity = np.full(n, 2.0)
    multiplicity[0] = 1.0
    start = (d.ravel() / np.linalg.norm(d), d_eo.ravel() / np.linalg.norm(d_eo))

    def at_contact(c):
        q_even = _woodbury(k_even, c * multiplicity)

        @functools.cache
        def q_odd():
            # In the odd sector psi_aa = 2 diag(e X o^T)_a and |B|^2 = 2 |X|^2.
            return _woodbury(k_odd(), 2.0 * c * multiplicity)

        def even_inverse(b):
            y = d * b.reshape(2, n, n)
            z = q_even @ np.sum((rows @ y) * rows, axis=(0, 2))
            y -= d * ((rows.transpose(0, 2, 1) * z) @ rows)
            return (0.5 * (y + y.transpose(0, 2, 1))).ravel()

        def odd_inverse(b):
            x = d_eo * b.reshape(n, n - 1)
            x -= d_eo * ((e.T * (q_odd() @ np.sum((e @ x) * o, axis=1))) @ o)
            return x.ravel()

        return even_inverse, odd_inverse

    return basis, sigma, start, at_contact


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
    (N + 1)/2 and (N - 1)/2, both exactly symmetric and read-only, with
    squared norms that sum to 1.  ``density.amplitudes`` is the N x N
    array Psi(q_i, q_j), so sum(Psi^2) * dx^2 = 1, and Psi is symmetric,
    parity-even to the last bit, and positive at its first peak in
    row-major order, where entries within 1e-8 of max |Psi| tie.
    ``occupations`` are ``analysis.natural_orbitals(density)``, formed on
    first read and kept.  ``gap`` is the distance to the next
    exchange-symmetric eigenvalue, of either spatial parity, computed on
    first read and kept; reading it, or ``diagnostics``, may raise
    ConvergenceError.
    """

    energy: float
    density: DensityMatrix
    _gap: Callable[[], float] = field(repr=False)

    @functools.cached_property
    def occupations(self):
        return analysis.natural_orbitals(self.density)

    @functools.cached_property
    def gap(self):
        return self._gap()

    @property
    def diagnostics(self):
        """The per-point fields the JSON table prints beside the energy.

        ``near_degenerate`` is a gap below 1e-6.
        """
        return {"near_degenerate": self.gap < _DEGENERACY_GAP}


# The benchmark tracer (bench/tracer.py) replaces LinearOperator and
# eigsh on this module to time the matvecs and the eigensolver, so both
# stay module functions, read as globals on every call: solve and the gap
# call eigsh, and eigsh calls LinearOperator.  LinearOperator is a
# pass-through that a tracer wrapping eigsh's ``inverse`` (ROADMAP item
# 25) can retire.
def LinearOperator(shape, matvec):
    """The operator eigsh runs on: the matvec itself."""
    return matvec


def eigsh(inverse, start, failure, k=1):
    """Top k eigenpairs of one sector's inverse, by Lanczos from ``start``.

    Each step applies ``inverse``, through ``LinearOperator``, once and
    orthogonalizes the result against every earlier Lanczos vector in two
    Gram-Schmidt passes.  The run stops once each of the top k Ritz pairs
    (theta_i, s_i) of the m x m tridiagonal matrix meets |beta_m s_mi| <=
    _EIGEN_TOL theta_i, beta_m the norm of the next residual: ARPACK's
    relative test.  Returns the values in ascending order and their Ritz
    vectors as the columns of an (n, k) array.  Raises ConvergenceError,
    its message led by ``failure``, after _MAX_STEPS steps.
    """
    op = LinearOperator((start.size,) * 2, matvec=inverse)
    # Sized for the step limit; the rows a run does not reach stay unwritten.
    basis = np.empty((_MAX_STEPS + 1, start.size))
    tridiagonal = np.zeros((_MAX_STEPS + 1, _MAX_STEPS + 1))
    basis[0] = start / np.linalg.norm(start)
    for m in range(_MAX_STEPS):
        w = op(basis[m])
        tridiagonal[m, m] = basis[m] @ w
        for _ in range(2):
            w -= basis[: m + 1].T @ (basis[: m + 1] @ w)
        tridiagonal[m, m + 1] = tridiagonal[m + 1, m] = beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(tridiagonal[: m + 1, : m + 1])
        if m + 1 >= k and np.all(beta * np.abs(s[m, -k:]) <= _EIGEN_TOL * theta[-k:]):
            return theta[-k:], basis[: m + 1].T @ s[:, -k:]
        basis[m + 1] = w / beta
    raise ConvergenceError(f"{failure}: Lanczos found no {k} converged Ritz pairs in "
                           f"{_MAX_STEPS} steps")


def ground_state_solver(grid, kappa):
    """Solver for the lowest bosonic eigenpairs at one barrier: g1d -> TwoBodyState.

    Everything that depends on kappa alone is built here, once (module
    docstring).  A call of the returned function gives the same bits as
    ``ground_state`` at that coupling, and a failed call leaves the
    solver usable for other couplings.

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
    basis, sigma, (even_start, odd_start), at_contact = _shifted_inverse(t, w)

    def solve(g1d):
        g1d, c = _contact(grid, g1d)
        even_inverse, odd_inverse = at_contact(c)
        failure = (
            f"ground-state iteration failed at kappa={kappa}, g1d={g1d}, N={grid.n_points}, "
            f"dx={grid.spacing}"
        )
        (nu,), vecs = eigsh(even_inverse, even_start, failure)
        energy = sigma + 1.0 / nu

        def gap():
            # The next even level is the smaller of the even sector's top two Ritz values.
            nu_next = min(eigsh(even_inverse, even_start, failure, k=2)[0])
            (nu_odd,), _ = eigsh(odd_inverse, odd_start, failure)
            return float(min(1.0 / nu_next, 1.0 / nu_odd) - 1.0 / nu)

        blocks = basis @ vecs[:, 0].reshape(basis.shape) @ basis.transpose(0, 2, 1)
        blocks = blocks + blocks.transpose(0, 2, 1)
        norm = math.sqrt(np.sum(blocks * blocks))
        density = DensityMatrix(blocks[0] / norm, blocks[1, :-1, :-1] / norm, grid)
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

    ``ground_state_solver(grid, kappa)(g1d)``: see there for the
    arguments and the errors, and the module docstring for the method.
    """
    return ground_state_solver(grid, kappa)(g1d)
