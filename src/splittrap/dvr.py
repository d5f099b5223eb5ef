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

Both sectors run one code path, ``_sector``, over stacks of shape
(s, n, n).  The even sector is the (2, n, n) stack (B_ee, B_oo) over the
stacked fold bases (v_e, v_o), with v_o padded by a zero row and
column, o by a zero column and the B_oo block of d by zeros; the odd
sector is the (1, n, n) stack X between e and the same padded o, with
the padded column of its d zero.  The padded entries of each start
vector and of every Krylov vector are then exactly zero, and d, the
start vector, K, each inverse application and the map back each run
once over a sector's stack, not once per block.

One Krylov run of the even sector, from its part of d, which is nonzero
on every pair of one-body levels, gives the ground energy sigma + 1/nu
and its Ritz vector.  The gap is computed on first read, by two more
runs: the even sector's top two Ritz pairs give the next even level, the
odd sector's top one its lowest level, and the gap is the nearer of the
two.  Only the ground vector is mapped back: B_ee and B_oo become the
blocks v_e B_ee v_e^T and v_o B_oo v_o^T of W = dx psi in the parity
fold, the latter cut from its padding, symmetrized and normalized.  The
residual ||H psi - E psi|| dx is checked on those two blocks
(``_residual``): the fold is orthonormal and commutes with h, so no
N x N array is formed.  The sign is read on the rows x >= 0 of psi
(``analysis._unfold_half``), the blocks are flipped if need be, and they
become the state's ``analysis.DensityMatrix``, which the observable
chain reads as they are.  psi on the whole mesh is that density's
``amplitudes``, unfolded only when read, with its rows x < 0 copied from
its rows x >= 0, so it is parity-even to the last bit.  Every run is
``eigsh``, a numpy Lanczos with full reorthogonalization, which stops
once each Ritz pair it reports meets |beta_m s_mi| <= 1e-10 theta_i and
raises ConvergenceError after 300 steps; no route of the package needs
scipy.

Only the capacitances depend on g1d.  Per kappa, ground_state_solver
folds h once and builds its two eigh, sigma and d, and the first
application of the even sector forms the even K, N^4 / 16
multiply-adds; per g1d, the first application inverts the even
capacitance, and the one Lanczos iteration of the ground state follows.
Only the gap reads the odd sector, so its K, N^4 / 32 multiply-adds, is
formed on the first gap read of a kappa row, and its capacitance on the
first gap read of a point.  ground_state is the one-coupling case.  The
mesh (``analysis.Grid``) and the fold maps live in ``analysis``, which
this module imports.  numpy comes through the lazy seam ``_numpy.np``
and loads on the first array formed, so importing this module, as
``cli`` does, loads none.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from . import analysis
from ._numpy import np
from .analysis import DensityMatrix, _fold, _half_rows, _unfold_half
from .single_particle import check_coupling

_DEGENERACY_GAP = 1e-6
# Bound on ||H psi - E psi|| dx for a unit-norm psi; a pair this far off
# is not an eigenpair.  Over kappa in {0, 1, 10, inf} x g1d in {0, 1,
# 500, inf}, converged pairs sit at 3.1e-11 to 1.1e-8 on 81 / 0.16,
# 8.0e-11 to 3.5e-8 on 161 / 0.08 and 1.8e-10 to 1.06e-7 on 321 / 0.04.
# That is not the rounding floor of H: it grows about 3x per halving of
# dx, because the Lanczos stop is relative on the Ritz value, not on the
# vector.
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


def _sector(left, right, d, weight):
    """One sector's start vector and c -> its (H - sigma)^-1 on the flat coefficients.

    ``left``, ``right`` and ``d`` are (s, n, n) stacks: the rows x >= 0 of
    the fold bases on either side of the coefficient blocks, and the
    separable inverse d_ij = 1 / (eps_i + eps_j - sigma) of those blocks.
    ``weight`` is the multiplicity of each diagonal point x_a >= 0 in the
    norm of the coefficients, so the contact term adds c * weight to the
    capacitance (module docstring).  The kernel K is formed on the
    sector's first application, and the capacitance on the first
    application at each c.  When ``right`` is ``left`` the output is
    symmetrized, so the exchange-antisymmetric states map to zero.
    """
    kernel = functools.cache(lambda: _kernel(left, right, d))

    def at_contact(c):
        capacitance = functools.cache(lambda: _woodbury(kernel(), c * weight))

        def inverse(b):
            y = d * b.reshape(d.shape)
            z = capacitance() @ np.sum((left @ y) * right, axis=(0, 2))
            y -= d * ((left.transpose(0, 2, 1) * z) @ right)
            return (0.5 * (y + y.transpose(0, 2, 1)) if left is right else y).ravel()

        return inverse

    return d.ravel() / np.linalg.norm(d), at_contact


def _shifted_inverse(h_even, h_odd):
    """Stacked fold bases, shift sigma and c -> both sectors' (H - sigma)^-1.

    Takes the folded blocks of the one-body h (``analysis._fold``) and
    returns (basis, sigma, starts, at_contact): the (2, n, n) stack of the
    eigenvectors of ``h_even`` and of ``h_odd`` padded with a zero row and
    column, the shift, both sectors' start vectors (their parts of d,
    normalized), and ``at_contact(c)``, which returns one coupling's even
    and odd inverses (``_sector``) on the flat sector coefficients: the
    stack (B_ee, B_oo) and X, each with its odd side padded by a zero last
    column (module docstring).  The padding stays exactly zero.
    """
    eps_e, v_e = np.linalg.eigh(h_even)
    eps_o, v_o = np.linalg.eigh(h_odd)
    basis = np.stack((v_e, np.pad(v_o, (0, 1))))
    rows = np.stack(_half_rows(v_e, basis[1, :-1]))
    sigma = 2.0 * min(eps_e[0], eps_o[0]) - 1.0 / 16.0
    # The padded level sits at infinity, so d is exactly zero on the padding.
    eps = np.stack((eps_e, np.append(eps_o, math.inf)))
    d = 1.0 / (eps[:, :, None] + eps[:, None, :] - sigma)
    d_odd = 1.0 / (eps[:1, :, None] + eps[1:, None, :] - sigma)
    multiplicity = np.append(1.0, np.full(eps_e.size - 1, 2.0))
    even = _sector(rows, rows, d, multiplicity)
    # In the odd sector psi_aa = 2 diag(e X o^T)_a and |B|^2 = 2 |X|^2.
    odd = _sector(rows[:1], rows[1:], d_odd, 2.0 * multiplicity)
    return basis, sigma, (even[0], odd[0]), lambda c: (even[1](c), odd[1](c))


def _residual(h_even, h_odd, c, energy, even, odd):
    """||H psi - E psi|| dx from the fold blocks ``even`` and ``odd`` of W = dx psi.

    The fold is orthonormal and commutes with h, so each block B carries
    its own residual h B + B h + c diag(W(x, x)) - E B over the folded h,
    where W(0, 0) = even_00 and W(x_a, x_a) = (even_aa + odd_(a-1)(a-1)) / 2
    for x_a > 0.
    """
    diagonal = np.append(even[0, 0], 0.5 * (np.diag(even)[1:] + np.diag(odd)))
    parts = ((h_even, even, diagonal), (h_odd, odd, diagonal[1:]))
    return math.sqrt(sum(np.sum((h @ b + b @ h + np.diag(c * x) - energy * b) ** 2)
                         for h, b, x in parts))


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
    x = vec.reshape(n, n)
    v = w[:, None] + w[None, :]
    v[np.diag_indices_from(v)] += c
    return (t @ x + x @ t + v * x).ravel()


@dataclass(frozen=True, eq=False)
class TwoBodyState:
    """Ground state on the product mesh.

    ``density`` is its ``analysis.DensityMatrix``: the two parity blocks
    of W = dx * Psi in the fold basis of ``analysis._fold``, of sizes
    (N + 1)/2 and (N - 1)/2, both exactly symmetric and read-only, with
    squared norms that sum to 1.  ``density.amplitudes`` is the N x N
    array Psi(q_i, q_j), formed only when read, so sum(Psi^2) * dx^2 = 1,
    and Psi is symmetric, parity-even to the last bit, and positive at
    its first peak in row-major order, where entries within 1e-8 of
    max |Psi| tie.  The solve reads that sign on the rows x >= 0 alone,
    where the last peak is the mirror image of the first.
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

    Everything that depends on kappa alone is built once a solver: the
    folded one-body h, its eigenbases, sigma and d here, each sector's
    kernel on its first application (module docstring).  A call of the
    returned function gives the same bits as
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
        residual ||H psi - E psi|| dx of the returned pair, formed on its
        two fold blocks, exceeds 1e-6; from the first read of ``gap``, if
        one of its iterations does not converge.
    """
    kappa, t, w = _one_body(grid, kappa)
    h = _fold(t + np.diag(w))
    basis, sigma, (even_start, odd_start), at_contact = _shifted_inverse(*h)

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
        even, odd = blocks[0] / norm, blocks[1, :-1, :-1] / norm
        residual = _residual(*h, c, energy, even, odd)
        if not residual <= _RESIDUAL_BOUND:
            raise ConvergenceError(f"{failure}: residual ||H psi - E psi|| = {residual:.3e}")
        # The rows x >= 0 of psi: the last peak there in row-major order is
        # the mirror image of the first peak on the whole mesh.
        half = _unfold_half(even, odd) / grid.spacing
        magnitude = np.abs(half).ravel()
        peak = np.flatnonzero(magnitude >= (1.0 - _PEAK_TIE) * magnitude.max())[-1]
        if half.flat[peak] < 0.0:
            even, odd = -even, -odd
        return TwoBodyState(float(energy), DensityMatrix(even, odd, grid), gap)

    return solve


def ground_state(grid, kappa, g1d):
    """Lowest bosonic eigenpair at barrier kappa and contact coupling g1d.

    ``ground_state_solver(grid, kappa)(g1d)``: see there for the
    arguments and the errors, and the module docstring for the method.
    """
    return ground_state_solver(grid, kappa)(g1d)
