"""Analytic Tonks-Girardeau pair in the split trap.

In the hard-core limit the two-boson ground state is the magnitude of
the free-fermion Slater determinant built from the two lowest
single-particle levels,

    Psi(x1, x2) = |phi_0(x1) phi_1(x2) - phi_0(x2) phi_1(x1)| / sqrt(2),

valid for every barrier strength including the infinite-barrier limit.
``tonks_state`` solves the two levels once and binds the mesh the
caller names.  The state's ``occupations`` are ``tonks_occupations`` of
it and its ``density`` is ``tonks_rspd`` of it, each formed on first
read, so a point's energy, occupations and density matrix share one
solve.

The occupations need no mesh.  On x, y >= 0 the two parity blocks of
Psi (``tonks_rspd``) are the kernels sqrt(2) phi_0(x) phi_0(y)
max(r(x), r(y)) and -sqrt(2) phi_0(x) phi_0(y) min(r(x), r(y)), with
r = phi_1 / phi_0 increasing since Wr = phi_0 phi_1' - phi_1 phi_0' > 0.
Both are Green's functions of one Sturm-Liouville operator (Courant &
Hilbert, Methods of Mathematical Physics I, ch. V): an eigenfunction
f = phi_0 h of either block, of eigenvalue lambda, solves

    -(P h')' = mu Q h,   P = phi_0^2 / Wr,   Q = phi_0^2,   mu = -sqrt(2) / lambda,

on x >= 0, the even block with h'(0) = 0 and the odd one with h(0) = 0.
Past the cut X = 7 the even block's h is proportional to r, the Robin
end P h' = h / r, and the odd block's end is natural.  The occupations
are lambda^2 = 2 / mu^2 (Paskauskas & You, Phys. Rev. A 64, 042310
(2001)).  ``tonks_occupations`` solves both pencils by Galerkin on
Gauss-Lobatto spectral elements of degree 14, 0.5 wide on [0, 4], with
two tail elements and, for kappa >= 0.8, elements graded by 4 toward 0
down to 0.1 / kappa, since r climbs from 0 over about 1 / kappa.  Wr
comes from the orbitals and their neighbours of order nu + 1 by DLMF
12.8.3.  The mass matrix is the Lobatto quadrature of Q, so it is
diagonal but for the one basis function that is not a nodal one: the
even sector's basis is the nodal functions l_j vanishing at X and 1,
the odd sector's those vanishing at 0 and X and r.  P is large where r
is flat, up to about kappa, but the stiffness of those two functions is
exact, with no quadrature of P: the integral of P v' w' is 0 against
1, and r(X) and 0 for r against r and l_j, since P r' = 1.  So no
cancellation between large entries spoils the top occupations at large
kappa.  Each pencil is solved through the Cholesky factor of its
stiffness (shifted by 4 M in the even sector, where the Robin term
makes it indefinite) and ``eigvalsh``.  The occupations 8 to 14 of
each sector fix a Weyl tail, n_k^(-1/4) = alpha k + beta + gamma / k +
delta / k^2, that is carried on down to the 1e-12 floor of
``analysis.von_neumann_entropy``.  At kappa = inf, r = 1 and the
occupations are 1/2 and 1/2 exactly; so they are taken once the two
levels are within 1e-12, where the exact ones differ from them by less.

The density matrix, which rspd and momentum read, lives on the state's
mesh, and ``tonks_rspd`` keeps it as the two orbitals on x >= 0 and a
scale, O(N) numbers.  On the mesh the two blocks are the same
semi-separable kernels, so momentum applies each of them to its K
phase rows by two cumulative sums, O(N K) work, where the blocks alone
would be O(N^2) and their product O(N^2 K); this is the discrete form
of the cumulative overlaps behind the exact hard-core density matrix
(Pezer & Buljan, Phys. Rev. Lett. 98, 240403 (2007)).  The blocks
themselves, and psi and rho on the mesh, are formed only when read,
which the CLI does for rspd alone.  This route needs neither the grid
solver nor scipy, and the pair energy needs no numpy, which the lazy
seam ``_numpy.np`` loads on the first array formed.  The module also
carries the two closed-form momentum distributions of the
infinite-barrier limit (hard-core pair and non-interacting pair).
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

from . import specfun
from ._numpy import np
from .analysis import _ENTROPY_FLOOR, DensityMatrix, Grid, GridError, _read_only
from .single_particle import EigenState, eigenfunction, spectrum

_MIN_RSPD_SPAN = 6.0
_TRACE_ERROR_LIMIT = 1e-3
# The occupation pencils (module docstring): element degree, the element
# breaks on [0, 7] past the graded ones, the even sector's shift and the
# occupations of each sector that fix its tail.
_DEGREE = 14
_BREAKS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.5, 7.0)
_EVEN_SHIFT = 4.0
_TAIL_FIT = (8, 14)


@dataclass(frozen=True)
class TonksState:
    """Hard-core pair at one barrier strength.

    Holds the two mapped orbitals and the pair energy; orbital
    orthonormality makes the determinant wavefunction unit-normalized.
    ``occupations``, ``tonks_occupations(state)``, reads the orbitals
    alone.  ``density`` is the pair's ``analysis.DensityMatrix`` on
    ``grid``, ``tonks_rspd(state)``; reading it may raise GridError.
    Both are formed on first read and kept.  ``diagnostics``, the
    per-point fields the JSON table prints beside the energy, is empty
    for this route.
    """

    kappa: float
    energy: float
    even_orbital: EigenState
    odd_orbital: EigenState
    grid: Grid

    @cached_property
    def occupations(self):
        return tonks_occupations(self)

    @cached_property
    def density(self):
        return tonks_rspd(self)

    @property
    def diagnostics(self):
        return {}

    def orbitals(self, x):
        """The even and the odd orbital at x."""
        return eigenfunction(self.even_orbital, x), eigenfunction(self.odd_orbital, x)

    def wavefunction(self, x1, x2):
        """Pair wavefunction at coordinates x1, x2 (scalars or arrays)."""
        (phi0_a, phi1_a), (phi0_b, phi1_b) = self.orbitals(x1), self.orbitals(x2)
        return np.abs(phi0_a * phi1_b - phi0_b * phi1_a) / math.sqrt(2.0)


def tonks_state(kappa, grid):
    """Hard-core pair state at barrier strength kappa (a float, math.inf allowed).

    Its orbitals are the two lowest levels of ``spectrum(kappa, 2)``;
    ``grid`` is the mesh its ``density`` is formed on (see
    ``tonks_rspd``).
    """
    even, odd = spectrum(kappa, 2)
    return TonksState(kappa, even.energy + odd.energy, even, odd, grid)


@cache
def _lobatto():
    # Gauss-Lobatto nodes, weights and differentiation matrix of degree p
    # on [-1, 1].  The inner nodes are the roots of P_p', the Gauss-Jacobi
    # (1, 1) nodes, by Golub-Welsch: eigvalsh reads the lower triangle of
    # the Jacobi matrix alone.
    p = _DEGREE
    k = np.arange(1.0, p - 1)
    jacobi = np.diag(np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0))), -1)
    x = np.concatenate(([-1.0], np.linalg.eigvalsh(jacobi), [1.0]))
    lower, legendre = np.ones_like(x), x
    for m in range(1, p):
        lower, legendre = legendre, ((2 * m + 1) * x * legendre - m * lower) / (m + 1)
    gaps = x[:, None] - x
    np.fill_diagonal(gaps, 1.0)
    diff = legendre[:, None] / legendre / gaps
    np.fill_diagonal(diff, 0.0)
    diff[0, 0], diff[-1, -1] = -p * (p + 1) / 4.0, p * (p + 1) / 4.0
    return x, 2.0 / (p * (p + 1) * legendre**2), diff


def _raised(orbital, x):
    # D_(nu+1)(sqrt(2) x) / ||D_nu|| for the level of order nu = E - 1/2,
    # on x >= 0, from the normalized functions of specfun.
    nu = orbital.energy - 0.5
    norm = specfun._line_norm
    scale = math.sqrt((nu + 1.0) * norm(nu + 1.0) / norm(nu))
    return scale * specfun.parabolic_cylinder(nu + 1.0, x)


def _sector(stiff, corner, mass, border, last, shift):
    """Occupations 2 (nu / (1 - shift nu))^2 of one sector's pencil.

    The basis is the nodal functions of ``stiff`` and ``mass`` (the
    lumped mass on their diagonal) and one more function, last, with
    stiffness ``corner``, mass ``last`` and the mass ``border`` against
    the nodal ones.  With A = K + shift M = L L^T and G = L^-1, nu runs
    over the eigenvalues of G M G^T, 1 / (mu + shift).  M is diagonal
    but for its last row and column, and G is lower triangular, so
    G M G^T = Y Y^T with Y = G sqrt(diag M), plus G b in its last row
    and column, over L's last pivot: one matrix product.
    """
    diag = np.append(mass, last)
    a = np.diag(shift * diag)
    a[:-1, :-1] += stiff
    a[-1, -1] += corner
    a[-1, :-1] = a[:-1, -1] = shift * border
    low = np.linalg.cholesky(a)
    g = np.linalg.inv(low)
    y = g * np.sqrt(diag)
    c = y @ y.T
    edge = g[:, :-1] @ border / low[-1, -1]
    c[-1] += edge
    c[:, -1] += edge
    nu = np.linalg.eigvalsh(c)
    return np.sort(2.0 * (nu / (1.0 - shift * nu)) ** 2)[::-1]


def _with_tail(occupations):
    # The resolved occupations up to k = 14 and the fitted Weyl tail past
    # it, down to the entropy floor; none if the 14th is below the floor.
    lo, hi = _TAIL_FIT
    if occupations[hi - 1] < _ENTROPY_FLOOR:
        return occupations[:hi]

    def terms(k):
        return k[:, None] * np.vander(1.0 / k, 4, increasing=True)

    k = np.arange(lo, hi + 1.0)
    coef = np.linalg.lstsq(terms(k), occupations[lo - 1 : hi] ** -0.25, rcond=None)[0]
    # alpha k + beta reaches the floor's 1000 at about this k.
    k = np.arange(hi + 1.0, (_ENTROPY_FLOOR**-0.25 - coef[1]) / coef[0] + 2.0)
    tail = (terms(k) @ coef) ** -4.0
    return np.concatenate((occupations[:hi], tail[tail >= _ENTROPY_FLOOR]))


def tonks_occupations(state):
    """Natural occupations of the hard-core pair, sorted in descending order.

    They come from the state's two orbitals alone, with no mesh: each
    parity sector is a Sturm-Liouville pencil on [0, 7], solved on
    spectral elements, and its occupations past the 14th are the fitted
    Weyl tail, carried down to 1e-12 (module docstring).  At kappa = inf,
    where the two orbitals agree on x >= 0, they are exactly 1/2 and 1/2.
    Near that limit the top two are 1/2 +- 0.42 (E_1 - E_0) and the rest
    are of order (E_1 - E_0)^2, while Wr, of order E_1 - E_0, loses its
    digits to rounding; so once E_1 - E_0 is within the 1e-12 entropy
    floor (kappa above about 1.1e12) they are 1/2 and 1/2 too.  The
    returned array is read-only.
    """
    even, odd = state.even_orbital, state.odd_orbital
    if odd.energy - even.energy <= _ENTROPY_FLOOR:
        return _read_only(np.array([0.5, 0.5]))
    # Toward a strong barrier, where r climbs from 0 over about 1 / kappa,
    # the first element is split at 0.5 / 4^j, j >= 1, down to 0.1 / kappa.
    edge, graded = 0.125, []
    while edge * state.kappa >= 0.1:
        graded.insert(0, edge)
        edge /= 4.0
    x, w, diff = _lobatto()
    edges = np.array([0.0, *graded, *_BREAKS])
    half = 0.5 * np.diff(edges)
    nodes = np.append(edges[:-1, None] + half[:, None] * (x[:-1] + 1.0), edges[-1])
    phi0, phi1 = state.orbitals(nodes)
    # Wr = phi_0 phi_1' - phi_1 phi_0' by DLMF 12.8.3,
    # D_nu'(z) = z D_nu(z) / 2 - D_(nu+1)(z), where the x phi_0 phi_1 terms
    # cancel exactly.
    wronskian = math.sqrt(2.0) * (phi1 * _raised(even, nodes) - phi0 * _raised(odd, nodes))
    q = phi0 * phi0
    p = q / wronskian
    stiff = np.zeros((nodes.size, nodes.size))
    mass = np.zeros(nodes.size)
    for e, h in enumerate(half):
        span = slice(e * _DEGREE, (e + 1) * _DEGREE + 1)
        stiff[span, span] += (diff.T * (w * p[span] / h)) @ diff
        mass[span] += h * w * q[span]
    r = phi1 / phi0
    # Even: l_0..l_(n-1) and 1, with the Robin end -h(X) v(X) / r(X).
    # Odd: l_1..l_(n-1) and r, with a(r, r) = r(X).
    even_sector = _sector(stiff[:-1, :-1], -1.0 / r[-1], mass[:-1], mass[:-1], mass.sum(),
                          _EVEN_SHIFT)
    odd_sector = _sector(stiff[1:-1, 1:-1], r[-1], mass[1:-1], (mass * r)[1:-1],
                         np.sum(mass * r * r), 0.0)
    occupations = np.concatenate((_with_tail(even_sector), _with_tail(odd_sector)))
    return _read_only(np.sort(occupations)[::-1])


class _HalfMeshDensity(DensityMatrix):
    """``tonks_rspd``'s density, kept as the orbitals phi_0 and phi_1 on x >= 0 and its scale s.

    phi_0 carries the sqrt(1/2) of row 0.  The blocks, and with them
    ``amplitudes``, ``values`` and ``orbitals``, are formed on first
    read.  ``apply_blocks`` needs none of them: r = phi_1 / phi_0 rises,
    so the even block is s phi_1(x_i) phi_0(x_j) for j <= i and
    s phi_0(x_i) phi_1(x_j) for j > i, the odd block -s phi_0(x_i)
    phi_1(x_j) and -s phi_1(x_i) phi_0(x_j), and either times a vector
    is two cumulative sums over the mesh.  No r is formed, as phi_0
    underflows to 0 far out.
    """

    def __init__(self, phi0, phi1, scale, grid):
        # The frozen fields are written past the dataclass guard.
        vars(self).update(phi0=phi0, phi1=phi1, scale=scale, grid=grid)

    @cached_property
    def _blocks(self):
        # a = s A and a^T = s B.  The scale goes on after the product, so
        # that at kappa = inf, where phi_0 = phi_1 on x >= 0, A = B to the
        # last bit and Psi(x, y) unfolds to an exact 0 for x, y > 0.
        a = self.phi0[:, None] * self.phi1 * self.scale
        return _read_only(np.maximum(a, a.T)), _read_only(-np.minimum(a, a.T)[1:, 1:])

    even = property(lambda self: self._blocks[0])
    odd = property(lambda self: self._blocks[1])

    def apply_blocks(self, even_vectors, odd_vectors):
        def times(near, far, v, scale):
            # scale (near_i sum_(j <= i) far_j v_j + far_i sum_(j > i) near_j v_j).
            near = scale * near[:, None]
            out = np.cumsum(far[:, None] * v, axis=0)
            out *= near
            out[:-1] += far[:-1, None] * np.cumsum((near * v)[:0:-1], axis=0)[::-1]
            return out

        return (times(self.phi1, self.phi0, even_vectors, self.scale),
                times(self.phi0[1:], self.phi1[1:], odd_vectors, -self.scale))


def check_rspd_span(grid):
    """Raise GridError if ``grid`` does not cover [-6, 6], the span the pair density needs."""
    if grid.span < _MIN_RSPD_SPAN - 1e-12:
        raise GridError(
            f"grid spans [-{grid.span:.3g}, {grid.span:.3g}] but the pair "
            "density needs at least [-6, 6]"
        )


def tonks_rspd(state):
    """Reduced single-particle density matrix of the hard-core pair on ``state.grid``.

    rho(x, x') = integral Psi(x, y) Psi(x', y) dy by trapezoid-equivalent
    quadrature on the mesh.  The result is a ``DensityMatrix`` of the two
    parity blocks of W = dx * Psi, re-normalized on the mesh, that holds
    only phi_0 and phi_1 on x >= 0 and the scale, in O(N).  Its blocks,
    read-only, Psi on the whole mesh and rho itself are formed only if
    they are read; ``apply_blocks``, all that momentum reads, applies the
    blocks by cumulative sums without forming them.  ``state.density``
    is this result, kept.

    The blocks come from the orbitals on the rows x >= 0 alone.  There
    D(x, y) = A - B and D(x, -y) = -A - B, with A = phi_0(x) phi_1(y) and
    B = phi_1(x) phi_0(y), because phi_0 is even and phi_1 odd.  Neither
    orbital is negative on x >= 0, so A, B >= 0, |A - B| + (A + B) =
    2 max(A, B) and |A - B| - (A + B) = -2 min(A, B).  The fold (``analysis._fold``) takes
    the sum of Psi(x, y) and Psi(x, -y) to the even block and their
    difference to the odd block, so with Psi = |D| / sqrt(2)

        even = sqrt(2) dx max(A, B), the row and column of x = 0
               scaled by sqrt(1/2),
        odd  = -sqrt(2) dx min(A, B) for x, y > 0.

    Both are symmetric exactly.  The fold is orthonormal, so the raw
    quadrature norm dx^2 sum(Psi^2) is the sum of their squared norms,
    and that is the Gram determinant of the two orbitals on the mesh,
    (dx sum phi_0^2)(dx sum phi_1^2), since their mesh overlap vanishes
    by parity: the norm takes O(N) work, not O(N^2).

    Parameters
    ----------
    state : TonksState
        The pair at one barrier strength, as ``tonks_state`` returns it.
        Its ``grid`` is a symmetric mesh covering at least [-6, 6]; the
        CLI's default for this route is 161 points at dx = 0.08.

    Raises
    ------
    GridError
        If the mesh does not cover [-6, 6], or is so coarse that the
        quadrature trace misses 1 by more than 1e-3.
    """
    grid = state.grid
    check_rspd_span(grid)
    phi0, phi1 = state.orbitals(grid.points[grid.center_index :])
    # phi_1(0) = 0, so the sqrt(1/2) on the row and the column of x = 0
    # is phi_0(0)'s.  Then 2 sum(phi0^2) is phi_0's mesh sum over x < 0,
    # x = 0 and x > 0 together.
    phi0[0] *= math.sqrt(0.5)
    raw_norm = 4.0 * grid.spacing**2 * np.sum(phi0 * phi0) * np.sum(phi1 * phi1)
    if abs(raw_norm - 1.0) > _TRACE_ERROR_LIMIT:
        raise GridError(
            f"quadrature norm {raw_norm:.6f} deviates from 1 by more than "
            f"{_TRACE_ERROR_LIMIT}; the mesh is too coarse for the pair density"
        )
    # Re-normalized on the mesh so the density trace is exact; the raw
    # deviation above is the mesh-quality signal.
    return _HalfMeshDensity(phi0, phi1, math.sqrt(2.0) * grid.spacing / math.sqrt(raw_norm), grid)


def _momentum_bracket(k2):
    # 1 - k^2 e^(-z) M(1/2, 3/2, z) at z = k^2/2.  To z = 200, M is the
    # power series sum_n z^n / (n! (2n + 1)), summed to a relative 1e-16
    # (z = 200 takes 325 terms); past that e^z overflows separately, so
    # the bracket is summed from the large-z expansion
    # -(sum_{s>=1} (1/2)_s z^-s), truncated at its (far sub-epsilon)
    # smallest term.
    z = 0.5 * k2
    out = np.empty_like(z)
    small = z <= 200.0
    zs = z[small]
    term = total = np.ones_like(zs)
    for n in range(1, 400):
        term = term * ((n - 0.5) / (n + 0.5)) * zs / n
        total = total + term
        if np.all(term <= 1e-16 * total):
            break
    out[small] = 1.0 - 2.0 * zs * np.exp(-zs) * total
    zl = z[~small]
    total, term = np.zeros_like(zl), np.ones_like(zl)
    for s in range(1, 60):
        term = term * (s - 0.5) / zl
        total = total + term
        if np.all(term <= 1e-17 * total):
            break
    out[~small] = -total
    return out


def _closed_form(k, density):
    # density(k^2, bracket) on scalar or array k.
    karr = np.asarray(k, dtype=float)
    k2 = karr * karr
    out = density(k2, _momentum_bracket(k2))
    return float(out) if karr.ndim == 0 else out


def momentum_tg_infinite_barrier(k):
    """Closed-form momentum density of the hard-core pair at kappa = inf.

    n(k) = (2 / pi^(3/2)) { [1 - k^2 e^(-k^2/2) M(1/2, 3/2, k^2/2)]^2
                            + (pi/2) k^2 e^(-k^2) }
    """
    return _closed_form(
        k, lambda k2, bracket: (2.0 / math.pi**1.5) * (bracket**2 + 0.5 * math.pi * k2 * np.exp(-k2))
    )


def momentum_noninteracting_infinite_barrier(k):
    """Closed-form momentum density of the non-interacting pair at kappa = inf.

    n(k) = (4 / pi^(3/2)) [1 - k^2 e^(-k^2/2) M(1/2, 3/2, k^2/2)]^2
    """
    return _closed_form(k, lambda k2, bracket: (4.0 / math.pi**1.5) * bracket**2)
