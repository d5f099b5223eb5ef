"""Analytic Tonks-Girardeau pair in the split trap.

In the hard-core limit the two-boson ground state is the magnitude of
the free-fermion Slater determinant built from the two lowest
single-particle levels,

    Psi(x1, x2) = |phi_0(x1) phi_1(x2) - phi_0(x2) phi_1(x1)| / sqrt(2),

valid for every barrier strength including the infinite-barrier limit.
``tonks_state`` solves the two levels once and binds the mesh the
caller names; the state's ``density`` is ``tonks_rspd`` of it, formed on
first read, so a point's energy and its density matrix share one solve.
The mesh and the density matrix come from ``analysis``; this route
needs neither the grid solver nor scipy, and the pair energy needs no
numpy, which the lazy seam ``_numpy.np`` loads on the first array formed.
The module also carries the two closed-form momentum distributions of
the infinite-barrier limit (hard-core pair and non-interacting pair).
"""

import math
from dataclasses import dataclass
from functools import cached_property

from ._numpy import np
from .analysis import DensityMatrix, Grid, GridError
from .single_particle import EigenState, eigenfunction, spectrum

_MIN_RSPD_SPAN = 6.0
_TRACE_ERROR_LIMIT = 1e-3


@dataclass(frozen=True)
class TonksState:
    """Hard-core pair at one barrier strength.

    Holds the two mapped orbitals and the pair energy; orbital
    orthonormality makes the determinant wavefunction unit-normalized.
    ``density`` is the pair's ``analysis.DensityMatrix`` on ``grid``,
    ``tonks_rspd(state)``, formed on first read and kept; reading it may
    raise GridError.  ``diagnostics``, the per-point fields the JSON
    table prints beside the energy, is empty for this route.
    """

    energy: float
    even_orbital: EigenState
    odd_orbital: EigenState
    grid: Grid

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
    return TonksState(even.energy + odd.energy, even, odd, grid)


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
    quadrature on the mesh.  The result holds the two parity blocks of
    W = dx * Psi (``DensityMatrix``), read-only and re-normalized on the
    mesh; Psi on the whole mesh and rho itself are formed only if they
    are read.  ``state.density`` is this result, kept.

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
    # a = sqrt(2) dx A and a^T = sqrt(2) dx B, re-normalized on the mesh
    # so the density trace is exact; the raw deviation above is the
    # mesh-quality signal.  The scale goes on after the product, so that
    # at kappa = inf, where phi_0 = phi_1 on x >= 0, A = B to the last
    # bit and Psi(x, y) unfolds to an exact 0 for x, y > 0.
    a = phi0[:, None] * phi1 * (math.sqrt(2.0) * grid.spacing / math.sqrt(raw_norm))
    return DensityMatrix(np.maximum(a, a.T), -np.minimum(a, a.T)[1:, 1:], grid)


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
