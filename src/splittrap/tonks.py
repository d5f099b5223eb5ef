"""Analytic Tonks-Girardeau pair in the split trap.

In the hard-core limit the two-boson ground state is the magnitude of
the free-fermion Slater determinant built from the two lowest
single-particle levels,

    Psi(x1, x2) = |phi_0(x1) phi_1(x2) - phi_0(x2) phi_1(x1)| / sqrt(2),

valid for every barrier strength including the infinite-barrier limit.
The module also carries the two closed-form momentum distributions of
the infinite-barrier limit (hard-core pair and non-interacting pair).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .analysis import DensityMatrix
from .dvr import GridError, build_grid
from .single_particle import EigenState, eigenfunction, spectrum

_MIN_RSPD_SPAN = 6.0
_TRACE_ERROR_LIMIT = 1e-3

DEFAULT_ANALYTIC_POINTS = 161
DEFAULT_ANALYTIC_SPACING = 0.08


def default_analysis_grid():
    """Mesh used for analytic-route observables: 161 points, dx = 0.08."""
    return build_grid(DEFAULT_ANALYTIC_POINTS, DEFAULT_ANALYTIC_SPACING)


@dataclass(frozen=True)
class TonksState:
    """Hard-core pair at one barrier strength.

    Holds the two mapped orbitals and the pair energy; orbital
    orthonormality makes the determinant wavefunction unit-normalized.
    ``kappa`` is the barrier strength, math.inf for the impenetrable one.
    """

    kappa: float
    pair_energy: float
    even_orbital: EigenState
    odd_orbital: EigenState

    def orbitals(self, x):
        """The even and the odd orbital at x."""
        return eigenfunction(self.even_orbital, x), eigenfunction(self.odd_orbital, x)

    def wavefunction(self, x1, x2):
        return _slater(self.orbitals(x1), self.orbitals(x2))


def _slater(at_x1, at_x2):
    # |phi_0(x1) phi_1(x2) - phi_0(x2) phi_1(x1)| / sqrt 2 from the two
    # orbitals at x1 and at x2.
    (phi0_a, phi1_a), (phi0_b, phi1_b) = at_x1, at_x2
    return np.abs(phi0_a * phi1_b - phi0_b * phi1_a) / math.sqrt(2.0)


def tonks_state(kappa):
    """Hard-core pair state at barrier strength kappa (a float, math.inf allowed).

    Its orbitals are the two lowest levels of ``spectrum(kappa, 2)``.
    """
    even, odd = spectrum(kappa, 2)
    return TonksState(even.kappa, even.energy + odd.energy, even, odd)


def tonks_energy(kappa):
    """Pair energy: lowest even level + 3/2."""
    return tonks_state(kappa).pair_energy


def tonks_wavefunction(kappa, x1, x2):
    """Hard-core pair wavefunction at coordinates x1, x2 (scalars or arrays)."""
    return tonks_state(kappa).wavefunction(x1, x2)


def check_rspd_span(grid):
    """Raise GridError if ``grid`` does not cover [-6, 6], the span the pair density needs."""
    if grid.span < _MIN_RSPD_SPAN - 1e-12:
        raise GridError(
            f"grid spans [-{grid.span:.3g}, {grid.span:.3g}] but the pair "
            "density needs at least [-6, 6]"
        )


def tonks_rspd(kappa, grid=None):
    """Reduced single-particle density matrix of the hard-core pair.

    rho(x, x') = integral Psi(x, y) Psi(x', y) dy by trapezoid-equivalent
    quadrature on the mesh.  The result holds the sampled Psi,
    re-normalized on the mesh; rho itself is formed only if its
    ``values`` are read.

    Parameters
    ----------
    kappa : float
        Barrier strength, >= 0; math.inf is the impenetrable barrier.
    grid : Grid, optional
        Symmetric mesh covering at least [-6, 6]; defaults to the
        161-point, dx = 0.08 analysis mesh.

    Raises
    ------
    GridError
        If the mesh does not cover [-6, 6], or is so coarse that the
        quadrature trace misses 1 by more than 1e-3.
    """
    if grid is None:
        grid = default_analysis_grid()
    check_rspd_span(grid)
    # Each orbital is evaluated once on the mesh; Psi is their outer products.
    phi0, phi1 = tonks_state(kappa).orbitals(grid.points)
    psi = _slater((phi0[:, None], phi1[:, None]), (phi0, phi1))
    raw_norm = np.sum(psi * psi) * grid.spacing**2
    if abs(raw_norm - 1.0) > _TRACE_ERROR_LIMIT:
        raise GridError(
            f"quadrature norm {raw_norm:.6f} deviates from 1 by more than "
            f"{_TRACE_ERROR_LIMIT}; the mesh is too coarse for the pair density"
        )
    # Re-normalize on the mesh so the density trace is exact; the raw
    # deviation above is the mesh-quality signal.
    return DensityMatrix(psi / math.sqrt(raw_norm), grid)


def _momentum_bracket(k2):
    # 1 - k^2 e^(-z) M(1/2, 3/2, z) at z = k^2/2.  The power series holds
    # to z = 200; past that e^z overflows separately, so the bracket is
    # summed from the large-z expansion -(sum_{s>=1} (1/2)_s z^-s),
    # truncated at its (far sub-epsilon) smallest term.
    z = 0.5 * k2
    out = np.empty_like(z)
    small = z <= 200.0
    if np.any(small):
        zs = z[small]
        out[small] = 1.0 - 2.0 * zs * np.exp(-zs) * specfun.kummer_m(0.5, 1.5, zs)
    if np.any(~small):
        zl = z[~small]
        total = np.zeros_like(zl)
        term = np.ones_like(zl)
        for s in range(1, 60):
            term = term * (s - 0.5) / zl
            total = total + term
            if np.all(term <= 1e-17 * total):
                break
        out[~small] = -total
    return out


def momentum_tg_infinite_barrier(k):
    """Closed-form momentum density of the hard-core pair at kappa = inf.

    n(k) = (2 / pi^(3/2)) { [1 - k^2 e^(-k^2/2) M(1/2, 3/2, k^2/2)]^2
                            + (pi/2) k^2 e^(-k^2) }
    """
    karr = np.asarray(k, dtype=float)
    scalar = karr.ndim == 0
    k2 = karr * karr
    bracket = _momentum_bracket(k2)
    out = (2.0 / math.pi**1.5) * (bracket**2 + 0.5 * math.pi * k2 * np.exp(-k2))
    return float(out) if scalar else out


def momentum_noninteracting_infinite_barrier(k):
    """Closed-form momentum density of the non-interacting pair at kappa = inf.

    n(k) = (4 / pi^(3/2)) [1 - k^2 e^(-k^2/2) M(1/2, 3/2, k^2/2)]^2
    """
    karr = np.asarray(k, dtype=float)
    scalar = karr.ndim == 0
    k2 = karr * karr
    bracket = _momentum_bracket(k2)
    out = (4.0 / math.pi**1.5) * bracket**2
    return float(out) if scalar else out
