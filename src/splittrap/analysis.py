"""Reduced single-particle observables for two-body ground states.

Takes a grid-sampled two-body wavefunction (from either the analytic
Tonks route or the DVR solver) through the chain

    reduced density matrix -> natural orbitals -> momentum distribution
                                               -> entanglement measures

All quadrature is trapezoid-on-the-mesh; the Fourier transform to
momentum space is a direct quadrature sum, not an FFT, so any k grid
may be requested.

The barrier sits at the trap centre, so the pair state and its density
matrix are parity-even, rho(-x, -x') = rho(x, x'), and every natural
orbital is even or odd.  ``natural_orbitals`` uses this: on the odd
symmetric mesh it folds dx * rho into an even block of size (N + 1)/2
and an odd block of size (N - 1)/2 and diagonalizes each on its own,
which costs about a quarter of one N x N eigensolve.  It rejects a
density matrix that is not parity-symmetric.  The orbitals are real,
so n(-k) = n(k), and ``momentum_distribution`` evaluates k >= 0 only.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dvr import Grid

_OCCUPATION_FLOOR = -1e-10
_TRUNCATION_TAIL = 1e-8
_ENTROPY_FLOOR = 1e-12
_SCHMIDT_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced single-particle density matrix sampled on a grid.

    ``values[i, j]`` holds rho(q_i, q_j); the quadrature trace
    sum(diag) * dx is 1 for a normalized input state.
    """

    values: np.ndarray
    grid: Grid

    @property
    def trace(self):
        return float(np.sum(np.diag(self.values)) * self.grid.spacing)


@dataclass(frozen=True, eq=False)
class NaturalDecomposition:
    """Eigen-decomposition of a reduced density matrix.

    ``occupations`` are sorted in descending order and sum to the trace
    of the input (1 for a normalized state); ``orbitals[:, i]`` is the
    grid-sampled natural orbital psi_i with quadrature norm 1.
    """

    occupations: np.ndarray
    orbitals: np.ndarray
    grid: Grid


@dataclass(frozen=True, eq=False)
class MomentumDistribution:
    """Momentum density n(k) sampled on a symmetric k grid."""

    k_values: np.ndarray
    densities: np.ndarray
    retained_orbitals: int

    @property
    def integral(self):
        return float(np.trapezoid(self.densities, self.k_values))


def rspd_from_amplitudes(psi, grid):
    """Reduced density matrix rho = dx psi psi^T of normalized N x N amplitudes."""
    rho = grid.spacing * (psi @ psi.T)
    rho = 0.5 * (rho + rho.T)
    return DensityMatrix(values=rho, grid=grid)


def rspd_from_state(state):
    """Reduced density matrix of a DVR TwoBodyState by mesh quadrature."""
    return rspd_from_amplitudes(state.amplitudes, state.grid)


def natural_orbitals(rho):
    """Natural orbitals and occupations of a reduced density matrix.

    The quadrature-weighted matrix dx * rho is symmetric; its
    eigenvalues are the occupations.  It must also be parity-symmetric,
    W(-x, -x') = W(x, x'), on an odd mesh whose centre index is c.  In
    the orthonormal basis delta_c, (delta_c+i +- delta_c-i) / sqrt(2),
    i = 1..c, it splits into two blocks:

    - even, W(c+i, c+j) + W(c+i, c-j) for i, j = 0..c, with the row and
      the column of delta_c scaled by 1/sqrt(2);
    - odd, W(c+i, c+j) - W(c+i, c-j) for i, j = 1..c.

    Each block is diagonalized on its own and its eigenvectors are
    unfolded onto the mesh, so every orbital has definite parity.

    Tiny negative eigenvalues (down to -1e-10) are clamped to zero,
    anything lower is rejected as a non-positive-semidefinite input.

    Raises
    ------
    ValueError
        If dx * rho is asymmetric or not parity-symmetric beyond 1e-10,
        the mesh has an even point count, or an occupation lies below
        -1e-10.
    """
    dx = rho.grid.spacing
    n = rho.values.shape[0]
    if n % 2 == 0:
        raise ValueError(f"parity fold needs an odd mesh with a centre point, got {n} points")
    weighted = dx * rho.values
    asym = np.max(np.abs(weighted - weighted.T))
    if asym > 1e-10:
        raise ValueError(f"density matrix is not symmetric (max asymmetry {asym:.3e})")
    skew = np.max(np.abs(weighted - weighted[::-1, ::-1]))
    if skew > 1e-10:
        raise ValueError(f"density matrix is not parity-symmetric (max deviation {skew:.3e})")

    c = n // 2
    right = weighted[c:, c:]
    mirror = weighted[c:, c::-1]
    even = right + mirror
    even[0, :] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    odd = right[1:, 1:] - mirror[1:, 1:]
    even_vals, even_vecs = np.linalg.eigh(0.5 * (even + even.T))
    odd_vals, odd_vecs = np.linalg.eigh(0.5 * (odd + odd.T))
    vals = np.concatenate((even_vals, odd_vals))
    if vals.min() < _OCCUPATION_FLOOR:
        raise ValueError(
            f"density matrix has a negative eigenvalue {vals.min():.3e} "
            "beyond the roundoff floor"
        )
    order = np.argsort(vals, kind="stable")[::-1]
    occupations = np.clip(vals[order], 0.0, None)

    # Column of each eigenpair in the descending order.
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    even_cols, odd_cols = column[: c + 1], column[c + 1 :]
    weights = np.full((c + 1, 1), 1.0 / math.sqrt(2.0 * dx))
    weights[0] = 1.0 / math.sqrt(dx)
    orbitals = np.empty((n, n))
    orbitals[c:, even_cols] = even_vecs * weights
    orbitals[c::-1, even_cols] = orbitals[c:, even_cols]
    orbitals[c + 1 :, odd_cols] = odd_vecs * weights[1:]
    orbitals[c - 1 :: -1, odd_cols] = -orbitals[c + 1 :, odd_cols]
    orbitals[c, odd_cols] = 0.0
    occupations.setflags(write=False)
    orbitals.setflags(write=False)
    return NaturalDecomposition(occupations=occupations, orbitals=orbitals, grid=rho.grid)


def uniform_k_grid(count, span):
    """Symmetric uniform momentum grid with ``count`` points on [-span, span]."""
    if count != int(count) or int(count) < 3:
        raise ValueError(f"k grid needs at least 3 points, got {count!r}")
    span = float(span)
    if not (span > 0.0) or not math.isfinite(span):
        raise ValueError(f"k span must be positive and finite, got {span!r}")
    return np.linspace(-span, span, int(count))


def momentum_distribution(decomposition, k_values):
    """Momentum density n(k) = sum_i lambda_i |mu_i(k)|^2.

    mu_i(k) is the direct-quadrature Fourier transform
    (2 pi)^(-1/2) * dx * sum_j psi_i(q_j) exp(-i k q_j).  Orbitals are
    included until the cumulative occupation reaches 1 - 1e-8.  The
    orbitals are real, so |mu_i(k)|^2 is the sum of the squared cosine
    and sine transforms and is even in k: only the k >= 0 half of the
    grid is evaluated, and n(-k) is its mirror image.

    A warning is raised when |k| exceeds the mesh Nyquist limit
    pi / dx, beyond which the quadrature transform is periodic rather
    than physical.
    """
    k = np.asarray(k_values, dtype=float)
    if k.ndim != 1 or k.size < 3:
        raise ValueError("k_values must be a 1-D array with at least 3 points")
    if np.any(~np.isfinite(k)):
        raise ValueError("k_values must be finite")
    scale = max(1.0, float(np.max(np.abs(k))))
    if np.max(np.abs(k + k[::-1])) > 1e-9 * scale:
        raise ValueError("k_values must be symmetric about k = 0")
    steps = np.diff(k)
    if np.max(steps) - np.min(steps) > 1e-9 * scale:
        raise ValueError("k_values must be uniformly spaced")
    dx = decomposition.grid.spacing
    nyquist = math.pi / dx
    if np.max(np.abs(k)) > nyquist * (1.0 + 1e-12):
        warnings.warn(
            f"k grid extends past the mesh Nyquist momentum {nyquist:.4g}; "
            "the quadrature transform aliases there",
            stacklevel=2,
        )

    occ = decomposition.occupations
    cumulative = np.cumsum(occ)
    retained = int(np.searchsorted(cumulative, 1.0 - _TRUNCATION_TAIL) + 1)
    retained = min(retained, occ.size)

    positive = k[k.size // 2 :]
    angles = np.outer(positive, decomposition.grid.points)
    orbitals = decomposition.orbitals[:, :retained]
    scale = dx / math.sqrt(2.0 * math.pi)
    cos_part = (np.cos(angles) @ orbitals) * scale
    sin_part = (np.sin(angles) @ orbitals) * scale
    half = (cos_part**2 + sin_part**2) @ occ[:retained]
    densities = np.concatenate((half[::-1][: k.size - half.size], half))
    densities.setflags(write=False)
    return MomentumDistribution(
        k_values=k.copy(), densities=densities, retained_orbitals=retained
    )


def von_neumann_entropy(decomposition):
    """Base-2 von Neumann entropy of the occupation spectrum.

    Occupations below 1e-12 are skipped; they contribute nothing at
    double precision and would otherwise poison the logarithm.  In the
    same way, occupations within 1e-12 of 1 are taken as exactly 1 and
    contribute nothing, so a product state reads exactly 0 even when
    the eigensolver returns its occupation as 1 - eps or 1 + eps.
    """
    occ = decomposition.occupations
    occ = occ[(occ >= _ENTROPY_FLOOR) & (np.abs(occ - 1.0) > _ENTROPY_FLOOR)]
    if occ.size == 0:
        return 0.0
    # Occupations above 1 only arise from an unnormalized input; keep
    # the result non-negative regardless.
    value = float(-np.sum(occ * np.log2(occ)))
    return value if value > 0.0 else 0.0


def schmidt_number(decomposition, threshold=_SCHMIDT_THRESHOLD):
    """Number of occupations strictly above ``threshold``."""
    threshold = float(threshold)
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold!r}")
    return int(np.sum(decomposition.occupations > threshold))
