"""Reduced single-particle observables for two-body ground states.

Takes a grid-sampled two-body wavefunction (from either the analytic
Tonks route or the DVR solver) through the chain

    pair amplitudes -> natural orbitals -> momentum distribution
                                        -> entanglement measures

All quadrature is trapezoid-on-the-mesh; the Fourier transform to
momentum space is a direct quadrature sum, not an FFT, so any k grid
may be requested.

For two bosons the symmetric amplitudes are their own natural-orbital
decomposition, psi(x, y) = sum_i s_i phi_i(x) phi_i(y) with occupations
s_i^2 (Paskauskas & You, Phys. Rev. A 64, 042310 (2001)).  So
``natural_orbitals`` diagonalizes dx * psi, so an occupation lambda is
off by about eps * sqrt(lambda), not eps, and never forms
rho = dx psi psi^T; only reading ``DensityMatrix.values`` does.

The barrier sits at the trap centre, so the pair state is parity-even,
psi(-x, -y) = psi(x, y), and every natural orbital is even or odd.
``natural_orbitals`` uses this: on the odd symmetric mesh it folds
dx * psi into an even block of size (N + 1)/2 and an odd block of size
(N - 1)/2 and diagonalizes each on its own, which costs about a quarter
of one N x N eigensolve.  It rejects amplitudes that are not
parity-symmetric.  The orbitals are real, so n(-k) = n(k), and
``momentum_distribution`` evaluates k >= 0 only.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dvr import Grid

_TRUNCATION_TAIL = 1e-8
_ENTROPY_FLOOR = 1e-12
_SCHMIDT_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced single-particle density matrix of a two-boson state.

    Holds the symmetric pair amplitudes psi(q_i, q_j), with
    dx^2 sum(psi^2) = 1 for a normalized state.  ``values[i, j]``,
    rho(q_i, q_j) = dx sum_k psi(q_i, q_k) psi(q_j, q_k), is formed on
    first read.
    """

    amplitudes: np.ndarray
    grid: Grid

    @cached_property
    def values(self):
        psi = self.amplitudes
        rho = self.grid.spacing * (psi @ psi.T)
        return 0.5 * (rho + rho.T)

    @property
    def trace(self):
        return float(np.vdot(self.amplitudes, self.amplitudes)) * self.grid.spacing**2


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


def rspd_from_state(state):
    """Reduced density matrix of a DVR TwoBodyState by mesh quadrature."""
    return DensityMatrix(state.amplitudes, state.grid)


def natural_orbitals(rho):
    """Natural orbitals and occupations of a two-boson density matrix.

    Reads only ``rho.amplitudes``.  The quadrature-weighted amplitudes
    W = dx * psi are symmetric, and dx * rho = W^2, so the natural
    orbitals are the eigenvectors of W and the occupations are the
    squares of its eigenvalues.  W must also be parity-symmetric,
    W(-x, -y) = W(x, y), on an odd mesh whose centre index is c.  In
    the orthonormal basis delta_c, (delta_c+i +- delta_c-i) / sqrt(2),
    i = 1..c, it splits into two blocks:

    - even, W(c+i, c+j) + W(c+i, c-j) for i, j = 0..c, with the row and
      the column of delta_c scaled by 1/sqrt(2);
    - odd, W(c+i, c+j) - W(c+i, c-j) for i, j = 1..c.

    Given parity, W is symmetric exactly when both blocks are.  Each
    block is diagonalized on its own and its eigenvectors are unfolded
    onto the mesh, so every orbital has definite parity.

    Raises
    ------
    ValueError
        If W is not parity-symmetric or not symmetric beyond 1e-10, or
        the mesh has an even point count.
    """
    dx = rho.grid.spacing
    n = rho.amplitudes.shape[0]
    if n % 2 == 0:
        raise ValueError(f"parity fold needs an odd mesh with a centre point, got {n} points")
    c = n // 2
    weighted = dx * rho.amplitudes
    skew = np.max(np.abs(weighted[c:] - weighted[c::-1, ::-1]))
    if skew > 1e-10:
        raise ValueError(f"amplitudes are not parity-symmetric (max deviation {skew:.3e})")

    right = weighted[c:, c:]
    mirror = weighted[c:, c::-1]
    even = right + mirror
    even[0, :] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    odd = right[1:, 1:] - mirror[1:, 1:]
    asym = max(np.max(np.abs(even - even.T)), np.max(np.abs(odd - odd.T), initial=0.0))
    if asym > 1e-10:
        raise ValueError(f"amplitudes are not symmetric (max asymmetry {asym:.3e})")
    even_vals, even_vecs = np.linalg.eigh(0.5 * (even + even.T))
    odd_vals, odd_vecs = np.linalg.eigh(0.5 * (odd + odd.T))
    vals = np.concatenate((even_vals, odd_vals)) ** 2
    order = np.argsort(vals, kind="stable")[::-1]
    occupations = vals[order]

    # Even orbitals in columns 0..c, odd ones after, then put in order.
    weights = np.full((c + 1, 1), 1.0 / math.sqrt(2.0 * dx))
    weights[0] = 1.0 / math.sqrt(dx)
    unfolded = np.empty((n, n))
    unfolded[c:, : c + 1] = even_vecs * weights
    unfolded[c::-1, : c + 1] = unfolded[c:, : c + 1]
    unfolded[c + 1 :, c + 1 :] = odd_vecs * weights[1:]
    unfolded[c - 1 :: -1, c + 1 :] = -unfolded[c + 1 :, c + 1 :]
    unfolded[c, c + 1 :] = 0.0
    orbitals = unfolded[:, order]
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


def schmidt_number(decomposition):
    """Number of occupations strictly above 1e-6."""
    return int(np.sum(decomposition.occupations > _SCHMIDT_THRESHOLD))
