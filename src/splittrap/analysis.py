"""The mesh, its parity fold and the reduced single-particle observables.

Every observable of the pair is read from its reduced single-particle
density, so this module owns the mesh both routes share (``Grid``,
built and checked by ``build_grid``) and the parity fold the density is
stored in (``_fold``, ``_half_rows`` and ``_unfold``); the grid solver
``dvr`` and the Tonks route ``tonks`` import them from here.

The barrier sits at the trap centre, so the pair state is parity-even,
psi(-x, -y) = psi(x, y), and every natural orbital is even or odd.  On
the odd symmetric mesh the quadrature-weighted amplitudes W = dx * psi
fold (``_fold``) into an even block of size (N + 1)/2 and an odd
block of size (N - 1)/2, and the chain enters there:

    parity blocks of W -> natural occupations -> entanglement measures
                       -> momentum distribution

A ``DensityMatrix`` holds the two blocks.  The grid route builds them
from its Ritz vector in the one-body eigenbasis
(``dvr.ground_state_solver``).  The analytic Tonks route keeps its two
orbitals on x >= 0 instead (``tonks.tonks_rspd``), forms the blocks
only when they are read, and applies them by cumulative sums.  Either
route's pair state carries its ``DensityMatrix`` as ``density``, which
``rspd_from_state`` returns, and its occupations as ``occupations``:
the grid route's are ``natural_orbitals(density)``, while the Tonks
route's need no mesh (``tonks.tonks_occupations``).
``DensityMatrix.from_amplitudes`` is the checked constructor for
amplitudes from elsewhere: it rejects an even mesh and amplitudes that
are not parity-symmetric or not symmetric.  psi on the whole mesh, rho
= dx psi psi^T and the natural orbitals are formed only when
``amplitudes``, ``values`` and ``orbitals`` are read.

All quadrature is trapezoid-on-the-mesh; the Fourier transform to
momentum space is a direct quadrature sum, not an FFT, so any symmetric
uniform k grid may be requested.

For two bosons the symmetric amplitudes are their own natural-orbital
decomposition, psi(x, y) = sum_i s_i phi_i(x) phi_i(y) with occupations
s_i^2 (Paskauskas & You, Phys. Rev. A 64, 042310 (2001)).  So the
occupations are the squared eigenvalues of W, which are those of its
two blocks (``eigvalsh`` of each, in ``natural_orbitals``), and an
occupation lambda is off by about eps * sqrt(lambda), not eps.  Entropy
and the Schmidt number read the occupations alone, and dx * rho = W^2
gives n(k) from the blocks applied to the cos and sin rows of the
transform (``DensityMatrix.apply_blocks``, in ``momentum_distribution``),
which halves it, so no observable needs the orbitals.  Those rows are
built once for the mesh and k grid that every point of a sweep shares.
W is real, so n(-k) = n(k), and ``momentum_distribution`` evaluates
k >= 0 only.

Importing this module loads no numpy: ``np`` is the lazy seam
``_numpy.np``, which loads it on the first array a function forms or
reads, so building and checking a ``Grid`` needs none.  The ``np.ndarray``
field annotations stay unevaluated strings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ._numpy import np

_ENTROPY_FLOOR = 1e-12
_SCHMIDT_THRESHOLD = 1e-6


class GridError(ValueError):
    """Mesh specification violates the grid contract of the fold or of a pair route."""


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


def _fold(m):
    """Even and odd blocks of a parity-symmetric matrix on an odd mesh.

    m(-x, -y) = m(x, y), with centre index c.  In the orthonormal basis
    delta_c, (delta_c+i +- delta_c-i) / sqrt(2), i = 1..c, m splits into

    - even, m(c+i, c+j) + m(c+i, c-j) for i, j = 0..c, with the row and
      the column of delta_c scaled by 1/sqrt(2);
    - odd, m(c+i, c+j) - m(c+i, c-j) for i, j = 1..c.

    Given parity, m is symmetric exactly when both blocks are.
    """
    c = m.shape[0] // 2
    right = m[c:, c:]
    mirror = m[c:, c::-1]
    even = right + mirror
    even[0, :] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    return even, right[1:, 1:] - mirror[1:, 1:]


def _half_rows(even, odd):
    """Rows x >= 0 on the mesh of the even and odd fold-basis vectors.

    ``even`` and ``odd`` hold vectors of the two _fold blocks in their
    columns.  On the mesh row x_0 = 0 is an even vector's first entry and
    row x_i, i >= 1, its entry i times sqrt(1/2); an odd vector has row 0
    zero and row x_i its entry i - 1 times sqrt(1/2).  The rows x < 0 are
    the mirror images, with a sign flip for the odd vectors.
    """
    e = even.copy()
    e[1:] *= math.sqrt(0.5)
    o = np.zeros((e.shape[0], odd.shape[1]))
    o[1:] = odd * math.sqrt(0.5)
    return e, o


def _unfold(even, odd):
    """Parity-symmetric N x N matrix m whose _fold blocks are ``even`` and ``odd``.

    m = U_e even U_e^T + U_o odd U_o^T over the fold bases, whose rows
    x >= 0 ``_half_rows`` gives: that quadrant of m is the sum of the
    even and odd parts, its quadrant x >= 0 > y their difference with the
    columns mirrored, and its rows x < 0 the mirror image of the rows
    x > 0, so m(-x, -y) = m(x, y) holds to the last bit, and m is
    symmetric exactly when both blocks are.
    """
    e, o = _half_rows(*(m.T for m in _half_rows(even, odd)))
    half = np.hstack(((e - o)[:, :0:-1], e + o))
    return np.vstack((half[:0:-1, ::-1], half))


def _read_only(array):
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced single-particle density matrix of a two-boson state.

    Holds the two parity blocks of the quadrature-weighted amplitudes
    W = dx * psi, ``even`` of size c + 1 and ``odd`` of size c on a mesh
    of 2c + 1 points, in the fold basis of ``_fold``; both are
    symmetric, and their squared Frobenius norms sum to dx^2 sum(psi^2),
    1 for a normalized state.  ``from_amplitudes`` builds them from
    psi(q_i, q_j).  Formed on first read are ``amplitudes``, psi unfolded
    onto the mesh (``_unfold``); ``values[i, j]``, rho(q_i, q_j) =
    dx sum_k psi(q_i, q_k) psi(q_j, q_k); and ``orbitals[:, i]``, the
    natural orbital psi_i on the mesh with quadrature norm 1, by ``eigh``
    of the two blocks, so each has definite parity, in the order of the
    occupations of ``natural_orbitals``.  The blocks are made read-only
    when the density matrix is formed, and the three arrays formed on
    first read are read-only too.  ``apply_blocks`` is the one product
    ``momentum_distribution`` asks for; a density that keeps its blocks
    in a cheaper form (``tonks.tonks_rspd``) applies them its own way.
    """

    even: np.ndarray
    odd: np.ndarray
    grid: Grid

    def __post_init__(self):
        for block in (self.even, self.odd):
            block.setflags(write=False)

    @classmethod
    def from_amplitudes(cls, amplitudes, grid):
        """Density matrix of the symmetric, parity-even amplitudes psi on an odd mesh.

        W = dx * psi must be parity-symmetric, W(-x, -y) = W(x, y), on a
        mesh with a centre point; ``_fold`` then splits it into its
        even and odd blocks, and given parity W is symmetric exactly
        when both blocks are.  The blocks kept are their symmetric parts,
        so ``amplitudes`` reads psi unfolded from them, which differs from
        the input only by that symmetrization and rounding.

        Raises
        ------
        ValueError
            If psi is not N x N on the N points of ``grid``, W is not
            parity-symmetric or not symmetric beyond 1e-10 (NaN or inf
            in W fails the first), or the mesh has an even point count.
        """
        n = grid.n_points
        if amplitudes.shape != (n, n):
            raise ValueError(f"amplitudes of shape {amplitudes.shape} do not fit the mesh, "
                             f"which needs shape {(n, n)}")
        if n % 2 == 0:
            raise ValueError(f"parity fold needs an odd mesh with a centre point, got {n} points")
        weighted = grid.spacing * amplitudes
        skew = np.max(np.abs(weighted[n // 2 :] - weighted[n // 2 :: -1, ::-1]))
        if not skew <= 1e-10:
            raise ValueError(f"amplitudes are not parity-symmetric (max deviation {skew:.3e})")
        even, odd = _fold(weighted)
        asym = max(np.max(np.abs(even - even.T)), np.max(np.abs(odd - odd.T), initial=0.0))
        if not asym <= 1e-10:
            raise ValueError(f"amplitudes are not symmetric (max asymmetry {asym:.3e})")
        return cls(0.5 * (even + even.T), 0.5 * (odd + odd.T), grid)

    def apply_blocks(self, even_vectors, odd_vectors):
        """The even block times the columns of ``even_vectors``, the odd block times ``odd_vectors``."""
        return self.even @ even_vectors, self.odd @ odd_vectors

    @cached_property
    def amplitudes(self):
        return _read_only(_unfold(self.even, self.odd) / self.grid.spacing)

    @cached_property
    def values(self):
        psi = self.amplitudes
        rho = self.grid.spacing * (psi @ psi.T)
        return _read_only(0.5 * (rho + rho.T))

    @cached_property
    def orbitals(self):
        even_vals, even_vecs = np.linalg.eigh(self.even)
        odd_vals, odd_vecs = np.linalg.eigh(self.odd)
        order = np.argsort(np.concatenate((even_vals, odd_vals)) ** 2, kind="stable")[::-1]
        # Even orbitals in columns 0..c, odd ones after: the rows x >= 0,
        # then the rows x < 0 mirrored, then the columns put in order.
        half = np.hstack(_half_rows(even_vecs, odd_vecs)) / math.sqrt(self.grid.spacing)
        parity = np.repeat([1.0, -1.0], (even_vals.size, odd_vals.size))
        return _read_only(np.vstack((half[:0:-1] * parity, half))[:, order])


@dataclass(frozen=True, eq=False)
class MomentumDistribution:
    """Momentum density n(k) sampled on a symmetric k grid."""

    k_values: np.ndarray
    densities: np.ndarray
    retained_orbitals: int


def rspd_from_state(state):
    """Reduced density matrix of a pair state of either route: its ``density``."""
    return state.density


def natural_orbitals(rho):
    """Natural occupations of a two-boson density matrix, sorted in descending order.

    Reads only the blocks ``rho.even`` and ``rho.odd``.  The
    quadrature-weighted amplitudes W = dx * psi are symmetric, and
    dx * rho = W^2, so the natural orbitals are the eigenvectors of W
    and the occupations are the squares of its eigenvalues, which are
    those of its two parity blocks.  They come from ``eigvalsh`` of each
    block, with no eigenvectors (``rho.orbitals`` forms those), and sum
    to the squared norm of W, 1 for a normalized state.  The returned
    array is read-only.
    """
    vals = np.concatenate((np.linalg.eigvalsh(rho.even), np.linalg.eigvalsh(rho.odd))) ** 2
    return _read_only(np.sort(vals)[::-1])


def uniform_k_grid(count, span):
    """Symmetric uniform momentum grid with ``count`` points on [-span, span]."""
    if count != int(count) or int(count) < 3:
        raise ValueError(f"k grid needs at least 3 points, got {count!r}")
    span = float(span)
    if not (span > 0.0) or not math.isfinite(2.0 * span):
        raise ValueError(f"k span must be positive and 2 * span finite, got {span!r}")
    return np.linspace(-span, span, int(count))


@lru_cache(maxsize=1)
def _phase_tables(grid, k_bytes):
    # Rows x_0 = 0, x_1..x_c of a_k / sqrt(2) and b_k / sqrt(2) for the
    # k >= 0 in k_bytes, so the prefactor of n(k) doubles to dx / pi.
    # Every point of a sweep shares its mesh and k grid, so they are
    # built once a sweep.
    angles = np.outer(grid.points[grid.center_index :], np.frombuffer(k_bytes))
    cos_part = np.cos(angles)
    cos_part[0] = math.sqrt(0.5)
    return _read_only(cos_part), _read_only(np.sin(angles[1:]))


def momentum_distribution(rho, k_values):
    """Momentum density n(k) = sum_i lambda_i |mu_i(k)|^2 over every orbital of ``rho``.

    mu_i(k) is the direct-quadrature Fourier transform
    (2 pi)^(-1/2) * dx * sum_j psi_i(q_j) exp(-i k q_j).  With
    W = dx * psi and dx * rho = W^2, the sum is (dx / 2 pi) |W f_k|^2,
    f_k = exp(-i k q), which needs no orbital.  In the parity fold of W
    (``DensityMatrix``) f_k has the real even part a_k = (1,
    sqrt(2) cos k x_i) and the imaginary odd part b_k = sqrt(2) sin k x_i,
    i = 1..c, so n(k) = (dx / 2 pi) (|E a_k|^2 + |O b_k|^2) over the
    even and odd blocks E and O of ``rho``, the only part of it read,
    through ``rho.apply_blocks``: a dense product on the grid route, two
    cumulative sums a block on the Tonks route, O(N K) for K momenta.
    This is even in k: only the k >= 0 half of the grid is evaluated,
    and n(-k) is its mirror image.  The rows a_k and b_k are kept for
    the next call on the same ``Grid`` and k values, so a sweep builds
    them on its first point.
    ``retained_orbitals`` is the number of orbitals the sum covers, N.

    A warning is raised when |k| exceeds the mesh Nyquist limit
    pi / dx, beyond which the quadrature transform is periodic rather
    than physical, and a ValueError when max |k| times the mesh
    half-width overflows, before any phase k x is formed.
    """
    k = np.asarray(k_values, dtype=float)
    if k.ndim != 1 or k.size < 3:
        raise ValueError("k_values must be a 1-D array with at least 3 points")
    if np.any(~np.isfinite(k)):
        raise ValueError("k_values must be finite")
    scale = max(1.0, float(np.max(np.abs(k))))
    if not math.isfinite(scale * rho.grid.span):
        raise ValueError("max |k| times the mesh half-width must be finite")
    if np.max(np.abs(k + k[::-1])) > 1e-9 * scale:
        raise ValueError("k_values must be symmetric about k = 0")
    steps = np.diff(k)
    if np.max(steps) - np.min(steps) > 1e-9 * scale:
        raise ValueError("k_values must be uniformly spaced")
    dx = rho.grid.spacing
    nyquist = math.pi / dx
    if np.max(np.abs(k)) > nyquist * (1.0 + 1e-12):
        warnings.warn(
            f"k grid extends past the mesh Nyquist momentum {nyquist:.4g}; "
            "the quadrature transform aliases there",
            stacklevel=2,
        )

    even, odd = rho.apply_blocks(*_phase_tables(rho.grid, k[k.size // 2 :].tobytes()))
    half = (dx / math.pi) * (np.sum(even * even, axis=0) + np.sum(odd * odd, axis=0))
    densities = _read_only(np.concatenate((half[::-1][: k.size - half.size], half)))
    return MomentumDistribution(
        k_values=k.copy(), densities=densities, retained_orbitals=rho.grid.n_points
    )


def von_neumann_entropy(occupations):
    """Base-2 von Neumann entropy of the occupations from ``natural_orbitals``.

    Occupations below 1e-12 are skipped.  On the grid route they are
    rounding noise, since an occupation lambda from ``natural_orbitals``
    is off by about eps * sqrt(lambda), and they would poison the
    logarithm.  The Tonks route's occupations (``tonks.tonks_occupations``)
    are exact that far down, so there the floor drops a real part of S:
    1.2e-8 at kappa = 0, 1.0e-8 at kappa = 1, 5.1e-9 at kappa = 10 and
    1.7e-9 at kappa = 95.0513.  In the same way, occupations within
    1e-12 of 1 are taken as exactly 1 and contribute nothing, so a
    product state reads exactly 0 even when the eigensolver returns its
    occupation as 1 - eps or 1 + eps.
    """
    live = (occupations >= _ENTROPY_FLOOR) & (np.abs(occupations - 1.0) > _ENTROPY_FLOOR)
    occ = occupations[live]
    # No occupation left sums to -0.0, and occupations above 1 only arise
    # from an unnormalized input; the result is a non-negative float either way.
    value = float(-np.sum(occ * np.log2(occ)))
    return value if value > 0.0 else 0.0


def schmidt_number(occupations):
    """Number of occupations from ``natural_orbitals`` strictly above 1e-6."""
    return int(np.sum(occupations > _SCHMIDT_THRESHOLD))
