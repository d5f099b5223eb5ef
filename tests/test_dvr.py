"""Grid discretization and two-body ground-state solver."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from splittrap import dvr, tonks
from splittrap.dvr import ConvergenceError, GridError, TwoBodyState, build_grid
from splittrap.single_particle import even_energy

MONO_GRID = (0.0, 1.0, 2.0, 5.0, 10.0)


def test_build_grid_examples():
    grid = build_grid(81, 0.16)
    assert grid.span == pytest.approx(6.4)
    assert grid.points[grid.center_index] == 0.0
    small = build_grid(3, 1.0)
    np.testing.assert_array_equal(small.points, [-1.0, 0.0, 1.0])
    assert build_grid(61, 0.16).span == pytest.approx(4.8)


def test_build_grid_points_symmetric_increasing():
    grid = build_grid(17, 0.3)
    q = grid.points
    assert np.all(np.diff(q) > 0.0)
    np.testing.assert_allclose(q, -q[::-1], atol=0.0)


@pytest.mark.parametrize(
    "n_points,spacing",
    [(80, 0.16), (2, 1.0), (-5, 0.1), (81, 0.0), (81, -0.1), (81, float("inf")), (81.5, 0.1)],
)
def test_build_grid_rejects_bad_mesh(n_points, spacing):
    with pytest.raises(GridError):
        build_grid(n_points, spacing)


def test_kinetic_matrix_elements():
    grid = build_grid(5, 0.5)
    t = dvr.kinetic_matrix(grid)
    assert t[0, 0] == pytest.approx(math.pi**2 / 6.0 / 0.25)
    assert t[0, 1] == pytest.approx(-1.0 / 0.25)
    assert t[0, 2] == pytest.approx(1.0 / (4.0 * 0.25))
    np.testing.assert_allclose(t, t.T, atol=0.0)


def test_apply_hamiltonian_oscillator_product():
    # Discretized product of two oscillator ground states is an
    # eigenvector with E = 1 up to the Gaussian tail truncation.
    grid = build_grid(81, 0.16)
    q = grid.points
    v = np.exp(-0.5 * (q[:, None] ** 2 + q[None, :] ** 2)).ravel()
    v /= math.sqrt(np.sum(v * v)) * grid.spacing
    hv = dvr.apply_hamiltonian(v, grid, 0.0, 0.0)
    assert np.max(np.abs(hv - v)) / np.max(np.abs(v)) <= 1e-4


def test_apply_hamiltonian_linearity():
    grid = build_grid(21, 0.3)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(21 * 21)
    w = rng.standard_normal(21 * 21)
    lhs = dvr.apply_hamiltonian(2.5 * v - 1.25 * w, grid, 1.0, 2.0)
    rhs = 2.5 * dvr.apply_hamiltonian(v, grid, 1.0, 2.0) - 1.25 * dvr.apply_hamiltonian(
        w, grid, 1.0, 2.0
    )
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-11)


def test_apply_hamiltonian_symmetric_operator():
    grid = build_grid(21, 0.3)
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(21 * 21)
        w = rng.standard_normal(21 * 21)
        left = float(w @ dvr.apply_hamiltonian(v, grid, 2.0, 1.5))
        right = float(dvr.apply_hamiltonian(w, grid, 2.0, 1.5) @ v)
        assert left == pytest.approx(right, rel=1e-10)


def test_apply_hamiltonian_validation():
    grid = build_grid(21, 0.3)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(np.zeros(10), grid, 0.0, 0.0)
    v = np.zeros(21 * 21)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, 0.0, -1.0)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, 0.0, float("nan"))
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, -1.0, 0.0)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, float("nan"), 0.0)


def test_apply_hamiltonian_infinite_couplings_are_limits():
    # kappa = inf and g1d = inf are the limits of the renormalized
    # couplings, kappa_eff -> pi^2 / (2 dx) and g1d_eff -> pi^2 / dx, so
    # the operator at inf equals the one at a huge finite value.
    grid = build_grid(21, 0.3)
    v = np.random.default_rng(5).standard_normal(21 * 21)
    huge = 1e300
    for kappa, g1d in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        at_inf = dvr.apply_hamiltonian(v, grid, kappa, g1d)
        near = dvr.apply_hamiltonian(v, grid, min(kappa, huge), min(g1d, huge))
        np.testing.assert_allclose(at_inf, near, rtol=1e-12, atol=1e-12)


def test_ground_state_non_interacting_pair(solve):
    state = solve(0.0, 0.0)
    assert state.energy == pytest.approx(1.0, abs=1e-3)
    assert not state.near_degenerate
    assert state.gap > 0.0


def test_ground_state_normalization_and_symmetry(solve):
    for kappa, g in ((0.0, 0.0), (1.0, 1.0), (10.0, 500.0)):
        state = solve(kappa, g)
        psi = state.amplitudes
        norm = float(np.sum(psi * psi)) * state.grid.spacing**2
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(psi - psi.T)) <= 1e-8
        peak = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
        assert psi[peak] > 0.0


@pytest.mark.parametrize("n_points,spacing", [(41, 0.3), (81, 0.16)])
def test_sign_fixed_at_first_peak_in_row_major_order(solve, n_points, spacing):
    # At (inf, 0) the four extrema, two of each sign, agree to rounding,
    # so the sign is taken at the first of them in row-major order rather
    # than wherever rounding puts the largest.
    psi = solve(math.inf, 0.0, n_points, spacing).amplitudes
    magnitude = np.abs(psi).ravel()
    peaks = np.flatnonzero(magnitude >= (1.0 - 1e-8) * magnitude.max())
    assert peaks.size == 4
    assert psi.flat[peaks[0]] > 0.0


@pytest.mark.parametrize("kappa", [0.0, 1.0, math.inf])
@pytest.mark.parametrize("g1d", [0.0, 5.0, math.inf])
def test_ground_state_parity_even(solve, kappa, g1d):
    # The natural-orbital fold rejects a density matrix that is not
    # parity-symmetric, so the pair state must be even to the last bit.
    psi = solve(kappa, g1d).amplitudes
    assert np.array_equal(psi, psi[::-1, ::-1])


def test_ground_state_rejects_infinite_inputs():
    # +inf is the impenetrable barrier or the hard-core contact and is
    # solved (test_ground_state_infinite_couplings); -inf and NaN are not
    # couplings at all.
    grid = build_grid(41, 0.16)
    for kappa, g1d in ((-math.inf, 1.0), (0.0, -math.inf), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            dvr.ground_state(grid, kappa, g1d)


@pytest.mark.parametrize(
    "kappa,g1d,bound",
    [
        (math.inf, math.inf, 2e-4),
        (0.0, math.inf, 2e-4),
        (1.0, math.inf, 2e-4),
        (10.0, math.inf, 2e-4),
        (math.inf, 0.0, 1e-12),
    ],
)
def test_ground_state_infinite_couplings(solve, kappa, g1d, bound):
    # The hard-core pair is the analytic route's Bose-Fermi mapping; the
    # non-interacting pair behind an impenetrable barrier is 2 eps_0 = 3.
    exact = tonks.tonks_energy(kappa) if math.isinf(g1d) else 2.0 * even_energy(kappa, 0)
    state = solve(kappa, g1d)
    assert abs(state.energy - exact) <= bound
    if math.isinf(kappa):
        assert state.kappa == math.inf


def test_ground_state_convergence_error(monkeypatch):
    # ARPACK's own failure surfaces as ConvergenceError.
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(dvr, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError):
        dvr.ground_state(build_grid(41, 0.16), 0.0, 5.0)


def test_ground_state_residual_guard(monkeypatch):
    # ARPACK's eigenvalues paired with a vector that is not their
    # eigenvector (the coefficient vector |00>, both particles in the
    # lowest one-body level: the g1d = 0 ground state, at kappa = 1,
    # g1d = 5) fail the residual check.
    grid = build_grid(41, 0.16)
    wrong = np.zeros(41 * 41)
    wrong[0] = 1.0
    real_eigsh = dvr.eigsh

    def wrong_pair(op, k, **kwargs):
        nu, vecs = real_eigsh(op, k, **kwargs)
        vecs = vecs.copy()
        vecs[:, np.argmax(nu)] = wrong
        return nu, vecs

    monkeypatch.setattr(dvr, "eigsh", wrong_pair)
    with pytest.raises(ConvergenceError, match="residual"):
        dvr.ground_state(grid, 1.0, 5.0)


@pytest.mark.parametrize(
    "kappa,g1d", [(0.0, 0.0), (1.0, 5.0), (10.0, 500.0), (math.inf, math.inf)]
)
def test_shifted_inverse_solves_hamiltonian(kappa, g1d):
    # The solver's inverse and apply_hamiltonian come from the same
    # pieces of _hamiltonian: (H - sigma) inv(x) = x on the symmetric
    # sector, and the antisymmetric sector maps to zero.  The inverse
    # acts on one-body eigenbasis coefficients, so mesh arrays go in as
    # U^T x U and come out as U y U^T.
    grid = build_grid(41, 0.16)
    u, _, sigma, inverse = dvr._shifted_inverse(*dvr._hamiltonian(grid, kappa, g1d)[2:])
    rng = np.random.default_rng(41)
    for _ in range(3):
        a = rng.standard_normal((41, 41))
        x = a + a.T
        y = u @ inverse(u.T @ x @ u) @ u.T
        back = dvr.apply_hamiltonian(y.ravel(), grid, kappa, g1d) - sigma * y.ravel()
        assert np.max(np.abs(back - x.ravel())) <= 1e-10 * np.max(np.abs(x))
        assert np.max(np.abs(inverse(u.T @ (a - a.T) @ u))) <= 1e-13 * np.max(np.abs(y))


def _symmetric_spectrum(grid, kappa, g1d):
    # Two lowest eigenvalues of H on the exchange-symmetric sector, from
    # the dense matrix in the orthonormal basis |ii>, (|ij> + |ji>)/sqrt 2.
    n = grid.n_points
    rows, cols = np.triu_indices(n)
    weight = np.where(rows == cols, 1.0, math.sqrt(2.0))
    block = np.empty((rows.size, rows.size))
    for k, (i, j) in enumerate(zip(rows, cols)):
        basis = np.zeros((n, n))
        basis[i, j] = basis[j, i] = 1.0 / weight[k]
        image = dvr.apply_hamiltonian(basis.ravel(), grid, kappa, g1d).reshape(n, n)
        block[:, k] = weight * image[rows, cols]
    return scipy.linalg.eigh(block, eigvals_only=True, subset_by_index=[0, 1])


@pytest.mark.parametrize("g1d", [0.0, 1.0, 20.0, math.inf])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 3.3, 10.0, math.inf])
def test_ground_state_matches_dense_symmetric_block(kappa, g1d):
    # E0 and the gap to the first excited bosonic level, against dense
    # diagonalization.  The gap's partner may have either total parity.
    grid = build_grid(41, 0.3)
    e0, e1 = _symmetric_spectrum(grid, kappa, g1d)
    state = dvr.ground_state(grid, kappa, g1d)
    assert abs(state.energy - e0) <= 1e-10
    assert abs(state.gap - (e1 - e0)) <= 1e-10


@pytest.mark.parametrize("kappa", [1.0, 3.3, 10.0])
def test_gap_non_interacting_closed_form(solve, kappa):
    # At g1d = 0 the bosonic levels are products of one-body levels: the
    # ground state puts both particles in the even level eps_0, and the
    # first excitation moves one of them to the barrier-blind odd level
    # 3/2, so the gap is 3/2 - eps_0.
    assert abs(solve(kappa, 0.0).gap - (1.5 - even_energy(kappa, 0))) <= 1e-3


def test_near_degenerate_flag():
    grid = build_grid(3, 1.0)
    psi = np.eye(3)
    state = TwoBodyState(
        energy=1.0, amplitudes=psi, grid=grid, kappa=0.0, g1d=0.0, gap=1e-8
    )
    assert state.near_degenerate


@pytest.mark.parametrize(
    "g,bound",
    [
        # The separation oracle is exact; every coupling is held to the
        # nominal 5e-3 of acceptance criterion 3.
        (1.0, 5e-3),
        (5.0, 5e-3),
        (500.0, 5e-3),
    ],
)
def test_separation_oracle_zero_barrier(solve, g, bound):
    # At kappa = 0 the pair separates: centre of mass contributes 1/2,
    # the relative coordinate sees a barrier of strength g / sqrt(2).
    state = solve(0.0, g)
    oracle = 0.5 + even_energy(g / math.sqrt(2.0), 0)
    assert abs(state.energy - oracle) <= bound


def test_product_state_zero_barrier(solve):
    state = solve(0.0, 0.0)
    assert abs(state.energy - 2.0 * even_energy(0.0, 0)) <= 2e-3


@pytest.mark.parametrize(
    "kappa,bound",
    [
        # The nominal 2e-3 of the criterion 7 grid-product-state check.
        (1.0, 2e-3),
        (2.0, 2e-3),
        (10.0, 2e-3),
    ],
)
def test_product_state_finite_barrier(solve, kappa, bound):
    state = solve(kappa, 0.0)
    assert abs(state.energy - 2.0 * even_energy(kappa, 0)) <= bound


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0, 10.0])
def test_product_state_rank_one(solve, kappa):
    singular_values = np.linalg.svd(solve(kappa, 0.0).amplitudes, compute_uv=False)
    assert singular_values[1] / singular_values[0] <= 1e-6


def test_energy_monotone_in_coupling(solve):
    for kappa in MONO_GRID:
        energies = [solve(kappa, g).energy for g in MONO_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_energy_monotone_in_barrier(solve):
    for g in MONO_GRID:
        energies = [solve(kappa, g).energy for kappa in MONO_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_tonks_ceiling_weak_regime(solve):
    # Where the mesh error stays small the exact ordering E(g) <
    # E_Tonks survives discretization with the nominal 1e-3 slack.
    for kappa in (0.0, 1.0):
        ceiling = tonks.tonks_energy(kappa)
        for g in (0.0, 1.0, 5.0):
            assert solve(kappa, g).energy <= ceiling + 1e-3
    for kappa in (5.0, 10.0):
        assert solve(kappa, 0.0).energy <= tonks.tonks_energy(kappa) + 1e-3


def test_tonks_ceiling_with_mesh_error(solve):
    # With the renormalized delta couplings the remaining mesh error at
    # dx = 0.16 fits inside the nominal +1e-3 slack of the criterion 7
    # hard-core ceiling, at every barrier and up to g = 500.
    for kappa in (0.0, 1.0, 5.0, 10.0):
        ceiling = tonks.tonks_energy(kappa)
        for g in (1.0, 5.0, 500.0):
            assert solve(kappa, g).energy <= ceiling + 1e-3


def test_refinement_first_order_convergence(solve):
    # The renormalized delta couplings absorb the O(dx) Green's-function
    # tail the sinc basis drops above pi/dx.  What is left is the
    # energy-dependent tail int_{|k|>pi/dx} dk/2pi 4E/k^4 = 4E dx^3/(3 pi^4),
    # so halving dx shrinks successive energy differences by a factor
    # near 2^3 = 8.
    e81 = solve(1.0, 1.0, 81, 0.16).energy
    e161 = solve(1.0, 1.0, 161, 0.08).energy
    e321 = solve(1.0, 1.0, 321, 0.04).energy
    assert abs(e81 - e161) <= 1.2e-2
    ratio = (e81 - e161) / (e161 - e321)
    assert 6.4 <= ratio <= 9.6


def test_diagonal_suppression_strong_coupling(solve):
    for kappa in (0.0, 10.0):
        psi = solve(kappa, 500.0).amplitudes
        assert np.max(np.abs(np.diag(psi))) <= 0.05 * np.max(np.abs(psi))


def test_tg_proxy_energies(solve):
    assert solve(1.0, 500.0).energy == pytest.approx(2.4, abs=0.05)
    assert solve(5.0, 500.0).energy == pytest.approx(2.8, abs=0.05)
    assert solve(10.0, 500.0).energy == pytest.approx(2.9, abs=0.05)


def test_tg_proxy_zero_barrier_on_refined_mesh(solve):
    # g = 500 stands in for the hard-core limit, whose kappa = 0 pair
    # energy is exactly 2.0.  The proxy's own shift below 2.0 is 3.2e-3
    # and the renormalized mesh error is far smaller, so the refined
    # mesh must land inside the 0.02 window.
    assert solve(0.0, 500.0, 161, 0.08).energy == pytest.approx(2.0, abs=0.02)
