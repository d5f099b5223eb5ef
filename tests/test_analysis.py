"""Observable chain: RSPD, natural orbitals, momentum, entropy."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from splittrap import analysis, dvr, tonks
from splittrap.analysis import Grid, build_grid


def _full_eigh_decomposition(rho):
    """Oracle: one eigh of the whole weighted matrix, as before the fold."""
    dx = rho.grid.spacing
    weighted = dx * rho.values
    vals, vecs = np.linalg.eigh(0.5 * (weighted + weighted.T))
    order = np.argsort(vals)[::-1]
    return SimpleNamespace(
        occupations=np.clip(vals[order], 0.0, None),
        orbitals=vecs[:, order] / math.sqrt(dx),
        grid=rho.grid,
    )


def _synthetic_occupations(occupations, n_points=5, spacing=0.5):
    # W = dx * psi is diagonal in the even fold basis delta_c,
    # (delta_c+i + delta_c-i) / sqrt(2), with eigenvalues sqrt(occupations).
    c = n_points // 2
    basis = np.zeros((n_points, len(occupations)))
    basis[c, 0] = 1.0
    for i in range(1, len(occupations)):
        basis[c + i, i] = basis[c - i, i] = math.sqrt(0.5)
    weighted = (basis * np.sqrt(occupations)) @ basis.T
    rho = analysis.DensityMatrix.from_amplitudes(weighted / spacing, build_grid(n_points, spacing))
    return analysis.natural_orbitals(rho)


def test_pair_state_arrays_are_read_only(tonks_grid):
    # Both routes' density matrices, kept on their states: the parity
    # blocks and every array formed from them on first read.  Fresh
    # states, so that the session's cached ones keep their arrays unformed.
    grid_state = dvr.ground_state(build_grid(41, 0.3), 1.0, 1.0)
    for state in (grid_state, tonks.tonks_state(1.0, tonks_grid)):
        rho = state.density
        assert rho is state.density
        assert analysis.rspd_from_state(state) is rho
        for array in (rho.even, rho.odd, rho.amplitudes, rho.values, rho.orbitals):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0.0


def test_rspd_from_product_state(solve):
    state = solve(0.0, 0.0)
    rho = analysis.rspd_from_state(state)
    trace = np.sum(rho.even * rho.even) + np.sum(rho.odd * rho.odd)
    assert trace == pytest.approx(1.0, abs=1e-10)
    q = rho.grid.points
    phi0 = math.pi**-0.25 * np.exp(-0.5 * q * q)
    assert np.max(np.abs(rho.values - np.outer(phi0, phi0))) <= 1e-8
    occupations = analysis.natural_orbitals(rho)
    assert occupations[0] == pytest.approx(1.0, abs=1e-10)
    assert occupations[1] <= 1e-10


def test_rspd_strong_coupling_matches_analytic_route(solve):
    grid_rho = analysis.rspd_from_state(solve(0.0, 500.0))
    analytic_rho = tonks.tonks_state(0.0, build_grid(81, 0.16)).density
    sup = np.max(np.abs(grid_rho.values - analytic_rho.values))
    assert sup <= 0.02


def test_off_diagonal_quadrant_mass(solve, tonks_grid):
    # The exact infinite-barrier quadrants vanish identically.  At
    # kappa = 10 tunnelling still leaves absolute quadrant mass; the
    # grid route at g = 500 must reproduce the analytic hard-core value
    # on the same mesh (0.231) within the grid-vs-analytic tolerance of
    # test_rspd_strong_coupling_matches_analytic_route.
    def quadrant_mass(rho):
        x = rho.grid.points
        mask = np.outer(x, x) < 0.0
        return float(np.sum(np.abs(rho.values)[mask])) * rho.grid.spacing**2

    grid_mass = quadrant_mass(analysis.rspd_from_state(solve(10.0, 500.0)))
    analytic_mass = quadrant_mass(tonks.tonks_state(10.0, build_grid(81, 0.16)).density)
    assert abs(grid_mass - analytic_mass) <= 0.02

    exact = tonks.tonks_state(math.inf, tonks_grid).density
    exact_mask = np.outer(exact.grid.points, exact.grid.points) < 0.0
    assert np.all(exact.values[exact_mask] == 0.0)


def test_natural_orbitals_spectral_properties(tonks_rho):
    rho = tonks_rho(1.0)
    occ = analysis.natural_orbitals(rho)
    assert np.all(np.diff(occ) <= 0.0)
    assert np.all(occ >= 0.0)
    assert float(np.sum(occ)) == pytest.approx(1.0, abs=1e-8)
    dx = rho.grid.spacing
    overlaps = dx * (rho.orbitals.T @ rho.orbitals)
    assert np.max(np.abs(overlaps - np.eye(overlaps.shape[0]))) <= 1e-6


def test_natural_orbitals_reconstruction(tonks_rho, tonks_grid):
    orbitals = tonks_rho(1.0).orbitals
    rho = tonks.tonks_state(1.0, tonks_grid).density
    recon = (orbitals * analysis.natural_orbitals(rho)) @ orbitals.T
    assert np.max(np.abs(recon - rho.values)) <= 1e-8


def test_natural_orbitals_rejects_bad_input():
    # Parity-symmetric but asymmetric: the (0, 1) entry and its mirror (4, 3).
    # The checked constructor rejects it before natural_orbitals sees it.
    amplitudes = np.eye(5)
    amplitudes[0, 1] = amplitudes[4, 3] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        analysis.DensityMatrix.from_amplitudes(amplitudes, build_grid(5, 0.5))


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=20),
    rank=st.integers(min_value=1, max_value=41),
    spacing=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_natural_orbitals_fold_matches_full_spectrum(half, rank, spacing, seed):
    n = 2 * half + 1
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n, min(rank, n)))
    psi = (factor * rng.standard_normal(factor.shape[1])) @ factor.T
    psi = 0.5 * (psi + psi.T)
    psi = 0.5 * (psi + psi[::-1, ::-1])
    psi /= math.sqrt(np.sum(psi * psi)) * spacing
    rho = analysis.DensityMatrix.from_amplitudes(psi, build_grid(n, spacing))

    occ = analysis.natural_orbitals(rho)
    expected = np.linalg.eigvalsh(spacing**2 * (psi @ psi.T))[::-1]
    np.testing.assert_allclose(occ, expected, rtol=0.0, atol=1e-12)
    orbitals = rho.orbitals
    recon = (orbitals * occ) @ orbitals.T
    values = rho.values
    np.testing.assert_allclose(recon, values, rtol=0.0, atol=1e-12 * np.max(np.abs(values)))
    overlaps = spacing * (orbitals.T @ orbitals)
    np.testing.assert_allclose(overlaps, np.eye(n), rtol=0.0, atol=1e-12)
    for column in orbitals.T:
        assert np.array_equal(column, column[::-1]) or np.array_equal(column, -column[::-1])


@pytest.mark.parametrize("kappa", [0.0, 3.3, pytest.param(math.inf, id="kappa2")])
def test_natural_orbitals_fold_matches_full_eigh_on_tonks(kappa):
    rho = tonks.tonks_state(kappa, build_grid(401, 0.03)).density
    folded = analysis.natural_orbitals(rho)
    full = _full_eigh_decomposition(rho)
    np.testing.assert_allclose(folded, full.occupations, rtol=0.0, atol=1e-12)
    assert analysis.von_neumann_entropy(folded) == pytest.approx(
        analysis.von_neumann_entropy(full.occupations), rel=0.0, abs=1e-12
    )
    assert analysis.schmidt_number(folded) == analysis.schmidt_number(full.occupations)


def test_natural_orbitals_small_occupations_exact():
    # psi = sum_i s_i u_i(x) u_i(y) with dx-orthonormal, parity-definite
    # u_i and known s_i^2 = 0.88 * 10^-i: the occupations keep their
    # relative precision down to 8.8e-17, far below eps of the largest.
    n, dx = 41, 0.2
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((n, 17))
    even, _ = np.linalg.qr(raw[:, 0::2] + raw[::-1, 0::2])
    odd, _ = np.linalg.qr(raw[:, 1::2] - raw[::-1, 1::2])
    basis = np.empty((n, 17))
    basis[:, 0::2], basis[:, 1::2] = even, odd
    basis /= math.sqrt(dx)
    occupations = 0.88 * 10.0 ** -np.arange(17)
    signs = np.where(np.arange(17) % 3 == 1, -1.0, 1.0)
    psi = (basis * (signs * np.sqrt(occupations))) @ basis.T
    psi = 0.5 * (psi + psi.T)
    psi = 0.5 * (psi + psi[::-1, ::-1])

    rho = analysis.DensityMatrix.from_amplitudes(psi, build_grid(n, dx))
    found = analysis.natural_orbitals(rho)
    assert found[:17] == pytest.approx(occupations, rel=1e-8, abs=0.0)


def test_observables_never_form_the_density_matrix(monkeypatch):
    # Nor the orbitals: reading them fails the test.  Fresh states, since
    # a state keeps its density matrix and a cached one may have formed it.
    def forbidden(self):
        raise AssertionError("the natural orbitals were formed")

    monkeypatch.setattr(analysis.DensityMatrix, "orbitals", property(forbidden))
    grid = build_grid(1201, 0.01)
    k = analysis.uniform_k_grid(41, 8.0)
    analytic = tonks.tonks_state(3.3, grid).density
    state = dvr.ground_state(build_grid(81, 0.16), 1.0, 1.0)
    for rho in (analytic, analysis.rspd_from_state(state)):
        occupations = analysis.natural_orbitals(rho)
        analysis.von_neumann_entropy(occupations)
        analysis.schmidt_number(occupations)
        analysis.momentum_distribution(rho, k)
        assert "values" not in vars(rho)


def test_natural_orbitals_rejects_parity_breaking_input():
    # The checked constructor rejects these before natural_orbitals sees
    # them; NaN and inf amplitudes would fail there as an eigensolver
    # that does not converge.  inf - inf warns on its way to NaN.
    for amplitudes in (np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.full((5, 5), np.nan),
                       np.full((5, 5), np.inf)):
        with pytest.raises(ValueError, match="parity"), np.errstate(invalid="ignore"):
            analysis.DensityMatrix.from_amplitudes(amplitudes, build_grid(5, 0.5))
    with pytest.raises(ValueError, match="odd mesh"):
        analysis.DensityMatrix.from_amplitudes(np.eye(4), Grid(4, 0.5))


def test_from_amplitudes_rejects_a_mesh_that_does_not_fit(solve):
    # psi solved on 81 / 0.16 and read on 161 / 0.08 would give occupations
    # summing to 0.25; a non-square psi would fail deep in the fold.  Both
    # are rejected up front, with both shapes named.
    psi = solve(1.0, 5.0).density.amplitudes
    with pytest.raises(ValueError, match=r"\(81, 81\).*\(161, 161\)"):
        analysis.DensityMatrix.from_amplitudes(psi, build_grid(161, 0.08))
    with pytest.raises(ValueError, match=r"\(81, 41\).*\(81, 81\)"):
        analysis.DensityMatrix.from_amplitudes(psi[:, 20:61], build_grid(81, 0.16))


def test_tonks_zero_barrier_occupations(tonks_rho):
    occupations = analysis.natural_orbitals(tonks_rho(0.0))
    assert occupations[0] + occupations[1] > 0.95
    entropy = analysis.von_neumann_entropy(occupations)
    assert entropy == pytest.approx(0.985, abs=0.005)


def test_uniform_k_grid_validation():
    k = analysis.uniform_k_grid(5, 2.0)
    np.testing.assert_allclose(k, [-2.0, -1.0, 0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        analysis.uniform_k_grid(2, 1.0)
    with pytest.raises(ValueError):
        analysis.uniform_k_grid(5, 0.0)
    with pytest.raises(ValueError):
        analysis.uniform_k_grid(5, float("inf"))
    # A finite span whose grid width 2 * span overflows.
    with pytest.raises(ValueError, match="2 \\* span finite"):
        analysis.uniform_k_grid(401, 1e308)


def test_momentum_distribution_validates_k_grid(tonks_rho):
    rho = tonks_rho(0.0)
    with pytest.raises(ValueError):
        analysis.momentum_distribution(rho, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        analysis.momentum_distribution(rho, np.array([-1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        analysis.momentum_distribution(rho, np.array([-2.0, -1.5, 0.0, 1.5, 2.0]))
    with pytest.raises(ValueError):
        analysis.momentum_distribution(rho, np.array([-1.0, 0.0, np.nan]))
    with pytest.raises(ValueError):
        analysis.momentum_distribution(rho, np.ones((3, 3)))
    # 2 * 8.98e307 is finite, but k x past |x| = 2 overflows: rejected
    # before any phase is formed, in place of NaN densities.
    with pytest.raises(ValueError, match="half-width must be finite"):
        analysis.momentum_distribution(rho, analysis.uniform_k_grid(401, 8.98e307))


def test_momentum_distribution_nyquist_warning(solve):
    rho = analysis.rspd_from_state(solve(0.0, 1.0))
    beyond = analysis.uniform_k_grid(101, 25.0)
    with pytest.warns(UserWarning):
        analysis.momentum_distribution(rho, beyond)


def test_momentum_distribution_basic_properties(tonks_rho):
    k = analysis.uniform_k_grid(401, 8.0)
    dist = analysis.momentum_distribution(tonks_rho(10.0), k)
    assert np.all(dist.densities >= 0.0)
    np.testing.assert_allclose(dist.densities, dist.densities[::-1], atol=1e-8)
    assert dist.retained_orbitals >= 2


@pytest.mark.parametrize("count", [401, 400])
def test_momentum_distribution_matches_complex_phase_sum(tonks_rho, tonks_grid, count):
    k = analysis.uniform_k_grid(count, 8.0)
    dist = analysis.momentum_distribution(tonks_rho(1.0), k)
    # Oracle: the complex-phase quadrature over the whole k grid, summed
    # over every orbital of one eigh of the full density matrix.
    full = _full_eigh_decomposition(tonks.tonks_state(1.0, tonks_grid).density)
    dx = full.grid.spacing
    phases = np.exp(-1j * np.outer(k, full.grid.points))
    mu = phases @ full.orbitals * (dx / math.sqrt(2.0 * math.pi))
    expected = (np.abs(mu) ** 2) @ full.occupations
    np.testing.assert_allclose(
        dist.densities, expected, rtol=0.0, atol=1e-13 * np.max(expected)
    )
    assert np.array_equal(dist.densities, dist.densities[::-1])
    assert dist.retained_orbitals == full.occupations.size


def test_momentum_grid_route_product_state_closed_form(solve):
    # At kappa = g1d = 0 both bosons sit in the oscillator ground state, so
    # n(k) = |phi_0(k)|^2 = exp(-k^2) / sqrt(pi).  The 81/0.16 span holds
    # the Gaussian to well below the bound (1.5e-10 measured).
    rho = analysis.rspd_from_state(solve(0.0, 0.0))
    k = analysis.uniform_k_grid(401, 8.0)
    densities = analysis.momentum_distribution(rho, k).densities
    np.testing.assert_allclose(
        densities, np.exp(-k * k) / math.sqrt(math.pi), rtol=0.0, atol=1e-9
    )


@pytest.mark.parametrize("kappa", [0.0, 10.0])
def test_momentum_integral_on_nyquist_window_analytic(tonks_rho, kappa):
    rho = tonks_rho(kappa)
    dx = rho.grid.spacing
    k = analysis.uniform_k_grid(2 * rho.grid.n_points + 1, math.pi / dx)
    dist = analysis.momentum_distribution(rho, k)
    assert np.trapezoid(dist.densities, dist.k_values) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("kappa,g", [(1.0, 1.0), (10.0, 500.0)])
def test_momentum_integral_on_nyquist_window_grid_route(solve, kappa, g):
    rho = analysis.rspd_from_state(solve(kappa, g))
    dx = rho.grid.spacing
    k = analysis.uniform_k_grid(2 * rho.grid.n_points + 1, math.pi / dx)
    dist = analysis.momentum_distribution(rho, k)
    assert np.trapezoid(dist.densities, dist.k_values) == pytest.approx(1.0, abs=1e-4)


def test_parseval_per_orbital(tonks_rho):
    rho = tonks_rho(1.0)
    dx = rho.grid.spacing
    k = analysis.uniform_k_grid(2 * rho.grid.n_points + 1, math.pi / dx)
    # Every orbital up to a cumulative occupation of 1 - 1e-8.
    retained = int(np.searchsorted(np.cumsum(analysis.natural_orbitals(rho)), 1.0 - 1e-8) + 1)
    phases = np.exp(-1j * np.outer(k, rho.grid.points))
    mu = phases @ rho.orbitals[:, :retained] * (dx / math.sqrt(2.0 * math.pi))
    integrals = trapezoid(np.abs(mu) ** 2, k, axis=0)
    np.testing.assert_allclose(integrals, 1.0, atol=1e-4)


def test_entropy_synthetic_cases():
    assert analysis.von_neumann_entropy(_synthetic_occupations([1.0, 0.0])) == 0.0
    assert analysis.von_neumann_entropy(
        _synthetic_occupations([0.5, 0.5])
    ) == pytest.approx(1.0, abs=1e-12)
    empty = analysis.von_neumann_entropy(_synthetic_occupations([0.0, 0.0]))
    assert empty == 0.0


def test_entropy_bounds(tonks_rho):
    occupations = analysis.natural_orbitals(tonks_rho(1.0))
    entropy = analysis.von_neumann_entropy(occupations)
    live = int(np.sum(occupations >= 1e-12))
    assert 0.0 <= entropy <= math.log2(live)


def test_entropy_never_negative(solve):
    occupations = analysis.natural_orbitals(analysis.rspd_from_state(solve(5.0, 0.0)))
    value = analysis.von_neumann_entropy(occupations)
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_entropy_monotone_in_coupling(solve):
    for kappa in (0.0, 1.0, 2.0, 5.0, 10.0):
        entropies = [
            analysis.von_neumann_entropy(
                analysis.natural_orbitals(analysis.rspd_from_state(solve(kappa, g)))
            )
            for g in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 500.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_entropy_monotone_in_barrier(solve):
    for g in (1.0, 2.0, 5.0):
        entropies = [
            analysis.von_neumann_entropy(
                analysis.natural_orbitals(analysis.rspd_from_state(solve(kappa, g)))
            )
            for kappa in (0.0, 1.0, 2.0, 5.0, 10.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_entropy_saturation(solve):
    occupations = analysis.natural_orbitals(analysis.rspd_from_state(solve(10.0, 5.0)))
    assert analysis.von_neumann_entropy(occupations) == pytest.approx(1.0, abs=0.03)


def test_schmidt_number_cases(tonks_rho):
    assert analysis.schmidt_number(_synthetic_occupations([1.0, 0.0])) == 1
    infinite = analysis.natural_orbitals(tonks_rho(float("inf")))
    assert analysis.schmidt_number(infinite) == 2
    assert infinite[2] <= 1e-12
    crossing = analysis.natural_orbitals(tonks_rho(1.33))
    assert analysis.schmidt_number(crossing) > 2
