"""Analytic hard-core pair: state, density matrix, closed-form momenta."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from splittrap import analysis, tonks
from splittrap.analysis import GridError, build_grid
from splittrap.single_particle import eigenfunction, even_state, odd_energy, spectrum


def test_pair_energy_limits_exact():
    assert tonks.tonks_energy(0.0) == 2.0
    assert tonks.tonks_energy(math.inf) == 3.0


def test_pair_energy_caption_values():
    # Frozen from the 40-digit root of the even-level relation plus 3/2.
    assert tonks.tonks_energy(1.0) == pytest.approx(2.39274404530895, abs=1e-10)
    assert tonks.tonks_energy(2.0) == pytest.approx(2.58389812227631, abs=1e-10)
    assert tonks.tonks_energy(1.0) == pytest.approx(2.4, abs=0.05)
    assert tonks.tonks_energy(2.0) == pytest.approx(2.6, abs=0.05)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 3.0, 10.0, pytest.param(math.inf, id="kappa5")])
def test_bose_fermi_energy_identity(kappa):
    expected = even_state(kappa, 0).energy + odd_energy(1)
    assert tonks.tonks_energy(kappa) == expected


def test_orbitals_carry_the_barrier(tonks_grid):
    # The orbitals are the two lowest levels at the state's barrier.
    state = tonks.tonks_state(2.0, tonks_grid)
    assert [state.even_orbital, state.odd_orbital] == spectrum(2.0, 2)


@pytest.mark.parametrize("kappa", [0.0, 1.0, pytest.param(math.inf, id="kappa2")])
def test_wavefunction_diagonal_node(kappa, tonks_grid):
    state = tonks.tonks_state(kappa, tonks_grid)
    for x in (-2.0, 0.0, 0.3, 1.7):
        assert state.wavefunction(x, x) == 0.0


def test_wavefunction_exchange_symmetric_and_non_negative(tonks_grid):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4.0, 4.0, size=(40, 2))
    for kappa in (0.0, 2.0, math.inf):
        state = tonks.tonks_state(kappa, tonks_grid)
        a = state.wavefunction(pts[:, 0], pts[:, 1])
        b = state.wavefunction(pts[:, 1], pts[:, 0])
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14)
        assert np.all(a >= 0.0)


@pytest.mark.parametrize("kappa", [0.0, 2.0, pytest.param(math.inf, id="kappa2")])
def test_wavefunction_unit_norm(kappa, tonks_grid):
    # Trapezoid double integral on dx = 0.02 and 0.01 meshes combined by
    # one Richardson step; the O(dx^2) remainder sits far below 1e-6.
    state = tonks.tonks_state(kappa, tonks_grid)
    norms = []
    for n_points, dx in ((801, 0.02), (1601, 0.01)):
        q = build_grid(n_points, dx).points
        psi = state.wavefunction(q[:, None], q[None, :])
        norms.append(float(np.sum(psi * psi)) * dx * dx)
    richardson = (4.0 * norms[1] - norms[0]) / 3.0
    assert richardson == pytest.approx(1.0, abs=1e-6)


def test_rspd_trace_and_symmetries(tonks_grid):
    for kappa in (0.0, 1.0, 5.0, math.inf):
        rho = tonks.tonks_state(kappa, tonks_grid).density
        trace = np.sum(rho.even * rho.even) + np.sum(rho.odd * rho.odd)
        assert trace == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho.values, rho.values.T, rtol=0.0, atol=1e-14)
        flipped = rho.values[::-1, ::-1]
        np.testing.assert_allclose(rho.values, flipped, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("kappa", [0.0, 1.0, pytest.param(math.inf, id="kappa2")])
def test_rspd_positive_semidefinite(kappa, tonks_grid):
    rho = tonks.tonks_state(kappa, tonks_grid).density
    eigenvalues = np.linalg.eigvalsh(rho.grid.spacing * rho.values)
    assert eigenvalues.min() >= -1e-10


def test_rspd_zero_barrier_diagonal_closed_form(tonks_grid):
    # Integrating out one coordinate at kappa = 0 leaves the density
    # n(x) = (phi_0^2 + phi_1^2)/2 on the diagonal.
    rho = tonks.tonks_state(0.0, tonks_grid).density
    x = rho.grid.points
    phi0 = eigenfunction(even_state(0.0, 0), x)
    phi1 = eigenfunction(spectrum(0.0, 2)[1], x)
    expected = 0.5 * (phi0 * phi0 + phi1 * phi1)
    np.testing.assert_allclose(np.diag(rho.values), expected, rtol=0.0, atol=1e-8)


def test_rspd_infinite_barrier_quadrants_vanish(tonks_grid):
    rho = tonks.tonks_state(math.inf, tonks_grid).density
    x = rho.grid.points
    negative_quadrant = np.outer(x, x) < 0.0
    assert np.all(rho.values[negative_quadrant] == 0.0)


@pytest.mark.parametrize("n_points, spacing", [(161, 0.08), (1201, 0.01)])
@pytest.mark.parametrize("kappa", [0.0, 3.3, 42.12, pytest.param(math.inf, id="kappa3")])
def test_rspd_blocks_match_fold_of_sampled_pair(n_points, spacing, kappa):
    # Oracle: Psi sampled on the whole mesh by TonksState.wavefunction,
    # normalized there and folded as dx * Psi; tonks_rspd builds the same
    # two blocks from the orbitals on x >= 0 alone.
    grid = build_grid(n_points, spacing)
    q = grid.points
    state = tonks.tonks_state(kappa, grid)
    psi = state.wavefunction(q[:, None], q[None, :])
    psi /= math.sqrt(np.sum(psi * psi)) * spacing
    even, odd = analysis._fold(spacing * psi)
    rho = tonks.tonks_rspd(state)
    assert np.max(np.abs(rho.even - even)) <= 1e-15
    assert np.max(np.abs(rho.odd - odd)) <= 1e-15
    expected = np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))) ** 2)
    occupations = analysis.natural_orbitals(rho)
    assert np.max(np.abs(occupations - expected[::-1])) <= 1e-14
    assert np.max(np.abs(rho.amplitudes - psi)) <= 1e-15


def test_rspd_rejects_small_span():
    with pytest.raises(GridError):
        tonks.tonks_state(0.0, build_grid(41, 0.16)).density


def test_rspd_rejects_coarse_mesh():
    # On the 81-point, dx = 0.16 mesh the barrier cusp costs the raw
    # quadrature norm more than the 1e-3 trace budget.
    with pytest.raises(GridError):
        tonks.tonks_state(1.0, build_grid(81, 0.16)).density
    with pytest.raises(GridError):
        tonks.tonks_state(5.0, build_grid(81, 0.16)).density


def test_momentum_closed_forms_at_zero():
    assert tonks.momentum_tg_infinite_barrier(0.0) == pytest.approx(
        2.0 / math.pi**1.5, rel=1e-12
    )
    assert tonks.momentum_noninteracting_infinite_barrier(0.0) == pytest.approx(
        4.0 / math.pi**1.5, rel=1e-12
    )


@pytest.mark.parametrize("closed_form", [tonks.momentum_tg_infinite_barrier,
                                         tonks.momentum_noninteracting_infinite_barrier],
                         ids=["tg", "noninteracting"])
def test_momentum_closed_forms_are_a_scalar_boundary(closed_form):
    # A scalar k gives a Python float, the entry of the same k in an
    # array; an array gives an array of its own shape.
    for k in (1.3, np.float64(1.3), np.array(1.3)):
        value = closed_form(k)
        assert type(value) is float
        assert value == pytest.approx(closed_form(np.array([1.3]))[0], rel=1e-14)
    for k in (np.linspace(-8.0, 8.0, 9), np.linspace(-8.0, 8.0, 12).reshape(3, 4), np.empty(0)):
        values = closed_form(k)
        assert isinstance(values, np.ndarray) and values.shape == k.shape


def test_momentum_closed_forms_even_in_k():
    k = np.array([0.3, 1.1, 2.6, 5.0, 11.0])
    np.testing.assert_allclose(
        tonks.momentum_tg_infinite_barrier(k),
        tonks.momentum_tg_infinite_barrier(-k),
        rtol=0.0,
        atol=0.0,
    )
    np.testing.assert_allclose(
        tonks.momentum_noninteracting_infinite_barrier(k),
        tonks.momentum_noninteracting_infinite_barrier(-k),
        rtol=0.0,
        atol=0.0,
    )


def test_momentum_large_k_tail():
    # Frozen 40-digit reference values; k = 25 lands in the large-z
    # branch of the shared bracket term.
    assert tonks.momentum_tg_infinite_barrier(25.0) == pytest.approx(
        9.2840607969335982e-7, rel=1e-10
    )
    assert tonks.momentum_noninteracting_infinite_barrier(30.0) == pytest.approx(
        8.9280538794084057e-7, rel=1e-10
    )


def test_momentum_closed_form_normalization():
    # The [-12, 12] window already truncates a 1.4e-4 / 2.8e-4 tail, so
    # unit normalization to 1e-4 needs the wider window.
    for fn, deficit_12 in (
        (tonks.momentum_tg_infinite_barrier, 5e-4),
        (tonks.momentum_noninteracting_infinite_barrier, 5e-4),
    ):
        k12 = np.linspace(-12.0, 12.0, 4001)
        assert trapezoid(fn(k12), k12) == pytest.approx(1.0, abs=deficit_12)
        k20 = np.linspace(-20.0, 20.0, 4001)
        assert trapezoid(fn(k20), k20) == pytest.approx(1.0, abs=1e-4)


def test_fourier_route_matches_closed_form(tonks_grid):
    # Pipeline n(k) from the infinite-barrier density matrix against
    # the closed form, sup over |k| <= 6.
    k = analysis.uniform_k_grid(601, 6.0)
    rho = tonks.tonks_state(math.inf, tonks_grid).density
    densities = analysis.momentum_distribution(rho, k).densities
    sup = np.max(np.abs(densities - tonks.momentum_tg_infinite_barrier(k)))
    assert sup <= 0.02


def test_momentum_width_broadens_with_barrier(tonks_grid):
    k = analysis.uniform_k_grid(401, 8.0)

    def fwhm(kappa):
        rho = tonks.tonks_state(kappa, tonks_grid).density
        densities = analysis.momentum_distribution(rho, k).densities
        above = k[densities >= 0.5 * densities.max()]
        return above[-1] - above[0]

    widths = [fwhm(kappa) for kappa in (0.0, 1.0, 5.0, 10.0)]
    assert all(b > a for a, b in zip(widths, widths[1:]))
