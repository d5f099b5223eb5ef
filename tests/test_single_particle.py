"""Single-particle levels and eigenfunctions of the delta-split trap."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from splittrap import specfun
from splittrap.cli import _fmt_value, build_parser
from splittrap.single_particle import (
    BracketError,
    _even_norm,
    check_coupling,
    even_energy,
    even_state,
    eigenfunction,
    odd_energy,
    spectrum,
)

# Roots of -kappa = 2 Gamma(-E/2+3/4)/Gamma(-E/2+1/4), frozen from a
# 40-digit mpmath bisection.
EVEN_ROOTS = {
    (0.5, 0): 0.733517556289942,
    (0.5, 1): 2.63541461517117,
    (0.5, 2): 4.60367488619284,
    (1.0, 0): 0.892744045308953,
    (1.0, 1): 2.75464153327937,
    (1.0, 2): 4.70019582597553,
    (2.0, 0): 1.08389812227631,
    (2.0, 1): 2.93708791136391,
    (2.0, 2): 4.86229907458965,
    (5.0, 0): 1.2961228739153,
    (5.0, 1): 3.20030409549228,
    (5.0, 2): 5.13643039940631,
    (10.0, 0): 1.39200570433735,
    (10.0, 1): 3.33820134004331,
    (10.0, 2): 5.29922685177705,
    (100.0, 0): 1.48875636783634,
    (100.0, 1): 3.48311837230376,
    (100.0, 2): 5.4788909457275,
}


# Even-level norm constants 1/sqrt(int phi^2), phi = exp(-x^2/2) U(a, 1/2, x^2)
# and a = 1/4 - E/2, at the float kappa shown: E is a 40-digit mpmath
# bisection root of h(E), and the integral an mpmath quadrature of phi^2 at
# 40 digits (independent of the closed form, which it matches to 1e-40).
EVEN_NORM_REFERENCE = {
    (0, 0): 0.75112554446494248,
    (0, 1): 1.0622519320271969,
    (0, 2): 0.61329143890310219,
    (0, 3): 0.22394237027468697,
    (0, 4): 0.059851115996424831,
    (0, 5): 0.012617723136776038,
    (1e-12, 0): 0.75112554446506479,
    (1e-12, 1): 1.0622519320271336,
    (1e-12, 2): 0.61329143890304232,
    (1e-12, 3): 0.22394237027466217,
    (1e-12, 4): 0.059851115996417877,
    (1e-12, 5): 0.012617723136774544,
    (1e-6, 0): 0.75112566677035481,
    (1e-6, 1): 1.0622518686823219,
    (1e-6, 2): 0.61329137903528439,
    (1e-6, 3): 0.2239423454769723,
    (1e-6, 4): 0.05985110904323203,
    (1e-6, 5): 0.012617721642311551,
    (0.1, 0): 0.76324955319886034,
    (0.1, 1): 1.0559334751438787,
    (0.1, 2): 0.60733922944438288,
    (0.1, 3): 0.22147813853974846,
    (0.1, 4): 0.05916023216984528,
    (0.1, 5): 0.012469229819260273,
    (1, 0): 0.85528776039322266,
    (1, 1): 1.0052371773731448,
    (1, 2): 0.55864868866005384,
    (1, 3): 0.20115456019868833,
    (1, 4): 0.053433045036329984,
    (1, 5): 0.011233709206939138,
    (3.3, 0): 0.9635847912895209,
    (3.3, 1): 0.93950588360605718,
    (3.3, 2): 0.48351252792149566,
    (3.3, 3): 0.16743410680055634,
    (3.3, 4): 0.043500595400206041,
    (3.3, 5): 0.0090239136297577262,
    (10, 0): 1.027191576803969,
    (10, 1): 0.89590389148064017,
    (10, 2): 0.42488963172013858,
    (10, 3): 0.13830799353224265,
    (10, 4): 0.034240842645320965,
    (10, 5): 0.0068345707772006158,
    (100, 0): 1.0587804882845958,
    (100, 1): 0.8704050420136549,
    (100, 2): 0.39166708865047956,
    (100, 3): 0.12156575805096393,
    (100, 4): 0.028808438546478141,
    (100, 5): 0.0055218373982149984,
    (1e4, 0): 1.0622173375291117,
    (1e4, 1): 0.86735610080633389,
    (1e4, 2): 0.38791742725026249,
    (1e4, 3): 0.1197207897712375,
    (1e4, 4): 0.028219987104085228,
    (1e4, 5): 0.0053816173074795568,
    (1e8, 0): 1.0622519285678772,
    (1e8, 1): 0.86732507368732997,
    (1e8, 2): 0.38787956706953357,
    (1e8, 3): 0.11970223384854083,
    (1e8, 4): 0.028214087245101113,
    (1e8, 5): 0.0053802153632680284,
}

# 1/sqrt(2^n n! sqrt(pi)) at 40 digits: the factor between H_n(x) e^(-x^2/2)
# and odd level n, and the infinite-barrier even level 2j with n = 2j + 1.
HERMITE_NORM_REFERENCE = {
    1: 0.53112596601359846,
    3: 0.10841563382300969,
    5: 0.012121236352598753,
    7: 0.00093517368744413798,
    9: 5.5105637998248238e-5,
    11: 2.6270582143920032e-6,
    13: 1.0516649545227006e-7,
    15: 3.6285888254172946e-9,
    17: 1.1000775734655461e-10,
    19: 2.9742691220276953e-12,
    21: 7.2564736328884938e-14,
}

def test_barrier_strength_validation():
    # One check for every coupling: a float >= 0, math.inf the limit.
    for bad in (-1.0, "-1", math.nan, "nan", -math.inf, "-inf", "junk"):
        with pytest.raises(ValueError):
            check_coupling(bad)
    assert check_coupling(math.inf) == math.inf
    assert check_coupling("inf") == math.inf
    assert check_coupling("Infinity") == math.inf
    assert check_coupling("2.5") == 2.5
    assert check_coupling(0) == 0.0
    assert _fmt_value(check_coupling("inf")) == "inf"


def test_barrier_strength_parse():
    parse = build_parser().parse_args
    args = parse(["spectrum", "--kappa", "2.5", "inf", "Infinity"])
    assert args.kappa == [2.5, math.inf, math.inf]
    for bad in ("-1", "nan", "-inf", "junk"):
        with pytest.raises(SystemExit):
            parse(["spectrum", f"--kappa={bad}"])


def test_even_energy_exact_limits():
    for j in range(4):
        assert even_energy(0.0, j) == 2.0 * j + 0.5
        assert even_energy(math.inf, j) == 2.0 * j + 1.5
    assert even_energy(float("inf"), 1) == 3.5


@pytest.mark.parametrize("key,expected", sorted(EVEN_ROOTS.items()))
def test_even_energy_reference_roots(key, expected):
    kappa, j = key
    assert even_energy(kappa, j) == pytest.approx(expected, abs=1e-10)


# Levels from j = 171, where Gamma(j + 1) exceeds a float, frozen from the
# same 40-digit mpmath bisection of h(E).
HIGH_EVEN_ROOTS = {
    (1e-9, 300): 600.50000000001836997,
    (1.0, 171): 342.52431129012734069,
    (1.0, 1000): 2000.5100637205802628,
    (1e3, 2000): 4001.443199924578431,
    (1e9, 3000): 6001.4999999302530812,
    (1e-3, 4095): 8190.5000049740473739,
}


@pytest.mark.parametrize("key,expected", sorted(HIGH_EVEN_ROOTS.items()))
def test_even_energy_high_levels(key, expected):
    kappa, j = key
    assert even_energy(kappa, j) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_even_energy_level_limit():
    # From j = 4096 on, one ulp of E (1.8e-12) is wider than the bisection
    # tolerance, so 8192 levels is the most spectrum gives at finite kappa.
    with pytest.raises(BracketError, match="level 4096"):
        even_energy(1.0, 4096)


@pytest.mark.parametrize("kappa", [1e-300, 1e-16, 1e-14, 1e-12, 1e-10, 1e-9, 3e-9])
def test_even_energy_tiny_barrier(kappa):
    # First-order perturbation theory, E = 2j + 1/2 + kappa phi_2j(0)^2
    # with phi_2j(0)^2 = Gamma(j + 1/2) / (pi j!), is exact here to well
    # below an ulp: the second-order shift is O(kappa^2) < 1e-17.  The
    # root sits within ~1e-9 of the bracket's lower end.
    for j in range(6):
        first_order = 2.0 * j + 0.5 + kappa * math.gamma(j + 0.5) / (math.pi * math.factorial(j))
        assert abs(even_energy(kappa, j) - first_order) <= math.ulp(first_order)


def test_even_energy_rejects_bad_level():
    with pytest.raises(ValueError):
        even_energy(1.0, -1)
    with pytest.raises(ValueError):
        even_energy(1.0, 0.5)


def test_odd_energy_exact():
    assert odd_energy(1) == 1.5
    assert odd_energy(3) == 3.5
    assert odd_energy(5) == 5.5
    for bad in (0, 2, -1, 1.5):
        with pytest.raises(ValueError):
            odd_energy(bad)


@pytest.mark.parametrize("kappa", [1e-3, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_even_energy_residual(kappa, j):
    energy = even_energy(kappa, j)
    residual = 2.0 * specfun.gamma(0.75 - 0.5 * energy) / specfun.gamma(
        0.25 - 0.5 * energy
    ) + kappa
    assert abs(residual) <= 1e-9 * (1.0 + kappa)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_even_energy_bracketing(j):
    for kappa in (1e-6, 0.1, 1.0, 10.0, 1e4):
        energy = even_energy(kappa, j)
        assert 2.0 * j + 0.5 < energy < 2.0 * j + 1.5


@pytest.mark.parametrize("j", [0, 1])
def test_even_energy_monotone_in_kappa(j):
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
    energies = [even_energy(kappa, j) for kappa in grid]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_even_energy_large_barrier_approaches_limit():
    for j, limit in ((0, 1.5), (1, 3.5), (2, 5.5)):
        assert abs(even_energy(1e6, j) - limit) < 1e-3


def test_paper_caption_energies():
    assert even_energy(1.0, 0) == pytest.approx(0.9, abs=0.05)
    assert even_energy(10.0, 0) == pytest.approx(1.4, abs=0.05)


@pytest.mark.parametrize("key,expected", sorted(EVEN_NORM_REFERENCE.items()))
def test_even_norm_reference(key, expected):
    kappa, j = key
    assert _even_norm(even_energy(kappa, j)) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n,expected", sorted(HERMITE_NORM_REFERENCE.items()))
def test_hermite_norms(n, expected):
    # The levels are taken from the normalized recurrence, so the frozen
    # norm is their ratio to numpy's Hermite series H_n(x) e^(-x^2/2).
    x = np.array([-2.9, -1.3, 0.4, 1.7, 3.2])
    unnormalized = np.polynomial.hermite.hermval(x, [0] * n + [1]) * np.exp(-0.5 * x * x)
    *_, mirrored, odd_level = spectrum(math.inf, n + 1)
    odd = odd_level.wavefunction(x)
    split = mirrored.wavefunction(x)
    np.testing.assert_allclose(odd / unnormalized, expected, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(split, np.sign(x) * odd)


@pytest.mark.parametrize("n", [61, 151, 301])
def test_hermite_function_orthonormal_at_high_degree(n):
    # Quadrature overlaps of psi_{n-2}, psi_n, psi_{n+2} on a mesh that
    # holds every oscillation (turning point sqrt(2n + 5) < 25): the
    # trapezoid sum of these smooth decaying functions is spectrally exact.
    dx = 0.01
    x = np.arange(-4000, 4001) * dx
    values = [specfun.hermite_function(m, x) for m in (n - 2, n, n + 2)]
    gram = np.array([[np.sum(a * b) * dx for b in values] for a in values])
    np.testing.assert_allclose(gram, np.eye(3), rtol=0.0, atol=1e-12)

def test_ground_state_eigenfunction_is_gaussian_at_zero_barrier():
    state = even_state(0.0, 0)
    x = np.linspace(-4.0, 4.0, 41)
    expected = math.pi**-0.25 * np.exp(-0.5 * x * x)
    np.testing.assert_allclose(state.wavefunction(x), expected, rtol=1e-9, atol=1e-12)


def test_odd_eigenfunction_node_at_origin():
    state = spectrum(1.0, 2)[1]
    assert state.wavefunction(0.0) == 0.0
    assert state.wavefunction(1.0) > 0.0


def test_infinite_barrier_eigenfunction_closed_form():
    # The j-th even level behind the wall is the odd level n = 2j + 1
    # mirrored to x < 0: sgn(x) H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)).
    x = np.linspace(-4.0, 4.0, 41)
    for j in range(4):
        n = 2 * j + 1
        hermite = np.polynomial.hermite.hermval(x, [0] * n + [1])
        norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        expected = norm * np.sign(x) * hermite * np.exp(-0.5 * x * x)
        state = even_state(math.inf, j)
        np.testing.assert_allclose(state.wavefunction(x), expected, rtol=1e-9, atol=1e-12)


def _lowest_states(kappa, count):
    states = spectrum(kappa, count)
    x = np.arange(-12.0, 12.0 + 2e-3, 4e-3)
    return [s.wavefunction(x) for s in states], x


@pytest.mark.parametrize("kappa", [0.0, 1.0, 10.0, math.inf])
def test_orthonormality(kappa):
    values, x = _lowest_states(kappa, 6)
    for i in range(6):
        for j in range(i, 6):
            overlap = simpson(values[i] * values[j], x=x)
            target = 1.0 if i == j else 0.0
            assert overlap == pytest.approx(target, abs=1e-8)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 5.0, 20.0])
def test_derivative_jump_condition(kappa):
    # The delta barrier forces phi'(0+) - phi'(0-) = 2 kappa phi(0);
    # second-order one-sided differences keep the FD error far below
    # the 1e-4 check.
    state = even_state(kappa, 0)
    h = 1e-4
    right = (-3.0 * state.wavefunction(0.0) + 4.0 * state.wavefunction(h)
             - state.wavefunction(2.0 * h)) / (2.0 * h)
    left = (3.0 * state.wavefunction(0.0) - 4.0 * state.wavefunction(-h)
            + state.wavefunction(-2.0 * h)) / (2.0 * h)
    jump = right - left
    expected = 2.0 * kappa * state.wavefunction(0.0)
    assert jump == pytest.approx(expected, rel=1e-4)


def test_spectrum_interleaving_at_zero_barrier():
    energies = [s.energy for s in spectrum(0.0, 4)]
    assert energies == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=1e-12)


def test_spectrum_infinite_barrier_degeneracy():
    states = spectrum(math.inf, 2)
    assert [s.energy for s in states] == [1.5, 1.5]
    assert [s.parity for s in states] == ["even", "odd"]
    assert [s.kappa for s in states] == [math.inf, math.inf]


def test_spectrum_kappa_one():
    states = spectrum(1.0, 2)
    assert states[0].energy == pytest.approx(0.9, abs=0.05)
    assert states[1].energy == 1.5


def test_spectrum_rejects_bad_count():
    with pytest.raises(ValueError):
        spectrum(1.0, 0)


@pytest.mark.parametrize(
    "kappa", [0.0, 1e-300, 1e-10, 0.1, 0.5, 1.0, 2.5, 3.3, 10.0, 100.0, 1e6, 1e300, math.inf]
)
def test_spectrum_level_i_is_oscillator_index_i(kappa):
    # Even level j lies in (2j + 1/2, 2j + 3/2] and odd level 2j + 1 at
    # 2j + 3/2, so the energy order is the index order at every barrier.
    states = spectrum(kappa, 150)
    assert [s.n for s in states] == list(range(150))
    assert [s.parity for s in states] == ["even", "odd"] * 75
    energies = [s.energy for s in states]
    assert energies == sorted(energies)


def test_even_state_index_convention():
    assert even_state(1.0, 0).n == 0
    assert even_state(1.0, 1).n == 2
    assert spectrum(1.0, 4)[3].n == 3
