"""Single-particle levels and eigenfunctions of the delta-split trap."""

import json
import math
from decimal import Decimal
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

from splittrap import single_particle, specfun
from splittrap.cli import _fmt_value, build_parser
from splittrap.single_particle import (
    EigenState,
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


# Even levels at kappa in {0.5, 1, 3.3, 100} and j in {0, 1, 2, 5, 10, 16, 20,
# 30, 40}, frozen from mpmath at 30 digits: pcfd(nu, sqrt(2) x) at
# nu = E - 1/2 for the float energy stored with each level, divided by the
# square root of its quadrature norm 2 int_0^inf pcfd(nu, sqrt(2) x)^2 dx
# (mpmath.quad over [0, 2, 5, 10, inf]), on x = 0, 0.5, ..., 10.
EVEN_LEVELS_MPMATH = json.loads(
    (Path(__file__).parent / "data" / "even_levels_mpmath.json").read_text())

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
    # -0 reads as 0, sign bit clear, so it is labelled "0", not "-0".
    for negative_zero in ("-0", -0.0):
        assert math.copysign(1.0, check_coupling(negative_zero)) == 1.0
    assert _fmt_value(check_coupling("-0")) == "0"
    assert _fmt_value(check_coupling("inf")) == "inf"


def test_barrier_strength_parse():
    parse = build_parser().parse_args
    args = parse(["spectrum", "--kappa", "2.5", "inf", "Infinity"])
    assert args.kappa == [2.5, math.inf, math.inf]
    for bad in ("-1", "nan", "-inf", "junk"):
        with pytest.raises(SystemExit):
            parse(["spectrum", f"--kappa={bad}"])


def test_even_energy_exact_limits():
    for j in (0, 1, 2, 3, 4095, 8200, 10**6):
        assert even_energy(0.0, j) == 2.0 * j + 0.5
        assert even_energy(math.inf, j) == 2.0 * j + 1.5
    assert even_energy(float("inf"), 1) == 3.5


@pytest.mark.parametrize("key,expected", sorted(EVEN_ROOTS.items()))
def test_even_energy_reference_roots(key, expected):
    kappa, j = key
    assert even_energy(kappa, j) == pytest.approx(expected, abs=1e-10)


# Levels from j = 171, where Gamma(j + 1) exceeds a float, frozen from the
# same 40-digit mpmath bisection.  The last two lie past j = 4095, where
# one ulp of E exceeds 1e-12; they follow the others, which are in sorted
# key order, so that the earlier entries keep their test ids.
HIGH_EVEN_ROOTS = {
    (1e-9, 300): 600.50000000001836997,
    (1e-3, 4095): 8190.5000049740473739,
    (1.0, 171): 342.52431129012734069,
    (1.0, 1000): 2000.5100637205802628,
    (1e3, 2000): 4001.443199924578431,
    (1e9, 3000): 6001.4999999302530812,
    (1.0, 4096): 8192.5049733375074423,
    (1.0, 10000): 20000.503183032295638,
}


@pytest.mark.parametrize("key,expected", HIGH_EVEN_ROOTS.items())
def test_even_energy_high_levels(key, expected):
    kappa, j = key
    assert even_energy(kappa, j) == pytest.approx(expected, rel=1e-15, abs=0.0)


# Levels j = 0..4 at eight kappa drawn as the levels benchmark draws them
# (log-uniform over [1e-2, 1e3], 6 significant digits; numpy
# default_rng(20261019)), and at one more kappa, frozen from a 40-digit
# mpmath bisection of g(t) = t - (2/pi) atan(kappa / (2 R(E))).  At
# kappa = 0.7077415122252649, j = 0, a secant step leaves the bracket
# 0.8069527951655223 ... 0.8069527951655225 and even_energy bisects it,
# a step that no other case here reaches.
WORKLOAD_ROOTS = {
    0.183506: ("0.5964397947113461817563621", "2.551151604866510429848718",
               "4.538613547871481356819478", "6.532246697744661208456956",
               "8.528244274246717724090377"),
    49.2081: ("1.477239590367769266245609", "3.465802072430646382211776",
              "5.457235402560656767141358", "7.450107748551879457626153",
              "9.443881109773994707382436"),
    0.0550485: ("0.5303984141855178613382508", "2.515479617998484871617633",
                "4.511630530418368519015933", "6.509697618865755087396164",
                "8.508487639163696404832863"),
    4.70574: ("1.285070948415599012900751", "3.185041969014783973819279",
              "5.119150550239800723639277", "7.070406732455631757796589",
              "9.032112485129713866561422"),
    1.04183: ("0.9035967371921797406218668", "2.763755475165448249035764",
              "4.707841617845258030490404", "6.67658034083610467026293",
              "8.656069416773456187807448"),
    614.47: ("1.498164694099959803623748", "3.49724656247207446031757",
             "5.496557954889723943941876", "7.495984118590350818853139",
             "9.495482016344063573132449"),
    491.444: ("1.497705578657647670302006", "3.496557623486993067770606",
              "5.495696646097211330300964", "7.494979172554905264469067",
              "9.494351392343805357947863"),
    0.270064: ("0.6373409012009015268032128", "2.574760832951993654186208",
               "4.556635743769682995527673", "6.547355718731329677155428",
               "8.541503034633144993638632"),
    0.7077415122252649: ("0.8069527951655223357910279", "2.687204817941061908302656",
                         "4.644857790668904682271682", "6.622112064198840640183024",
                         "8.607469582926097395455300"),
}


@pytest.mark.parametrize("kappa", WORKLOAD_ROOTS)
def test_even_energy_within_two_ulp(kappa):
    for j, root in enumerate(WORKLOAD_ROOTS[kappa]):
        energy = even_energy(kappa, j)
        assert abs(Decimal(energy) - Decimal(root)) <= 2 * Decimal(math.ulp(energy))


@pytest.mark.parametrize("kappa", [*WORKLOAD_ROOTS, 1e-300, 1e9])
def test_even_energy_evaluates_g_strictly_inside_its_bracket(monkeypatch, kappa):
    # The first evaluation of g is at t = 0, the bracket's lower end, and
    # every later one lies strictly inside the sign bracket that the
    # earlier ones leave, [2j + 1/2, 2j + 3/2] narrowed by the sign of each
    # g.  At kappa = 0.7077415122252649, j = 0, a secant step leaves the
    # bracket and only the bisection brings it back inside.
    evaluations = []
    real_even_g = single_particle._even_g

    def recording(energy, base, kappa):
        value = real_even_g(energy, base, kappa)
        evaluations.append((energy, value))
        return value

    monkeypatch.setattr(single_particle, "_even_g", recording)
    for j in range(5):
        evaluations.clear()
        even_energy(kappa, j)
        lo, hi = 2.0 * j + 0.5, 2.0 * j + 1.5
        (first, _), *steps = evaluations
        assert first == lo
        for energy, value in steps:
            assert lo < energy < hi
            lo, hi = (energy, hi) if value < 0.0 else (lo, energy)


def test_even_energy_evaluation_count(monkeypatch):
    # Each evaluation of g makes two lgamma calls.  g's slope lies in
    # [1, 1.22], so secant steps need five or six evaluations a level over
    # the levels benchmark's kappa range and far outside it, where a
    # bisection to the float floor takes about fifty.
    calls = []
    lgamma = math.lgamma

    def counted(x):
        calls.append(x)
        return lgamma(x)

    monkeypatch.setattr(single_particle.math, "lgamma", counted)
    kappas = [*np.logspace(-2.0, 3.0, 60), 1e-300, 1e-9, 1e9]
    evaluations = []
    for kappa in kappas:
        for j in range(5):
            calls.clear()
            even_energy(float(kappa), j)
            evaluations.append(len(calls) / 2)
    assert np.mean(evaluations) <= 6.0
    assert max(evaluations) <= 12


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
    # phi = 2^(-nu/2) sqrt(Gamma(nu + 1)) e_nu with nu = E - 1/2, so
    # int phi^2 = 2^(-nu) Gamma(nu + 1) int e_nu^2, the closed form that
    # normalizes every level.
    kappa, j = key
    nu = even_energy(kappa, j) - 0.5
    norm = 1.0 / math.sqrt(2.0**-nu * math.gamma(nu + 1.0) * specfun._line_norm(nu))
    assert norm == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "level", EVEN_LEVELS_MPMATH["levels"], ids=lambda row: f"{row['kappa']:g}-j{row['j']}")
def test_even_level_matches_mpmath(level):
    # kummer_u's own error enters through the two starts of the
    # recurrence; 5.8e-15 of the peak measured (kappa = 100, j = 20).
    kappa, j, energy = level["kappa"], level["j"], level["energy"]
    assert even_energy(kappa, j) == pytest.approx(energy, rel=1e-15)
    reference = np.array(level["values"])
    values = eigenfunction(EigenState("even", 2 * j, energy), EVEN_LEVELS_MPMATH["x"])
    assert np.max(np.abs(values - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("kappa", [1.0, 100.0])
def test_even_level_400_is_normalized(kappa):
    # E = 800.5 to 801.5: the level reaches x = 40, far past where
    # e^(-x^2/2) underflows.  The half-line trapezoid sum is off by the
    # O(dx^2) term of the slope jump at x = 0: 2e-8 and 3e-7 measured.
    dx = 0.002
    values = eigenfunction(even_state(kappa, 400), np.arange(30001) * dx)
    half_line = dx * (np.sum(values**2) - 0.5 * (values[0] ** 2 + values[-1] ** 2))
    assert abs(2.0 * half_line - 1.0) <= 1e-6


@pytest.mark.parametrize("kappa", [1.0, 100.0])
@pytest.mark.parametrize("j", [100, 200, 300])
def test_high_even_levels_match_mpmath(kappa, j):
    # The forward recurrence past j = 40, at x inside, at and past the
    # turning point t = sqrt(2 nu + 1), against 30-digit pcfd up to a
    # common factor (the norm is the j = 400 test's).  The unnormalized
    # D_nu overflows a float near nu = 400, so the ratios to the sample at
    # the peak are taken inside mpmath.  3.6e-14 of the peak measured.
    state = even_state(kappa, j)
    nu = state.energy - 0.5
    t = math.sqrt(2.0 * nu + 1.0)
    x = np.array([0.0, 0.5, 3.0, 10.0, 0.7 * t, t, t + 2.0, t + 5.0])
    values = eigenfunction(state, x)
    peak = int(np.argmax(np.abs(values)))
    with mpmath.workdps(30):
        d = [mpmath.pcfd(nu, mpmath.sqrt(2) * mpmath.mpf(xi)) for xi in x]
        ratios = np.array([float(di / d[peak]) for di in d])
    assert np.max(np.abs(values - ratios * values[peak])) <= 1e-12 * abs(values[peak])


def test_lowest_even_level_evaluates_one_kummer_u(monkeypatch):
    # At floor(nu) = 0 the recurrence takes no step, so only the start at
    # nu0 is evaluated: the even orbital of every finite-kappa Tonks pair.
    calls = []
    kummer_u = specfun.kummer_u

    def counted(a, b, z):
        calls.append(a)
        return kummer_u(a, b, z)

    monkeypatch.setattr(specfun, "kummer_u", counted)
    x = np.linspace(-6.0, 6.0, 13)
    values = eigenfunction(even_state(3.3, 0), x)
    assert len(calls) == 1
    assert np.all(values > 0.0)
    eigenfunction(even_state(3.3, 1), x)
    assert len(calls) == 3


@pytest.mark.parametrize("n,expected", sorted(HERMITE_NORM_REFERENCE.items()))
def test_hermite_norms(n, expected):
    # The levels are taken from the normalized recurrence, so the frozen
    # norm is their ratio to numpy's Hermite series H_n(x) e^(-x^2/2).
    x = np.array([-2.9, -1.3, 0.4, 1.7, 3.2])
    unnormalized = np.polynomial.hermite.hermval(x, [0] * n + [1]) * np.exp(-0.5 * x * x)
    *_, mirrored, odd_level = spectrum(math.inf, n + 1)
    odd = eigenfunction(odd_level, x)
    split = eigenfunction(mirrored, x)
    np.testing.assert_allclose(odd / unnormalized, expected, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(split, np.sign(x) * odd)


@pytest.mark.parametrize("n", [61, 151, 301, 801, 1201])
def test_hermite_function_orthonormal_at_high_degree(n):
    # Quadrature overlaps of the oscillator levels psi_{n-2}, psi_n,
    # psi_{n+2}, as the program evaluates them, on a mesh that
    # holds every oscillation (turning point sqrt(2n + 5) < 50): the
    # trapezoid sum of these smooth decaying functions is spectrally exact.
    # Past |x| = 38.6, where e^(-x^2/2) underflows, the levels from n = 700
    # on still carry weight.
    dx = 0.01
    x = np.arange(-6000, 6001) * dx
    values = [eigenfunction(EigenState("even" if m % 2 == 0 else "odd", m, m + 0.5), x)
              for m in (n - 2, n, n + 2)]
    gram = np.array([[np.sum(a * b) * dx for b in values] for a in values])
    np.testing.assert_allclose(gram, np.eye(3), rtol=0.0, atol=1e-12)

@pytest.mark.parametrize("kappa", [0.0, 3.3, math.inf])
@pytest.mark.parametrize("level", [2, 3], ids=["even", "odd"])
def test_eigenfunction_is_the_scalar_boundary(kappa, level):
    # A scalar x gives a Python float, the entry of the same point in an
    # array; an array gives an array of its own shape.
    state = spectrum(kappa, 4)[level]
    for x in (-0.7, np.float64(-0.7), np.array(-0.7)):
        value = eigenfunction(state, x)
        assert type(value) is float
        assert value == pytest.approx(eigenfunction(state, np.array([-0.7]))[0], rel=1e-14)
    for x in (np.linspace(-3.0, 3.0, 7), np.linspace(-3.0, 3.0, 12).reshape(3, 4), np.empty(0)):
        values = eigenfunction(state, x)
        assert isinstance(values, np.ndarray) and values.shape == x.shape


def test_ground_state_eigenfunction_is_gaussian_at_zero_barrier():
    state = even_state(0.0, 0)
    x = np.linspace(-4.0, 4.0, 41)
    expected = math.pi**-0.25 * np.exp(-0.5 * x * x)
    np.testing.assert_allclose(eigenfunction(state, x), expected, rtol=1e-9, atol=1e-12)


def test_odd_eigenfunction_node_at_origin():
    state = spectrum(1.0, 2)[1]
    assert eigenfunction(state, 0.0) == 0.0
    assert eigenfunction(state, 1.0) > 0.0


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
        np.testing.assert_allclose(eigenfunction(state, x), expected, rtol=1e-9, atol=1e-12)


def _lowest_states(kappa, count):
    states = spectrum(kappa, count)
    x = np.arange(-12.0, 12.0 + 2e-3, 4e-3)
    return [eigenfunction(s, x) for s in states], x


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
    right = (-3.0 * eigenfunction(state, 0.0) + 4.0 * eigenfunction(state, h)
             - eigenfunction(state, 2.0 * h)) / (2.0 * h)
    left = (3.0 * eigenfunction(state, 0.0) - 4.0 * eigenfunction(state, -h)
            + eigenfunction(state, -2.0 * h)) / (2.0 * h)
    jump = right - left
    expected = 2.0 * kappa * eigenfunction(state, 0.0)
    assert jump == pytest.approx(expected, rel=1e-4)


def test_spectrum_interleaving_at_zero_barrier():
    energies = [s.energy for s in spectrum(0.0, 4)]
    assert energies == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=1e-12)


def test_spectrum_infinite_barrier_degeneracy():
    states = spectrum(math.inf, 2)
    assert [s.energy for s in states] == [1.5, 1.5]
    assert [s.parity for s in states] == ["even", "odd"]
    assert [s.n for s in states] == [0, 1]


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
