"""Special-function kernel: gamma, Kummer U, parabolic-cylinder and Hermite functions, and the M(1/2, 3/2) momentum bracket."""

import math

import numpy as np
import pytest
from scipy.special import dawsn

from splittrap import specfun, tonks
from splittrap.single_particle import EigenState, eigenfunction
from splittrap.specfun import PoleError

# Reference values computed once with mpmath at 40 digits and frozen.
# The entries from (-0.05, 14.0) on cover a in [-1, 0] over
# 10 <= z <= 25; they follow the others, which are in sorted key order,
# so that the earlier entries keep their test ids.
U_HALF_REFERENCE = {
    (-10.0, 60.0): 8.8750929967155507e16,
    (-5.5, 0.3): -39.162338132837782,
    (-5.5, 12.0): -20088.650025710258,
    (-5.5, 45.0): 621237512.01181032,
    (-3.3, 4.0): -21.20089177671341,
    (-3.3, 25.0): 27109.799774550249,
    (-1.7, 0.3): -0.57015919243673742,
    (-1.7, 12.0): 56.780797067130927,
    (-0.8, 4.0): 2.8523211896351393,
    (-0.8, 45.0): 20.905046813547224,
    (-0.3, 0.3): 0.77944022588787717,
    (-0.3, 25.0): 2.6327304432126176,
    (-0.25, 4.0): 1.4342923222239645,
    (-0.05, 14.0): 1.1428069115019671,
    (-0.05, 17.0): 1.1536538407313655,
    (-0.05, 17.9): 1.1565618792177005,
    (-0.05, 22.0): 1.1682938358178153,
    (-0.2, 14.0): 1.7022365790806767,
    (-0.2, 17.0): 1.7683837846543058,
    (-0.2, 17.9): 1.7864244331092969,
    (-0.2, 22.0): 1.8605486624022505,
    (-0.35, 14.0): 2.5277275363317422,
    (-0.35, 17.0): 2.7037634490981101,
    (-0.35, 17.9): 2.7526153174278107,
    (-0.35, 22.0): 2.9571025657942774,
    (-0.499, 14.0): 3.7319267372878361,
    (-0.499, 17.0): 4.1115595180410193,
    (-0.499, 17.9): 4.2187676602536869,
    (-0.499, 22.0): 4.6760447707252015,
    (-0.6, 14.0): 4.8510330184991393,
    (-0.6, 17.0): 5.4544297231486224,
    (-0.6, 17.9): 5.6268800818453354,
    (-0.6, 22.0): 6.3720166845239258,
    (-0.8, 14.0): 8.1176258117728103,
    (-0.8, 17.0): 9.510621358512051,
    (-0.8, 17.9): 9.9184169449432273,
    (-0.8, 22.0): 11.727060165054743,
    (-0.95, 14.0): 11.895053646774517,
    (-0.95, 17.0): 14.38382443017737,
    (-0.95, 17.9): 15.125868786775415,
    (-0.95, 22.0): 18.483516397676579,
}

# d/dx 1/Gamma(x) = -psi(x)/Gamma(x), computed once with mpmath.diff of
# mpmath.rgamma at 40 digits and frozen: positive x, negative non-integer
# x, and x within 1e-15 of the poles -n of Gamma (n <= 6), where the
# function is finite and equals (-1)^n n! at x = -n.  It checks psi and
# sin(pi x), which the parabolic-cylinder norm is built from.
RGAMMA_DERIVATIVE_REFERENCE = {
    0.5: 1.107791903872871,
    1.0: 0.57721566490153286,
    2.5: -0.52895153633930543,
    7.25: -0.0016535268486037587,
    30.0: -3.82778696721517e-31,
    -0.25: 0.59452003435874871,
    -0.5: 0.010293631611320775,
    -1.3: -0.8660576986073988,
    -2.75: -1.9502829250865932,
    -4.5: 26.842783252014301,
    -6.6: 647.50437945747638,
    1e-15: 1.0000000000000012,
    -1e-15: 0.99999999999999885,
    -0.999999999999999: -0.99999999999999916,
    -1.000000000000001: -1.0000000000000009,
    -1.999999999999999: 1.9999999999999959,
    -2.000000000000001: 2.0000000000000033,
    -2.999999999999999: -5.9999999999999866,
    -3.000000000000001: -6.0000000000000134,
    -3.999999999999999: 23.999999999999936,
    -4.000000000000001: 24.000000000000064,
    -4.999999999999999: -119.99999999999964,
    -5.000000000000001: -120.00000000000036,
    -5.999999999999999: 719.9999999999976,
    -6.000000000000001: 720.0000000000024,
    -6.0: 720.0,
}

# M(1/2, 3/2, z), computed once with mpmath at 40 digits and frozen.
M_HALF_REFERENCE = {
    0.5: 1.1949576619102276,
    1.0: 1.4626517459071816,
    5.0: 17.17215777384149,
    10.0: 1168.2304635794389,
    50.0: 5.2381917621841878e19,
    100.0: 1.3508822806719219e41,
}

def test_gamma_known_values():
    assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-12)
    assert specfun.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)
    assert specfun.gamma(12.5) == pytest.approx(math.gamma(12.5), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -3.0 + 5e-15])
def test_gamma_pole_guard(x):
    with pytest.raises(PoleError):
        specfun.gamma(x)


def test_gamma_rejects_non_finite():
    with pytest.raises(ValueError):
        specfun.gamma(float("nan"))


@pytest.mark.parametrize("x", np.linspace(0.05, 0.95, 19))
def test_gamma_reflection(x):
    product = specfun.gamma(x) * specfun.gamma(1.0 - x) * math.sin(math.pi * x)
    assert product == pytest.approx(math.pi, rel=1e-10)


@pytest.mark.parametrize("x,expected", sorted(RGAMMA_DERIVATIVE_REFERENCE.items()))
def test_reciprocal_gamma_derivative_reference(x, expected):
    # -psi(x) / Gamma(x) from _digamma, which takes x >= 1/2; below that,
    # the reflection formulas for Gamma and psi (DLMF 5.5.3, 5.5.4) give
    # the pole-free -[psi(1 - x) sin(pi x) - pi cos(pi x)] Gamma(1 - x) / pi.
    # The loosest row is x = -0.5, near a zero of psi: 3.5e-15 measured.
    if x >= 0.5:
        value = -specfun._digamma(x) / math.gamma(x)
    else:
        bracket = specfun._digamma(1.0 - x) * specfun.sin_pi(x) - math.pi * specfun.sin_pi(x + 0.5)
        value = -bracket * math.gamma(1.0 - x) / math.pi
    assert value == pytest.approx(expected, rel=1e-14, abs=0.0)


# M(1/2, 3/2, z) is summed where it is used, in the kappa = inf momentum
# bracket B(z) = 1 - 2z e^(-z) M(1/2, 3/2, z), which tonks._momentum_bracket
# takes at k^2 = 2z.  The error of B is (1 - B) <= 1.3 times M's relative
# error, so an absolute 1e-12 on B is at least as strict as a relative
# 1e-10 on M.
def test_kummer_m_trivial_cases():
    # M(1/2, 3/2, 0) = 1, so B(0) = 1 exactly.
    assert tonks._momentum_bracket(np.array(0.0)) == 1.0


@pytest.mark.parametrize("z,expected", sorted(M_HALF_REFERENCE.items()))
def test_kummer_m_reference_family(z, expected):
    frozen = 1.0 - 2.0 * z * math.exp(-z) * expected
    assert tonks._momentum_bracket(np.array(2.0 * z)) == pytest.approx(frozen, rel=0.0, abs=1e-12)


def test_kummer_transform_family():
    # B on 0 < z <= 600, across the switch from the power series to the
    # large-z sum at z = 200, against Kummer's transformation of Dawson's
    # D, 2z e^(-z) M(1/2, 3/2, z) = 2 sqrt(z) D(sqrt z), which does not
    # call it.  4.0e-15 measured.
    z = np.union1d(np.linspace(0.05, 600.0, 12000), [199.9, 200.0, 200.1])
    dawson_form = 1.0 - 2.0 * np.sqrt(z) * dawsn(np.sqrt(z))
    np.testing.assert_allclose(tonks._momentum_bracket(2.0 * z), dawson_form, rtol=0.0, atol=1e-12)


def test_kummer_u_constant_at_a_zero():
    for z in (0.0, 0.5, 10.0, 40.0, 60.0):
        assert specfun.kummer_u(0.0, 0.5, z) == pytest.approx(1.0, rel=1e-12)


def test_kummer_u_ground_state_reduction():
    # a = 1/4 - E/2 vanishes at E = 1/2, collapsing the even profile to
    # the plain Gaussian.
    for x in (0.0, 0.7, 2.0, 5.0):
        assert specfun.kummer_u(0.0, 0.5, x * x) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("key,expected", U_HALF_REFERENCE.items())
def test_kummer_u_reference_table(key, expected):
    # 8.9e-16 relative measured on the a in [-1, 0] entries, 6.7e-16 on
    # the others.
    a, z = key
    assert specfun.kummer_u(a, 0.5, z) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_kummer_u_polynomial_cases():
    # At a = -m the function is a polynomial: U(-1,1/2,z) = z - 1/2 and
    # U(-2,1/2,z) = z^2 - 3z + 3/4, an exact closed form from z = 0.1
    # to 55.
    z = np.array([0.1, 2.0, 8.5, 17.9, 18.1, 29.0, 31.0, 55.0])
    np.testing.assert_allclose(specfun.kummer_u(-1.0, 0.5, z), z - 0.5, rtol=1e-10)
    np.testing.assert_allclose(
        specfun.kummer_u(-2.0, 0.5, z), z * z - 3.0 * z + 0.75, rtol=1e-10
    )


def test_kummer_u_branch_continuity():
    # Values 2e-9 apart in z, around z = 18, must agree far better than
    # the 1e-8 contract.
    for a, z0 in ((-0.4, 18.0), (-6.0, 18.0)):
        below = specfun.kummer_u(a, 0.5, z0 - 1e-9)
        above = specfun.kummer_u(a, 0.5, z0 + 1e-9)
        assert below == pytest.approx(above, rel=1e-7)


def test_kummer_u_blocks_match_one_block(monkeypatch):
    # The rule runs over blocks of at most 4096 points of z; on 10,000
    # points (three blocks) it gives the bits of a single-block call.
    z = np.random.default_rng(3).uniform(0.0, 400.0, 10_000)
    for a in (-0.3, -7.6):
        blocked = specfun.kummer_u(a, 0.5, z)
        monkeypatch.setattr(specfun, "_U_BLOCK", z.size)
        single = specfun.kummer_u(a, 0.5, z)
        monkeypatch.undo()
        assert specfun._U_BLOCK == 4096
        np.testing.assert_array_equal(blocked, single)


def test_kummer_u_rejects_unsupported_b():
    with pytest.raises(ValueError):
        specfun.kummer_u(-0.25, 1.5, 1.0)


def test_kummer_u_rejects_positive_a():
    # a = 1/4 - E/2 <= 0 for every even level, so a > 0 is outside the domain.
    with pytest.raises(ValueError):
        specfun.kummer_u(0.6, 0.5, 1.0)


def test_kummer_u_rejects_negative_z():
    with pytest.raises(ValueError):
        specfun.kummer_u(-0.25, 0.5, -1.0)


def _hermite_oracle(n, x):
    # H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi)) from numpy's Hermite series.
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return norm * np.polynomial.hermite.hermval(x, [0] * n + [1]) * np.exp(-0.5 * x * x)


def _hermite_level(n, x):
    # psi_n as the program evaluates it: the oscillator level n, of parity
    # (-1)^n, at energy n + 1/2.
    return eigenfunction(EigenState("even" if n % 2 == 0 else "odd", n, n + 0.5), x)


def test_hermite_base_cases():
    # psi_0 = pi^(-1/4) e^(-x^2/2), psi_1 = sqrt(2) x psi_0,
    # psi_2 = (2x^2 - 1) psi_0 / sqrt(2).
    quarter = math.pi**-0.25
    psi = _hermite_level
    assert psi(0, 3.7) == pytest.approx(quarter * math.exp(-0.5 * 3.7**2), rel=1e-15)
    assert psi(1, 2.0) == pytest.approx(quarter * 2.0**1.5 * math.exp(-2.0), rel=1e-15)
    assert psi(2, 1.0) == pytest.approx(quarter * math.exp(-0.5) / math.sqrt(2.0), rel=1e-15)


def test_parabolic_cylinder_rejects_bad_order():
    for bad in (-0.5, -1.0, float("nan")):
        with pytest.raises(ValueError):
            specfun.parabolic_cylinder(bad, 0.0)


def test_parabolic_cylinder_integer_orders_are_hermite_functions(monkeypatch):
    # At integer order the level is psi_n(|x|), started exactly and never
    # through kummer_u.
    monkeypatch.setattr(specfun, "kummer_u", None)
    x = np.linspace(-6.0, 6.0, 25)
    for n in range(8):
        np.testing.assert_allclose(specfun.parabolic_cylinder(n, x), _hermite_oracle(n, np.abs(x)),
                                   rtol=1e-13, atol=1e-16)
    assert specfun._line_norm(7.0) == math.sqrt(math.pi)


def test_hermite_rejects_bad_degree():
    # No degree cap: the odd level of degree 61 vanishes at the origin.
    assert _hermite_level(61, 0.0) == 0.0


@pytest.mark.parametrize("n", range(1, 60))
def test_hermite_recurrence(n):
    # The recurrence against the Hermite series, elementwise.
    x = np.linspace(-10.0, 10.0, 41)
    np.testing.assert_allclose(_hermite_level(n, x), _hermite_oracle(n, x),
                               rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("a", [-10.0, -7.0, -5.0, -3.0, -2.5, -2.0])
def test_kummer_u_overlap_window(a):
    # At these a, U is a polynomial: U(a, 1/2, z) = 4^a H_(-2a)(sqrt z),
    # taken here from numpy's Hermite series.  2.2e-13 relative measured.
    z = np.linspace(20.0, 40.0, 21)
    order = round(-2.0 * a)
    hermite = 4.0**a * np.polynomial.hermite.hermval(np.sqrt(z), [0] * order + [1])
    rel = np.max(np.abs(specfun.kummer_u(a, 0.5, z) - hermite) / np.abs(hermite))
    assert rel < 1e-6
