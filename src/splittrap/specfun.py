"""Special functions for the split-trap eigenproblem.

Provides sin(pi x), the digamma function, the confluent
hypergeometric (Kummer) function U at z >= 0, and the normalized
parabolic-cylinder functions, whose integer orders are the Hermite
functions on |x|, for the parameter ranges the trap solver visits.
U is supported for b = 1/2 and a <= 0 only, which is the case generated
by even parity states: a = 1/4 - E/2 and every even level has E >= 1/2.
It takes one route at every z: an integral of the parabolic-cylinder
function at negative order, then the order recurrence.

Every single-particle level is D_nu(sqrt(2)|x|) of order nu = E - 1/2,
up to a sign (``single_particle``).  With e_nu = D_nu(sqrt(2)|x|) /
sqrt(Gamma(nu + 1)), a = -nu/2, s = sin(pi a) and c = cos(pi a), the
Wronskian norm of ``single_particle`` taken through the reflection
formulas for Gamma and psi (DLMF 5.5.3, 5.5.4) and the duplication
formula (DLMF 5.5.5) is

    int e_nu^2 dx = (t1 - t0) / (2 sqrt(pi)),
    t1 = 2sc psi(1/2 - a) + 2 pi s^2,    t0 = 2sc psi(1 - a) - 2 pi c^2,

over the whole line.  It has no Gamma of a large argument, and since
s^2 + c^2 = 1 it is sqrt(pi) - sin(pi nu) [psi(1/2 + nu/2) -
psi(1 + nu/2)] / (2 sqrt(pi)): sqrt(pi) at integer nu, where ``sin_pi``
is exactly 0.

``kummer_u`` and ``parabolic_cylinder`` take the coordinate as an array
and return an array of its shape (0-d for a scalar); the package's
scalar boundary is ``single_particle.eigenfunction``.  They load numpy,
through the lazy seam ``_numpy.np``, when they are called; ``sin_pi``
and the norm are scalar and need none.  ``gamma`` is ``math.gamma``,
kept under this name for the benchmark tracer, which hooks it.
"""

import math

from ._numpy import np

# The trapezoid rule of ``kummer_u`` in s = ln t: nodes t = e^s on
# s in [-40, 3] at step 1/8, taken over at most _U_BLOCK points of z at once.
_U_STEP = 0.125
_U_BLOCK = 4096

_SQRT_PI = math.sqrt(math.pi)
_LN2 = math.log(2.0)


# bench/tracer.py hooks specfun.gamma, so the name stays until ROADMAP item 25.
gamma = math.gamma


def sin_pi(x):
    """sin(pi x), taken at the exact offset from the nearest integer n as
    (-1)^n sin(pi (x - n)), so that it is exactly 0 at the integers."""
    n = round(x)
    sign = -1.0 if n % 2 else 1.0
    return sign * math.sin(math.pi * (x - n))


def _digamma(x):
    # psi(x) for x >= 1/2: the recurrence psi(x) = psi(x + 1) - 1/x lifts
    # the argument to 10 or more, where the asymptotic series (DLMF 5.11.2)
    # through its x^-14 term is accurate to double precision.
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (
        1.0 / 240 - inv2 * (1.0 / 132 - inv2 * (691.0 / 32760 - inv2 / 12))))))
    return shift + math.log(x) - 0.5 / x - tail


def kummer_u(a, b, z):
    """Confluent hypergeometric function U(a, b, z) for a <= 0, b = 1/2, z >= 0.

    With nu = -2a and y = sqrt(2z), U(a, 1/2, z) = 2^a e^(z/2) D_nu(y)
    (DLMF 12.7.14).  F_mu = e^(y^2/4) D_mu(y) is, for mu < 0 (DLMF 12.5.1),

        F_mu Gamma(-mu) = int_0^inf t^(-mu-1) e^(-yt - t^2/2) dt,

    an integral of a positive function, taken at mu0 = nu - floor(nu) - 4
    and mu0 + 1 by the trapezoid rule in s = ln t.  The integrand is
    analytic in |Im s| < pi/4, so the rule converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)), to about
    e^(-pi^2 / (2h)) = 7e-18 at step h = 1/8.  Outside the nodes' span,
    s in [-40, 3], lies less than 1e-16 of the integral for y up to
    about 1e9.  F obeys the recurrence of D,
    F_(m+1) = y F_m - m F_(m-1) (DLMF 12.8.1), stable upward (Gil,
    Segura & Temme, Numerical Methods for Special Functions, SIAM 2007),
    which climbs floor(nu) + 3 steps to F_nu, and U = 2^a F_nu.  It takes
    the rule over blocks of at most 4096 points of z, each one float array
    of 345 entries per point, so its memory stays bounded.

    Parameters
    ----------
    a : float
        Must be <= 0; the even levels never produce a > 0.
    b : float
        Must equal 0.5; other values are outside the supported domain.
    z : array_like
        Non-negative.

    Returns
    -------
    ndarray
        Shaped like z.
    """
    a = float(a)
    if float(b) != 0.5:
        raise ValueError(f"kummer_u supports b = 1/2 only, got b = {b!r}")
    if a > 0.0:
        raise ValueError(f"kummer_u supports a <= 0 only, got a = {a!r}")
    zarr = np.asarray(z, dtype=float)
    if np.any(zarr < 0.0):
        raise ValueError("kummer_u requires z >= 0")
    y = np.sqrt(2.0 * zarr).ravel()
    order = math.floor(-2.0 * a)
    mu = -2.0 * a - order - 4.0
    t = np.exp(np.arange(-320, 25) * _U_STEP)
    lower, upper = np.empty((2, y.size))
    for i in range(0, y.size, _U_BLOCK):
        # Built in place, and released before the next block's is built:
        # one (block x nodes) array at a time.
        kernel = np.multiply.outer(y[i : i + _U_BLOCK], -t)
        kernel -= 0.5 * t * t
        np.exp(kernel, out=kernel)
        lower[i : i + _U_BLOCK] = kernel @ (_U_STEP * t**-mu)
        upper[i : i + _U_BLOCK] = kernel @ (_U_STEP * t ** (-mu - 1.0))
        del kernel
    lower /= math.gamma(-mu)
    upper /= math.gamma(-mu - 1.0)
    for m in np.arange(order + 3) + mu + 1.0:
        lower, upper = upper, y * upper - m * lower
    return (2.0**a * upper).reshape(zarr.shape)


def _line_norm(nu):
    # int e_nu^2 dx over the line, e_nu = D_nu(sqrt(2)|x|) / sqrt(Gamma(nu + 1)),
    # in the closed form of the module docstring.
    psi = _digamma
    return _SQRT_PI - sin_pi(nu) * (psi(0.5 + 0.5 * nu) - psi(1.0 + 0.5 * nu)) / (2.0 * _SQRT_PI)


def _kummer_start(m, z):
    # e_m e^(x^2/2) = 2^(m/2) U(-m/2, 1/2, x^2) / sqrt(Gamma(m + 1)) at z = x^2.
    return 2.0 ** (0.5 * m) / math.sqrt(math.gamma(m + 1.0)) * kummer_u(-0.5 * m, 0.5, z)


def parabolic_cylinder(nu, x):
    """Normalized parabolic-cylinder function D_nu(sqrt(2)|x|) / ||D_nu|| for real nu >= 0.

    e_m = D_m(sqrt(2)|x|) / sqrt(Gamma(m + 1)) obeys the Hermite recurrence
    e_{m+1} = sqrt(2/(m+1)) |x| e_m - sqrt(m/(m+1)) e_{m-1} (DLMF 12.8.1),
    which is stable upward in m (Gil, Segura & Temme, ACM TOMS 32, 70
    (2006)).  It climbs from nu0 = nu - floor(nu) and, if nu >= 1, from
    nu0 + 1, where D_m(sqrt(2)|x|) = 2^(m/2) e^(-x^2/2) U(-m/2, 1/2, x^2)
    with U from ``kummer_u`` at a in [-1, 0], or exactly U(0, 1/2, z) = 1
    and U(-1/2, 1/2, z) = sqrt(z) at integer nu.  It runs on e_m e^(x^2/2)
    with a power-of-two exponent per point, so nothing under- or
    overflows before the final e^(-x^2/2).  The norm is the closed form
    of the module docstring.  x is array_like, and the result has its shape.
    """
    nu = float(nu)
    if not nu >= 0.0:
        raise ValueError(f"parabolic-cylinder order must be >= 0, got {nu!r}")
    r = np.abs(np.asarray(x, dtype=float))
    z = r * r
    order = math.floor(nu)
    frac = nu - order
    if frac == 0.0:
        lower, upper = np.ones_like(z), math.sqrt(2.0) * r
    else:
        # The start at nu0 + 1 is read only if the recurrence climbs.
        lower = _kummer_start(frac, z)
        upper = _kummer_start(frac + 1.0, z) if order else None
    exponent = np.zeros_like(z)
    for m in np.arange(order) + frac + 1.0:
        step = math.sqrt(2.0 / (m + 1.0)) * r * upper - math.sqrt(m / (m + 1.0)) * lower
        mantissa, shift = np.frexp(step)
        lower, upper = np.ldexp(upper, -shift), mantissa
        exponent += shift
    return lower * np.exp(exponent * _LN2 - 0.5 * z) / math.sqrt(_line_norm(nu))

