"""Special functions for the split-trap eigenproblem.

Provides the gamma function, the confluent hypergeometric (Kummer)
functions M and U, and physicists' Hermite polynomials, for the
parameter ranges the trap solver actually visits.  U is supported for
b = 1/2 and a <= 0 only, which is the case generated by even parity
states: a = 1/4 - E/2 and every even level has E >= 1/2.

All functions accept scalars; ``kummer_m``, ``kummer_u`` and
``hermite`` also accept numpy arrays for the coordinate argument.
"""

import math

import numpy as np

POLE_TOL = 1e-14

_M_MAX_TERMS = 500
_M_REL_TOL = 1e-16
# Branch switch for U, set by measuring both routes against a
# high-precision reference.  Past it the connection formula loses digits
# to cancellation between its two e^z-sized terms.
_U_ASYMPTOTIC_Z = 18.0
_U_ASYMPTOTIC_MAX_TERMS = 300

_SQRT_PI = math.sqrt(math.pi)


class PoleError(ValueError):
    """Argument lies on (or within POLE_TOL of) a gamma-function pole."""


def _near_pole(x):
    return x <= 0.5 and abs(x - round(x)) <= POLE_TOL


def gamma(x):
    """Gamma function for real scalar x.

    Parameters
    ----------
    x : float
        Argument; must stay clear of the poles at 0, -1, -2, ...

    Returns
    -------
    float

    Raises
    ------
    PoleError
        If x is within POLE_TOL of a non-positive integer.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma argument must be finite")
    if _near_pole(x):
        raise PoleError(f"gamma pole at x = {x!r}")
    return math.gamma(x)


def reciprocal_gamma(x):
    """1/gamma(x), an entire function: zero at the poles of gamma.

    Within POLE_TOL of a pole x = -n it is evaluated by the reflection
    formula, (-1)^n sin(pi delta) gamma(1 - x) / pi with the exact
    offset delta = x + n, so it falls to zero linearly, not in a step.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("reciprocal_gamma argument must be finite")
    if _near_pole(x):
        n = round(x)
        sign = -1.0 if n % 2 else 1.0
        return sign * math.sin(math.pi * (x - n)) * math.gamma(1.0 - x) / math.pi
    return 1.0 / math.gamma(x)


def _as_array(z):
    arr = np.asarray(z, dtype=float)
    return arr, arr.ndim == 0


def _m_series(a, b, z):
    """Kummer M power series, vectorized over z.

    Terms are accumulated until every element satisfies
    |term| <= _M_REL_TOL * |sum|.  For non-positive integer a the
    series terminates exactly.
    """
    term = np.ones_like(z)
    total = np.ones_like(z)
    for n in range(1, _M_MAX_TERMS + 1):
        term = term * ((a + n - 1.0) / (b + n - 1.0)) * z / n
        total = total + term
        if np.all(np.abs(term) <= _M_REL_TOL * np.abs(total)):
            return total
    raise RuntimeError(
        f"Kummer M series did not converge within {_M_MAX_TERMS} terms "
        f"(a={a}, b={b}, max |z|={np.max(np.abs(z))})"
    )


def kummer_m(a, b, z):
    """Confluent hypergeometric function M(a, b, z) for any real z.

    At z >= 0 the power series is summed directly.  At z < 0 the direct
    series alternates, with terms up to e^|z| times larger than the
    result, so it is evaluated instead through Kummer's transformation
    M(a, b, z) = e^z M(b - a, b, -z) (DLMF 13.2.39), whose series sits
    at a positive argument.

    Parameters
    ----------
    a, b : float
        Series parameters; b must not be a non-positive integer.
    z : float or ndarray

    Returns
    -------
    float or ndarray
    """
    a = float(a)
    b = float(b)
    if _near_pole(b):
        raise ValueError(f"kummer_m undefined for non-positive integer b = {b!r}")
    zarr, scalar = _as_array(z)
    out = np.empty_like(zarr)
    neg = zarr < 0.0
    if np.any(neg):
        out[neg] = np.exp(zarr[neg]) * _m_series(b - a, b, -zarr[neg])
    if not np.all(neg):
        out[~neg] = _m_series(a, b, zarr[~neg])
    return float(out) if scalar else out


def _u_connection(a, z):
    # U(a, 1/2, z) from the b = 1/2 connection formula.  A reciprocal
    # gamma keeps the limits finite when a or a + 1/2 hits a pole.
    c1 = reciprocal_gamma(a + 0.5)
    c2 = reciprocal_gamma(a)
    m1 = _m_series(a, 0.5, z) if c1 != 0.0 else np.zeros_like(z)
    m2 = _m_series(a + 0.5, 1.5, z) if c2 != 0.0 else np.zeros_like(z)
    return _SQRT_PI * (c1 * m1 - 2.0 * np.sqrt(z) * c2 * m2)


def _u_asymptotic(a, z):
    # Large-z expansion z^-a * sum_s (a)_s (a+1/2)_s / (s! (-z)^s),
    # truncated at the smallest term element by element.  For negative a
    # the first few terms grow while the Pochhammer factors are still
    # large, so truncation is only armed once s has passed |a|.
    term = np.ones_like(z)
    total = np.ones_like(z)
    active = np.ones(z.shape, dtype=bool)
    arm_truncation = math.ceil(max(0.0, -a)) + 1
    for s in range(_U_ASYMPTOTIC_MAX_TERMS):
        nxt = term * (a + s) * (a + 0.5 + s) / ((s + 1.0) * (-z))
        if s >= arm_truncation:
            grew = np.abs(nxt) >= np.abs(term)
            active = active & ~grew
        total = np.where(active, total + nxt, total)
        term = np.where(active, nxt, term)
        done = np.abs(term) <= _M_REL_TOL * np.abs(total)
        active = active & ~done
        if not np.any(active):
            break
    return z ** (-a) * total


def kummer_u(a, b, z):
    """Confluent hypergeometric function U(a, b, z) for a <= 0, b = 1/2, z >= 0.

    Two routes cover the domain: the M-connection formula at small z
    and the large-z expansion truncated at its smallest term.

    Parameters
    ----------
    a : float
        Must be <= 0; the even levels never produce a > 0.
    b : float
        Must equal 0.5; other values are outside the supported domain.
    z : float or ndarray
        Non-negative.

    Returns
    -------
    float or ndarray
    """
    a = float(a)
    if float(b) != 0.5:
        raise ValueError(f"kummer_u supports b = 1/2 only, got b = {b!r}")
    if a > 0.0:
        raise ValueError(f"kummer_u supports a <= 0 only, got a = {a!r}")
    zarr, scalar = _as_array(z)
    if np.any(zarr < 0.0):
        raise ValueError("kummer_u requires z >= 0")
    out = np.empty_like(zarr)
    series = zarr <= _U_ASYMPTOTIC_Z
    if np.any(series):
        out[series] = _u_connection(a, zarr[series])
    large = ~series
    if np.any(large):
        out[large] = _u_asymptotic(a, zarr[large])
    return float(out) if scalar else out


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x) by three-term recurrence.

    Parameters
    ----------
    n : int
        Degree, 0 <= n <= 60.
    x : float or ndarray

    Returns
    -------
    float or ndarray
    """
    if n != int(n) or n < 0:
        raise ValueError(f"hermite degree must be a non-negative integer, got {n!r}")
    n = int(n)
    if n > 60:
        raise ValueError(f"hermite degree {n} exceeds the supported maximum 60")
    xarr, scalar = _as_array(x)
    h_prev = np.ones_like(xarr)
    if n == 0:
        return float(h_prev) if scalar else h_prev
    h = 2.0 * xarr
    for k in range(1, n):
        h, h_prev = 2.0 * xarr * h - 2.0 * k * h_prev, h
    return float(h) if scalar else h
