"""Single particle in a harmonic trap with a central delta barrier.

Units are scaled: lengths in d = sqrt(hbar / m omega), energies in
hbar omega, barrier strength kappa in hbar omega d.  Even parity
levels come from the root of the gamma-ratio relation

    -kappa = 2 Gamma(-E/2 + 3/4) / Gamma(-E/2 + 1/4),

found as the root of the entire function

    h(E) = 2 / Gamma(1/4 - E/2) + kappa / Gamma(3/4 - E/2)

(the relation multiplied through by 1 / Gamma(3/4 - E/2)), which changes
sign across the exact bracket [2j + 1/2, 2j + 3/2].  By the reflection
formula, pi h(E) / Gamma(1/4 + E/2) = 2 sin(pi a) exp(lgamma(3/4 + E/2) -
lgamma(1/4 + E/2)) + kappa sin(pi (a + 1/2)), a = 1/4 - E/2, which has
the sign of h and no factor that overflows; the bisection uses it.  Odd
levels are barrier-blind harmonic oscillator states with E = n + 1/2.
The relation is that of two atoms with a contact interaction in a
harmonic trap (Busch et al., Found. Phys. 28, 549 (1998)).

Every level is one function.  The even level
phi(x) = exp(-x^2/2) U(a, 1/2, x^2) with a = 1/4 - E/2 solves
phi'' = (x^2 - 2E) phi on x > 0 and decays for every E; it is
2^(-nu/2) D_nu(sqrt(2)|x|) with nu = E - 1/2 (DLMF 12.7.14).  The odd
level n is the Hermite function sgn(x) D_n(sqrt(2)|x|) / sqrt(n! sqrt(pi)),
and the infinite-barrier even level j, at nu = 2j + 1, is the odd level
above it mirrored to x < 0.  So ``eigenfunction`` evaluates every level
as ``specfun.parabolic_cylinder`` of order E - 1/2, signed by sgn(x) for
odd parity.

Its norm is in closed form.  Differentiating the equation in E gives

    d/dx (phi d_E phi' - phi' d_E phi) = -2 phi^2,

and the bracket vanishes at infinity, so the integral of phi^2 over the
line (twice the half-line) is its value at x = 0+.  The b = 1/2
connection formula (DLMF 13.2.42) gives phi(0) = sqrt(pi) / Gamma(a + 1/2)
and phi'(0+) = -2 sqrt(pi) / Gamma(a), with d_E = -d_a/2, so

    int phi^2 dx = pi [psi(a + 1/2) - psi(a)] / (Gamma(a) Gamma(a + 1/2))
                 = 2^(-nu) Gamma(nu + 1) (t1 - t0) / (2 sqrt(pi)),

the second form, with t1 and t0 from the reflection formulas, being the
one ``specfun`` evaluates for the normalized D_nu.  It has no pole, so
kappa = 0 (a = -j) and kappa -> inf (a + 1/2 -> -j) need no special
case.  Couplings are plain floats, math.inf for the limit, checked by
``check_coupling``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

_BISECTION_TOL = 1e-12


class BracketError(RuntimeError):
    """Bisection of a level bracket stalls before reaching its tolerance."""


def check_coupling(value, name="kappa"):
    """``value`` as a coupling: a float >= 0, with math.inf for the limit.

    kappa = inf is the impenetrable barrier, g1d = inf the hard core.
    Raises ValueError for text that is not a number, NaN and negative
    values; -0 reads as 0.
    """
    try:
        number = float(value)
    except ValueError as exc:
        raise ValueError(f"invalid {name} {value!r}") from exc
    if not number >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    # abs clears the sign bit of -0.0, which would otherwise print as "-0".
    return abs(number)


@dataclass(frozen=True)
class EigenState:
    """One normalized single-particle level.

    ``n`` follows harmonic-oscillator counting: even levels carry
    n = 0, 2, 4, ... (the j-th even level has n = 2j), odd levels the
    exact oscillator index n = 1, 3, 5, ...  ``kappa`` is the barrier
    strength, math.inf for the impenetrable barrier.  Odd levels do not
    feel it, but carry the kappa that ``spectrum`` was asked for.
    """

    parity: str
    n: int
    energy: float
    kappa: float


def _even_h(energy, kappa):
    # pi h(E) / Gamma(1/4 + E/2), of the sign of h (module docstring).
    ratio = math.exp(math.lgamma(0.75 + 0.5 * energy) - math.lgamma(0.25 + 0.5 * energy))
    sin_pi = specfun.sin_pi
    return 2.0 * sin_pi(0.25 - 0.5 * energy) * ratio + kappa * sin_pi(0.75 - 0.5 * energy)


def even_energy(kappa, j):
    """Energy of the j-th even level at barrier strength kappa.

    Parameters
    ----------
    kappa : float
        Barrier strength, >= 0; math.inf is the impenetrable barrier.
    j : int
        Even-level index, j >= 0.

    Returns
    -------
    float
        Energy in (2j + 1/2, 2j + 3/2); the closed-form limits
        2j + 1/2 (kappa = 0) and 2j + 3/2 (infinite) are returned
        exactly.
    """
    kappa = check_coupling(kappa)
    if j != int(j) or j < 0:
        raise ValueError(f"even level index must be a non-negative integer, got {j!r}")
    j = int(j)
    if math.isinf(kappa):
        return 2.0 * j + 1.5
    if kappa == 0.0:
        return 2.0 * j + 0.5

    # Bisection on the exact bracket.  h has no poles, and at the ends
    # only one of its terms survives: the kappa term at the lower end, the
    # gamma-ratio term at the upper, of opposite signs that alternate
    # with j.  Iterating past the nominal tolerance down to the
    # floating-point floor keeps the root exact even for very large or
    # very small kappa, where it hugs one end of the bracket.
    lo = 2.0 * j + 0.5
    hi = 2.0 * j + 1.5
    lower_sign = math.copysign(1.0, _even_h(lo, kappa))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _even_h(mid, kappa) * lower_sign > 0.0:
            lo = mid
        else:
            hi = mid
    if hi - lo > _BISECTION_TOL:
        raise BracketError(
            f"bisection stalled on level {j} at kappa = {kappa}: "
            f"bracket width {hi - lo:.3e}"
        )
    return 0.5 * (lo + hi)


def odd_energy(n):
    """Energy n + 1/2 of an odd oscillator level (n odd), any barrier."""
    if n != int(n) or n < 1 or int(n) % 2 == 0:
        raise ValueError(f"odd level index must be an odd positive integer, got {n!r}")
    return int(n) + 0.5


def even_state(kappa, j):
    """The j-th even level as an EigenState."""
    kappa = check_coupling(kappa)
    return EigenState("even", 2 * int(j), even_energy(kappa, j), kappa)


def eigenfunction(state, x):
    """Evaluate a normalized eigenstate on scalar or array x.

    Every level is ``specfun.parabolic_cylinder`` of order E - 1/2; an
    odd level carries sgn(x).
    """
    xarr = np.asarray(x, dtype=float)
    values = specfun.parabolic_cylinder(state.energy - 0.5, xarr)
    if state.parity == "odd":
        values = np.sign(xarr) * values
    return float(values) if xarr.ndim == 0 else values


def spectrum(kappa, count):
    """Lowest ``count`` levels at barrier strength kappa, by energy.

    Level i has oscillator index n = i: the even level j lies in
    (2j + 1/2, 2j + 3/2] and the odd level 2j + 1 sits at 2j + 3/2, so
    the parities alternate, and even comes first in the doubly
    degenerate infinite-barrier limit, where the two meet.  Every level
    carries the requested kappa.

    kappa = 0 and kappa = inf have closed-form energies and no level
    limit.  At finite kappa > 0 at most 8192 levels work: from j = 4096
    on, one ulp of E (1.8e-12 at E = 8192) exceeds the 1e-12 bisection
    tolerance, and ``even_energy`` raises BracketError.  The
    eigenfunctions are verified up to even level j = 40 against mpmath
    and, through the Hermite functions, up to n = 1201 by their Gram
    matrix on the mesh.
    """
    kappa = check_coupling(kappa)
    if count != int(count) or count < 1:
        raise ValueError(f"level count must be a positive integer, got {count!r}")
    return [
        EigenState("odd", n, odd_energy(n), kappa) if n % 2 else even_state(kappa, n // 2)
        for n in range(int(count))
    ]
