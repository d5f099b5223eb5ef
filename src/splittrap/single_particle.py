"""Single particle in a harmonic trap with a central delta barrier.

Units are scaled: lengths in d = sqrt(hbar / m omega), energies in
hbar omega, barrier strength kappa in hbar omega d.  Even parity
levels come from the root of the gamma-ratio relation

    -kappa = 2 Gamma(-E/2 + 3/4) / Gamma(-E/2 + 1/4),

that of two atoms with a contact interaction in a harmonic trap (Busch
et al., Found. Phys. 28, 549 (1998)).  With a = 1/4 - E/2 and
R(E) = Gamma(3/4 + E/2) / Gamma(1/4 + E/2) > 0, the reflection formula
turns it into 2 sin(pi a) R(E) + kappa cos(pi a) = 0, which has no pole
and no factor that overflows.  On the j-th bracket, E = 2j + 1/2 + t
with 0 <= t <= 1, a = -j - t/2 and the relation reads
tan(pi t / 2) = kappa / (2 R(E)), so the level is the root of

    g(t) = t - (2/pi) atan(kappa / (2 R(2j + 1/2 + t))),

with g(0) < 0 < g(1) for every 0 < kappa < inf.  R grows with E, and
d ln R / dE = [psi(3/4 + E/2) - psi(1/4 + E/2)] / 2 falls from its value
ln 2 at E = 1/2, so the slope of g lies in [1, 1 + ln 2 / pi]: g is
nearly linear, and secant steps in its sign bracket close it down to
two adjacent floats in five or six evaluations of g, at any level.  Odd
levels are barrier-blind harmonic oscillator states with E = n + 1/2.

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


def _even_g(energy, base, kappa):
    # g(t) at t = energy - base, exact in floats (module docstring).
    ratio = math.exp(math.lgamma(0.75 + 0.5 * energy) - math.lgamma(0.25 + 0.5 * energy))
    return (energy - base) - math.atan(0.5 * kappa / ratio) / (0.5 * math.pi)


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
        Energy in [2j + 1/2, 2j + 3/2], whichever of the two floats
        around the root of g is nearer to it by |g|; the closed-form
        limits 2j + 1/2 (kappa = 0) and 2j + 3/2 (infinite) are returned
        exactly.
    """
    kappa = check_coupling(kappa)
    if j != int(j) or j < 0:
        raise ValueError(f"even level index must be a non-negative integer, got {j!r}")
    j = int(j)
    # Secant steps on g in its sign bracket [lo, hi], from one
    # fixed-point step at t = 0; a step that leaves the bracket bisects
    # it, and one that lands on an end moves one float inside.  So every
    # step lands on a float strictly inside, the loop ends once lo and hi
    # are adjacent floats, and the nearer one is returned.
    # g grows faster than t, so g(1) >= 1 + g(0) bounds the unevaluated
    # end from below.  The limits take no step: g(0) = 0 at kappa = 0,
    # and g(0) = -1 at kappa = inf makes that bound 0.
    base = 2.0 * j + 0.5
    lo, g_lo = base, _even_g(base, base, kappa)
    hi, g_hi = base + 1.0, 1.0 + g_lo
    energy, value, slope = lo, g_lo, 1.0
    while g_lo < 0.0 < g_hi and math.nextafter(lo, hi) < hi:
        guess = energy - value / slope
        if not lo <= guess <= hi:
            guess = 0.5 * (lo + hi)
        if guess == lo or guess == hi:
            guess = math.nextafter(guess, hi if guess == lo else lo)
        new = _even_g(guess, base, kappa)
        # A secant slope below 1, the least slope of g, is rounding noise.
        slope = max((new - value) / (guess - energy), 1.0)
        energy, value = guess, new
        if value < 0.0:
            lo, g_lo = energy, value
        else:
            hi, g_hi = energy, value
    return lo if -g_lo < g_hi else hi


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
    [2j + 1/2, 2j + 3/2] and the odd level 2j + 1 sits at 2j + 3/2, so
    the parities alternate, and even comes first in the doubly
    degenerate infinite-barrier limit, where the two meet.  Every level
    carries the requested kappa.

    kappa = 0 and kappa = inf have closed-form energies, and every
    other even energy is within about an ulp of its root, at any level
    count.  The eigenfunctions are verified up to even level j = 40
    against mpmath and, through the Hermite functions, up to n = 1201
    by their Gram matrix on the mesh.
    """
    kappa = check_coupling(kappa)
    if count != int(count) or count < 1:
        raise ValueError(f"level count must be a positive integer, got {count!r}")
    return [
        EigenState("odd", n, odd_energy(n), kappa) if n % 2 else even_state(kappa, n // 2)
        for n in range(int(count))
    ]
