"""Single particle in a harmonic trap with a central delta barrier.

Units are scaled: lengths in d = sqrt(hbar / m omega), energies in
hbar omega, barrier strength kappa in hbar omega d.  Even parity
levels come from the root of the gamma-ratio relation

    -kappa = 2 Gamma(-E/2 + 3/4) / Gamma(-E/2 + 1/4),

found as the root of the entire function

    h(E) = 2 / Gamma(1/4 - E/2) + kappa / Gamma(3/4 - E/2)

(the relation multiplied through by 1 / Gamma(3/4 - E/2)), which changes
sign across the exact bracket [2j + 1/2, 2j + 3/2]; odd levels are
barrier-blind harmonic oscillator states with E = n + 1/2.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson

from . import specfun

_BISECTION_TOL = 1e-12
_NORM_STEP = 1e-3


class BracketError(RuntimeError):
    """Bisection of a level bracket stalls before reaching its tolerance."""


@dataclass(frozen=True)
class BarrierStrength:
    """Central barrier strength; an infinite barrier is a flag, not a float."""

    kappa: float = 0.0
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "kappa", 0.0)
            return
        kappa = float(self.kappa)
        if not math.isfinite(kappa):
            raise ValueError(
                "non-finite kappa; use BarrierStrength.infinite_barrier()"
            )
        if kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def infinite_barrier(cls):
        return cls(0.0, True)

    @classmethod
    def parse(cls, text):
        """Parse a CLI/config token: a non-negative number or 'inf'."""
        token = str(text).strip().lower()
        if token in ("inf", "infinity"):
            return cls.infinite_barrier()
        try:
            return cls(float(token))
        except ValueError as exc:
            raise ValueError(f"invalid barrier strength {text!r}") from exc

    def label(self):
        return "inf" if self.infinite else f"{self.kappa:.12g}"


def as_barrier(kappa):
    """Coerce a float (math.inf allowed) or BarrierStrength to BarrierStrength."""
    if isinstance(kappa, BarrierStrength):
        return kappa
    kappa = float(kappa)
    if math.isinf(kappa):
        return BarrierStrength.infinite_barrier()
    return BarrierStrength(kappa)


@dataclass(frozen=True)
class EigenState:
    """One normalized single-particle level.

    ``n`` follows harmonic-oscillator counting: even levels carry
    n = 0, 2, 4, ... (the j-th even level has n = 2j), odd levels the
    exact oscillator index n = 1, 3, 5, ...
    """

    parity: str
    n: int
    energy: float
    norm_constant: float
    barrier: BarrierStrength

    def wavefunction(self, x):
        return eigenfunction(self, x)


def _even_h(energy, kappa):
    rgamma = specfun.reciprocal_gamma
    return 2.0 * rgamma(0.25 - 0.5 * energy) + kappa * rgamma(0.75 - 0.5 * energy)


def even_energy(kappa, j):
    """Energy of the j-th even level at barrier strength kappa.

    Parameters
    ----------
    kappa : float or BarrierStrength
    j : int
        Even-level index, j >= 0.

    Returns
    -------
    float
        Energy in (2j + 1/2, 2j + 3/2); the closed-form limits
        2j + 1/2 (kappa = 0) and 2j + 3/2 (infinite) are returned
        exactly.
    """
    barrier = as_barrier(kappa)
    if j != int(j) or j < 0:
        raise ValueError(f"even level index must be a non-negative integer, got {j!r}")
    j = int(j)
    if barrier.infinite:
        return 2.0 * j + 1.5
    if barrier.kappa == 0.0:
        return 2.0 * j + 0.5
    kap = barrier.kappa

    # Bisection on the exact bracket.  h has no poles, and at the ends
    # only one of its terms survives: kappa / Gamma(1/2 - j) at the lower
    # end, 2 / Gamma(-1/2 - j) at the upper, of opposite signs that
    # alternate with j.  Iterating past the nominal tolerance down to the
    # floating-point floor keeps the root exact even for very large or
    # very small kappa, where it hugs one end of the bracket.
    lo = 2.0 * j + 0.5
    hi = 2.0 * j + 1.5
    lower_sign = math.copysign(1.0, _even_h(lo, kap))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _even_h(mid, kap) * lower_sign > 0.0:
            lo = mid
        else:
            hi = mid
    if hi - lo > _BISECTION_TOL:
        raise BracketError(
            f"bisection stalled on level {j} at kappa = {kap}: "
            f"bracket width {hi - lo:.3e}"
        )
    return 0.5 * (lo + hi)


def odd_energy(n):
    """Energy n + 1/2 of an odd oscillator level (n odd), any barrier."""
    if n != int(n) or n < 1 or int(n) % 2 == 0:
        raise ValueError(f"odd level index must be an odd positive integer, got {n!r}")
    return int(n) + 0.5


def _even_profile(energy, x):
    # Unnormalized even eigenfunction exp(-x^2/2) U(1/4 - E/2, 1/2, x^2).
    a = 0.25 - 0.5 * energy
    return np.exp(-0.5 * x * x) * specfun.kummer_u(a, 0.5, x * x)


def _odd_profile(n, x):
    return specfun.hermite(n, x) * np.exp(-0.5 * x * x)


def _split_profile(n, x):
    # Infinite-barrier even branch: magnitude of the odd level above it.
    return np.abs(specfun.hermite(n + 1, x)) * np.exp(-0.5 * x * x)


def _quadrature_norm(profile, energy):
    # Integrate on the half-line and double.  Simpson keeps the boundary
    # term at x = 0 out of the error; plain trapezoid would leave an
    # O(step^2) residue there because the integrand's slope is non-zero
    # at the barrier.
    length = max(8.0, math.sqrt(2.0 * energy) + 4.0)
    x = np.arange(0.0, length + 0.5 * _NORM_STEP, _NORM_STEP)
    values = profile(x)
    norm_sq = 2.0 * simpson(values * values, dx=_NORM_STEP)
    return 1.0 / math.sqrt(norm_sq)


@lru_cache(maxsize=256)
def _even_state_cached(barrier, j):
    energy = even_energy(barrier, j)
    if barrier.infinite:
        profile = lambda x: _split_profile(2 * j, x)
    else:
        profile = lambda x: _even_profile(energy, x)
    norm = _quadrature_norm(profile, energy)
    return EigenState("even", 2 * j, energy, norm, barrier)


@lru_cache(maxsize=256)
def _odd_state_cached(n):
    energy = odd_energy(n)
    norm = _quadrature_norm(lambda x: _odd_profile(n, x), energy)
    return EigenState("odd", n, energy, norm, BarrierStrength())


def even_state(kappa, j):
    """Normalized j-th even level as an EigenState."""
    return _even_state_cached(as_barrier(kappa), int(j))


def odd_state(n):
    """Normalized odd level n (n odd); independent of the barrier."""
    return _odd_state_cached(int(n))


def eigenfunction(state, x):
    """Evaluate a normalized eigenstate on scalar or array x."""
    xarr = np.asarray(x, dtype=float)
    scalar = xarr.ndim == 0
    if state.parity == "odd":
        values = state.norm_constant * _odd_profile(state.n, xarr)
    elif state.barrier.infinite:
        values = state.norm_constant * _split_profile(state.n, xarr)
    else:
        values = state.norm_constant * _even_profile(state.energy, xarr)
    return float(values) if scalar else values


def spectrum(kappa, count):
    """Lowest ``count`` levels at barrier strength kappa.

    Returns a list of EigenState sorted by energy; even parity wins
    energy ties (the doubly degenerate infinite-barrier limit).
    """
    barrier = as_barrier(kappa)
    if count != int(count) or count < 1:
        raise ValueError(f"level count must be a positive integer, got {count!r}")
    count = int(count)
    per_parity = count // 2 + 1
    states = [even_state(barrier, j) for j in range(per_parity)]
    states += [odd_state(2 * j + 1) for j in range(per_parity)]
    states.sort(key=lambda s: (s.energy, 0 if s.parity == "even" else 1))
    return states[:count]
