"""Single particle in a harmonic trap with a central delta barrier.

Units are scaled: lengths in d = sqrt(hbar / m omega), energies in
hbar omega, barrier strength kappa in hbar omega d.  Even parity
levels come from the root of the gamma-ratio relation

    -kappa = 2 Gamma(-E/2 + 3/4) / Gamma(-E/2 + 1/4),

found as the root of the entire function

    h(E) = 2 / Gamma(1/4 - E/2) + kappa / Gamma(3/4 - E/2)

(the relation multiplied through by 1 / Gamma(3/4 - E/2)), which changes
sign across the exact bracket [2j + 1/2, 2j + 3/2]; odd levels are
barrier-blind harmonic oscillator states with E = n + 1/2.  The relation
is that of two atoms with a contact interaction in a harmonic trap
(Busch et al., Found. Phys. 28, 549 (1998)).

Every norm is in closed form.  The even level is
phi(x) = exp(-x^2/2) U(a, 1/2, x^2) with a = 1/4 - E/2, which solves
phi'' = (x^2 - 2E) phi on x > 0 and decays for every E.  Differentiating
the equation in E gives

    d/dx (phi d_E phi' - phi' d_E phi) = -2 phi^2,

and the bracket vanishes at infinity, so the integral of phi^2 over the
line (twice the half-line) is its value at x = 0+.  The b = 1/2
connection formula (DLMF 13.2.42) gives phi(0) = sqrt(pi) rg(a + 1/2)
and phi'(0+) = -2 sqrt(pi) rg(a), with rg = 1/Gamma and d_E = -d_a/2, so

    int phi^2 dx = pi [rg(a + 1/2) rg'(a) - rg(a) rg'(a + 1/2)]
                 = pi [psi(a + 1/2) - psi(a)] / (Gamma(a) Gamma(a + 1/2)).

Both rg and rg' are entire, so kappa = 0 (a = -j) and kappa -> inf
(a + 1/2 -> -j) need no special case.  Odd levels H_n(x) exp(-x^2/2)
and the infinite-barrier even level |H_{2j+1}(x)| exp(-x^2/2) carry the
oscillator norm 1/sqrt(2^n n! sqrt(pi)).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

_BISECTION_TOL = 1e-12


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


def _even_norm(energy):
    # 1 / sqrt(pi [rg(a + 1/2) rg'(a) - rg(a) rg'(a + 1/2)]), rg = 1/Gamma,
    # the Wronskian norm of the module docstring.
    a = 0.25 - 0.5 * energy
    rg = specfun.reciprocal_gamma
    drg = specfun.reciprocal_gamma_derivative
    return 1.0 / math.sqrt(math.pi * (rg(a + 0.5) * drg(a) - rg(a) * drg(a + 0.5)))


def _hermite_norm(n):
    # 1 / sqrt(2^n n! sqrt(pi)), with 2^n n! an exact integer.
    return 1.0 / math.sqrt(float(2**n * math.factorial(n)) * math.sqrt(math.pi))


def even_state(kappa, j):
    """Normalized j-th even level as an EigenState."""
    barrier = as_barrier(kappa)
    j = int(j)
    energy = even_energy(barrier, j)
    norm = _hermite_norm(2 * j + 1) if barrier.infinite else _even_norm(energy)
    return EigenState("even", 2 * j, energy, norm, barrier)


def odd_state(n):
    """Normalized odd level n (n odd); independent of the barrier."""
    n = int(n)
    return EigenState("odd", n, odd_energy(n), _hermite_norm(n), BarrierStrength())


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
