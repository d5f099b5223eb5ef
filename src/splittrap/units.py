"""Physical trap units and the scaled 1D contact coupling.

Maps a 3D scattering length and the trap frequencies of a cigar trap
onto the dimensionless g1d of the model, in units of hbar omega d with
d = sqrt(hbar / (m omega)); ``g1d_from_physical`` states the mapping.
"""

import math
from dataclasses import dataclass

CONFINEMENT_CONSTANT = 1.4603
# Exact in SI since 2019: h = 6.62607015e-34 J s.
HBAR = 6.62607015e-34 / (2 * math.pi)


class ConfinementResonanceError(ValueError):
    """Transverse confinement sits on the resonance of the 1D mapping."""


@dataclass(frozen=True)
class CouplingResult:
    g1d: float
    g1d_si: float
    a1d: float
    length: float
    transverse_length: float
    notes: tuple


def g1d_from_physical(omega_perp, omega, mass, a3d):
    """Scaled 1D coupling from a physical cigar-trap configuration.

    The 3D scattering length is mapped through the transverse
    confinement,

        a1d = -(d_perp^2 / 2 a3d) (1 - C a3d / d_perp),  C = 1.4603,
        g1d = -2 hbar^2 / (m a1d),

    and g1d is returned both in SI units and scaled by hbar omega d.

    Raises
    ------
    ValueError
        For non-positive trap parameters or zero scattering length.
    ConfinementResonanceError
        When 1 - C a3d / d_perp vanishes to within 1e-9 (relative).
    """
    for name, value in (("omega_perp", omega_perp), ("omega", omega), ("mass", mass)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    a3d = float(a3d)
    if not math.isfinite(a3d) or a3d == 0.0:
        raise ValueError(f"a3d must be finite and nonzero, got {a3d!r}")
    d_perp = math.sqrt(HBAR / (mass * omega_perp))
    d = math.sqrt(HBAR / (mass * omega))
    resonance_term = 1.0 - CONFINEMENT_CONSTANT * a3d / d_perp
    if abs(resonance_term) <= 1e-9:
        raise ConfinementResonanceError(
            "1 - C a3d / d_perp vanishes: the 1D mapping diverges at the "
            "confinement-induced resonance"
        )
    a1d = -(d_perp**2 / (2.0 * a3d)) * resonance_term
    g1d_si = -2.0 * HBAR**2 / (mass * a1d)
    g1d = g1d_si / (HBAR * omega * d)
    notes = []
    if omega_perp / omega < 10.0:
        notes.append(
            "weak anisotropy: omega_perp / omega < 10, the 1D reduction is marginal"
        )
    if abs(a1d) / d > 0.1:
        notes.append(
            "|a1d| exceeds a tenth of the trap length: the zero-range "
            "pseudopotential picture is strained"
        )
    return CouplingResult(
        g1d=g1d,
        g1d_si=g1d_si,
        a1d=a1d,
        length=d,
        transverse_length=d_perp,
        notes=tuple(notes),
    )
