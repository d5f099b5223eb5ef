"""Two bosons in a 1D harmonic trap split by a central delta barrier.

Analytic hard-core (Tonks-Girardeau) route, a sinc-DVR grid route for
finite contact coupling, and the observable chain from the reduced
density matrix to natural orbitals, momentum distributions and the
von Neumann entanglement entropy.
"""

from .analysis import (
    DensityMatrix,
    MomentumDistribution,
    NaturalDecomposition,
    momentum_distribution,
    natural_orbitals,
    rspd_from_state,
    schmidt_number,
    uniform_k_grid,
    von_neumann_entropy,
)
from .dvr import (
    ConvergenceError,
    Grid,
    GridError,
    TwoBodyState,
    apply_hamiltonian,
    build_grid,
    ground_state,
    kinetic_matrix,
)
from .single_particle import (
    BracketError,
    EigenState,
    eigenfunction,
    even_energy,
    even_state,
    odd_energy,
    spectrum,
)
from .tonks import (
    TonksState,
    default_analysis_grid,
    momentum_noninteracting_infinite_barrier,
    momentum_tg_infinite_barrier,
    tonks_energy,
    tonks_rspd,
    tonks_state,
    tonks_wavefunction,
)
from .units import ConfinementResonanceError, g1d_from_physical

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ConfinementResonanceError",
    "ConvergenceError",
    "DensityMatrix",
    "EigenState",
    "Grid",
    "GridError",
    "MomentumDistribution",
    "NaturalDecomposition",
    "TonksState",
    "TwoBodyState",
    "apply_hamiltonian",
    "build_grid",
    "default_analysis_grid",
    "eigenfunction",
    "even_energy",
    "even_state",
    "g1d_from_physical",
    "ground_state",
    "kinetic_matrix",
    "momentum_distribution",
    "momentum_noninteracting_infinite_barrier",
    "momentum_tg_infinite_barrier",
    "natural_orbitals",
    "odd_energy",
    "rspd_from_state",
    "schmidt_number",
    "spectrum",
    "tonks_energy",
    "tonks_rspd",
    "tonks_state",
    "tonks_wavefunction",
    "uniform_k_grid",
    "von_neumann_entropy",
]
