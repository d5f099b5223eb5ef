"""Two bosons in a 1D harmonic trap split by a central delta barrier.

Analytic hard-core (Tonks-Girardeau) route, a sinc-DVR grid route for
finite contact coupling, and the observable chain from the reduced
density matrix to natural orbitals, momentum distributions and the
von Neumann entanglement entropy.

Each public name is imported from its module on first use, so importing
a module, ``splittrap.specfun`` say, loads only what that module imports.
"""

import importlib

_NAMES = {
    "analysis": ("DensityMatrix", "Grid", "GridError", "MomentumDistribution", "build_grid",
                 "momentum_distribution", "natural_orbitals", "rspd_from_state",
                 "schmidt_number", "uniform_k_grid", "von_neumann_entropy"),
    "dvr": ("ConvergenceError", "TwoBodyState", "apply_hamiltonian", "ground_state"),
    "single_particle": ("EigenState", "eigenfunction", "even_energy", "even_state",
                        "odd_energy", "spectrum"),
    "tonks": ("TonksState", "momentum_noninteracting_infinite_barrier",
              "momentum_tg_infinite_barrier", "tonks_occupations", "tonks_rspd", "tonks_state"),
    "units": ("ConfinementResonanceError", "g1d_from_physical"),
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE)


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
