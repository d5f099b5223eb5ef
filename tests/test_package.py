"""The package's public surface: the name table and the names it dropped."""

import importlib

import pytest

import splittrap

# (module, name) of public names the package no longer carries.
REMOVED = (
    ("tonks", "tonks_wavefunction"),
    ("tonks", "default_analysis_grid"),
    ("tonks", "DEFAULT_ANALYTIC_POINTS"),
    ("tonks", "DEFAULT_ANALYTIC_SPACING"),
    ("dvr", "kinetic_matrix"),
    ("analysis", "NaturalDecomposition"),
    ("specfun", "hermite_function"),
    ("single_particle", "BracketError"),
    ("specfun", "reciprocal_gamma"),
)


@pytest.mark.parametrize("name", splittrap.__all__)
def test_every_public_name_resolves(name):
    assert getattr(splittrap, name) is not None


@pytest.mark.parametrize("module_name,name", REMOVED)
def test_removed_names_are_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(splittrap, name)
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(f"splittrap.{module_name}"), name)
    assert name not in splittrap.__all__


@pytest.mark.parametrize("owner,name", [
    ("EigenState", "wavefunction"),
    ("DensityMatrix", "trace"),
    ("MomentumDistribution", "integral"),
    ("TonksState", "pair_energy"),
    ("TwoBodyState", "even"),
    ("TwoBodyState", "odd"),
    ("TwoBodyState", "amplitudes"),
    ("TwoBodyState", "grid"),
])
def test_removed_members_are_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(getattr(splittrap, owner), name)
