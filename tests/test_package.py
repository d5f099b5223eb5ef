"""The package's public surface: the name table, the names it dropped and its numpy seam."""

import ast
import importlib
from pathlib import Path

import numpy
import pytest

import splittrap
from splittrap import analysis, dvr
from splittrap._numpy import np

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
    ("specfun", "kummer_m"),
    ("specfun", "PoleError"),
    ("specfun", "POLE_TOL"),
    ("tonks", "tonks_energy"),
    ("dvr", "ground_state_solver"),
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


@pytest.mark.parametrize("name", ["Grid", "build_grid", "GridError", "_fold", "_half_rows",
                                  "_unfold"])
def test_mesh_and_fold_live_in_analysis(name):
    # The mesh and the parity fold belong to the observable layer.  The
    # grid solver imports the two fold maps its build uses and carries
    # none of the other names.
    owned = getattr(analysis, name)
    assert owned.__module__ == "splittrap.analysis"
    assert hasattr(dvr, name) == (name in ("_fold", "_half_rows"))
    assert getattr(dvr, name, owned) is owned
    if not name.startswith("_"):
        assert getattr(splittrap, name) is owned


@pytest.mark.parametrize("owner,name", [
    ("EigenState", "wavefunction"),
    ("DensityMatrix", "trace"),
    ("MomentumDistribution", "integral"),
    ("TonksState", "pair_energy"),
    ("TwoBodyState", "even"),
    ("TwoBodyState", "odd"),
    ("TwoBodyState", "amplitudes"),
    ("TwoBodyState", "grid"),
    ("TwoBodyState", "kappa"),
    ("TwoBodyState", "g1d"),
    ("TwoBodyState", "near_degenerate"),
    ("TonksState", "kappa"),
    ("EigenState", "kappa"),
])
def test_removed_members_are_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(getattr(splittrap, owner), name)


def test_numpy_is_imported_by_its_seam_alone():
    # Every module binds the lazy ``np`` of splittrap._numpy; none imports
    # numpy itself, at its top or in a function.
    importers = set()
    for path in Path(splittrap.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert importers == {"_numpy.py"}


def test_numpy_seam_hands_out_numpy_itself():
    # numpy's own objects, so a test that patches numpy.linalg.eigh
    # reaches the package; a name numpy lacks falls through to a default.
    assert np.linalg is numpy.linalg
    assert np.asarray is numpy.asarray
    assert getattr(np, "no_such_name", None) is None
