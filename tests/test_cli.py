"""CLI driver: parsing, sweeps, output formats, unit conversion."""

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar

from splittrap import analysis, dvr, single_particle, tonks
from splittrap import cli
from splittrap.cli import (
    _fmt_value,
    build_parser,
    load_config,
    main,
    run_sweep,
)
from splittrap.units import CONFINEMENT_CONSTANT, ConfinementResonanceError, g1d_from_physical

RB_MASS = 1.45e-25
OMEGA_PERP = 6.0e5
OMEGA = 6.0e3


def _spec(**overrides):
    # Flags under argparse's dest names, checked by _check_flags as the CLI
    # does, which keeps the mesh and the k grid on them for run_sweep.
    base = dict(
        command="tonks",
        kappa=(0.0,),
        g1d=(),
        outputs=("energy",),
        n_points=161,
        dx=0.08,
        k_points=401,
        k_span=8.0,
        levels=6,
        out=None,
        fmt="csv",
        workers=1,
    )
    base.update(overrides)
    spec = argparse.Namespace(**base)
    cli._check_flags(spec)
    return spec


def _records(points):
    return [record for point in points for record in point["records"]]


def test_load_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "mode = dvr\n"
        "kappa = 0 2   # two barriers\n"
        "n-points = 61\n"
        "\n"
        "# full-line comment\n"
        "outputs = energy,entropy\n"
    )
    options = load_config(path)
    assert options == {
        "mode": "dvr",
        "kappa": "0 2",
        "n_points": "61",
        "outputs": "energy,entropy",
    }


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mode dvr\n")
    with pytest.raises(ValueError):
        load_config(path)


_CONFIG_KEYS = st.text(string.ascii_letters + string.digits + "_-", min_size=1)
_CONFIG_VALUES = st.text(st.characters(codec="utf-8", exclude_characters="#\n\r"))


@given(st.lists(st.tuples(_CONFIG_KEYS, _CONFIG_VALUES), max_size=8),
       st.sampled_from(["=", " = ", "\t=  "]))
@settings(max_examples=200, deadline=None)
def test_load_config_reads_back_every_entry(tmp_path_factory, entries, separator):
    # Keys are case- and dash-blind, values stripped, and the last entry
    # for a key wins; comments and blank lines add nothing.
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    lines = [f"{key}{separator}{value}  # note" for key, value in entries]
    path.write_text("# header\n\n" + "\n".join(lines) + "\n", encoding="utf-8")
    expected = {key.lower().replace("-", "_"): value.strip() for key, value in entries}
    assert load_config(path) == expected


def test_g1d_from_physical_reference_point():
    # Frozen from an independent evaluation of the mapping formulas.
    result = g1d_from_physical(OMEGA_PERP, OMEGA, RB_MASS, 5.0e-9)
    assert result.g1d == pytest.approx(7.268903466398, rel=1e-10)
    # SI values sit far below approx's default abs of 1e-12, which would
    # pass any of them, so they are compared by relative error alone.
    assert result.a1d == pytest.approx(-9.579427360581e-8, rel=1e-10, abs=0)
    assert result.g1d_si == pytest.approx(1.601307607851e-36, rel=1e-10, abs=0)
    assert result.transverse_length == pytest.approx(3.481596637372e-8, rel=1e-10, abs=0)
    # a1d is a quarter of the trap length here, so the zero-range note
    # fires; the anisotropy ratio of 100 keeps the other note silent.
    assert len(result.notes) == 1
    assert "a1d" in result.notes[0]


def test_g1d_from_physical_scaling_with_confinement_term():
    # With C a3d / d_perp = 1/2 the coupling is exactly twice the bare
    # (C = 0) value.
    d_perp = math.sqrt(hbar / (RB_MASS * OMEGA_PERP))
    a3d = d_perp / (2.0 * CONFINEMENT_CONSTANT)
    result = g1d_from_physical(OMEGA_PERP, OMEGA, RB_MASS, a3d)
    bare_a1d = -(d_perp**2 / (2.0 * a3d))
    bare_g1d = -2.0 * hbar**2 / (RB_MASS * bare_a1d)
    d = math.sqrt(hbar / (RB_MASS * OMEGA))
    assert result.g1d == pytest.approx(2.0 * bare_g1d / (hbar * OMEGA * d), rel=1e-12)


def test_g1d_from_physical_signs_and_limits():
    tiny = g1d_from_physical(OMEGA_PERP, OMEGA, RB_MASS, 1.0e-12)
    assert 0.0 < tiny.g1d < 1e-2
    assert tiny.a1d < 0.0


def test_g1d_from_physical_resonance():
    d_perp = math.sqrt(hbar / (RB_MASS * OMEGA_PERP))
    with pytest.raises(ConfinementResonanceError):
        g1d_from_physical(OMEGA_PERP, OMEGA, RB_MASS, d_perp / CONFINEMENT_CONSTANT)


def test_g1d_from_physical_validation():
    with pytest.raises(ValueError, match="^a3d must be finite and nonzero"):
        g1d_from_physical(OMEGA_PERP, OMEGA, RB_MASS, 0.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["omega_perp", "omega", "mass"])
def test_g1d_from_physical_rejects_trap_parameter(name, bad):
    setup = {"omega_perp": OMEGA_PERP, "omega": OMEGA, "mass": RB_MASS, "a3d": 5e-9}
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad!r}$"):
        g1d_from_physical(**{**setup, name: bad})


def test_g1d_from_physical_weak_anisotropy_note():
    result = g1d_from_physical(5.0 * OMEGA, OMEGA, RB_MASS, 2.0e-8)
    assert any("anisotropy" in note for note in result.notes)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@given(omega_perp=_log_uniform(1e2, 1e7), anisotropy=_log_uniform(1.0, 1e4),
       mass=_log_uniform(1e-27, 1e-24),
       x=st.one_of(st.floats(1e-6, 0.999), st.floats(1.5, 100.0), st.floats(-100.0, -1e-6)))
@settings(max_examples=200, deadline=None)
def test_g1d_from_physical_relations_hold_for_any_trap(omega_perp, anisotropy, mass, x):
    # a3d = x d_perp / C with d_perp = sqrt(hbar / (m omega_perp)).  The
    # relations checked hold whatever transverse length the mapping takes:
    # the coupling in units of hbar omega d, the 1D coupling from a1d, and
    # the signs away from the resonance, which sits at x = 1 with d_perp
    # and at x = sqrt(2) with the relative-motion length sqrt(2) d_perp.
    omega = omega_perp / anisotropy
    d_perp = math.sqrt(hbar / (mass * omega_perp))
    result = g1d_from_physical(omega_perp, omega, mass, x * d_perp / CONFINEMENT_CONSTANT)
    d = math.sqrt(hbar / (mass * omega))
    # math.isclose, not pytest.approx, whose default abs=1e-12 would pass any value near 1e-36.
    assert math.isclose(result.g1d * hbar * omega * d, result.g1d_si, rel_tol=1e-12)
    assert math.isclose(result.a1d * result.g1d_si, -2.0 * hbar**2 / mass, rel_tol=1e-12)
    assert (result.g1d > 0.0) == (0.0 < x < 1.0)


def test_run_sweep_tonks_energies():
    spec = _spec(kappa=(0.0, 1.0, 2.0, math.inf))
    points = run_sweep(spec)
    energies = [record["energy"] for record in _records(points)]
    assert energies[0] == 2.0
    assert energies[1] == pytest.approx(2.39274404531, abs=1e-9)
    assert energies[2] == pytest.approx(2.58389812228, abs=1e-9)
    assert energies[3] == 3.0
    assert not any("error" in point for point in points)


def test_run_sweep_dvr_non_interacting():
    spec = _spec(
        command="dvr",
        kappa=(0.0,),
        g1d=(0.0,),
        outputs=("energy", "entropy"),
        n_points=81,
        dx=0.16,
        fmt="json",
    )
    record = _records(run_sweep(spec))[0]
    assert record["energy"] == pytest.approx(1.0, abs=1e-3)
    assert record["entropy"] == 0.0
    assert record["near_degenerate"] is False
    # Only the JSON writer prints the flag, so a CSV point never reads it.
    spec.fmt = "csv"
    record = _records(run_sweep(spec))[0]
    assert record["energy"] == pytest.approx(1.0, abs=1e-3)
    assert "near_degenerate" not in record


@pytest.mark.parametrize("fmt,runs", [("csv", 1), ("json", 3)])
def test_dvr_sweep_krylov_runs_per_point(eigsh_calls, fmt, runs):
    # A CSV point runs the ground state's one Krylov iteration, for one
    # Ritz pair; a JSON point reads near_degenerate, whose gap adds the
    # even run for two Ritz pairs and the odd run for one.
    spec = _spec(command="dvr", kappa=(0.0, 3.3), g1d=(0.0, 5.0, 500.0),
                 outputs=("energy", "entropy"), n_points=41, dx=0.3, fmt=fmt)
    points = run_sweep(spec)
    assert not any("error" in point for point in points)
    assert len(points) == 6
    assert eigsh_calls == [1, 2, 1][:runs] * 6


@pytest.mark.parametrize("fmt,inversions", [("csv", 1), ("json", 2)])
def test_dvr_sweep_capacitance_inversions_per_point(monkeypatch, fmt, inversions):
    # Every point inverts its even capacitance, and each kappa row forms its
    # even kernel, over a stack of two blocks.  Only the gap, which a JSON
    # point reads, runs the odd sector: it forms the odd kernel, over one
    # block, once per row on the gap read of the row's first point, and
    # inverts the odd capacitance once per point.  A CSV sweep does neither.
    kernels, odd_kernels, calls = [], [], []
    real_kernel, real_woodbury = dvr._kernel, dvr._woodbury

    def kernel(left, right, d):
        k = real_kernel(left, right, d)
        kernels.append(left.shape[0])
        if left.shape[0] == 1:
            odd_kernels.append(k)
        return k

    def counting(k, weight):
        calls.append(any(k is odd for odd in odd_kernels))
        return real_woodbury(k, weight)

    monkeypatch.setattr(dvr, "_kernel", kernel)
    monkeypatch.setattr(dvr, "_woodbury", counting)
    spec = _spec(command="dvr", kappa=(0.0, 3.3), g1d=(0.0, 5.0, 500.0),
                 outputs=("energy", "entropy"), n_points=41, dx=0.3, fmt=fmt)
    points = run_sweep(spec)
    assert not any("error" in point for point in points)
    assert len(calls) == inversions * len(points) == inversions * 6
    assert sum(calls) == (inversions - 1) * 6
    assert kernels == {"csv": [2, 2], "json": [2, 1, 2, 1]}[fmt]


def test_run_sweep_entropy_saturation(solve):
    occupations = analysis.natural_orbitals(analysis.rspd_from_state(solve(10.0, 5.0)))
    assert analysis.von_neumann_entropy(occupations) == pytest.approx(1.0, abs=0.03)


def test_run_sweep_spectrum_records():
    spec = _spec(command="spectrum", kappa=(0.0,), levels=4)
    records = _records(run_sweep(spec))
    assert [r["energy"] for r in records] == pytest.approx([0.5, 1.5, 2.5, 3.5])
    assert [r["parity"] for r in records] == ["even", "odd", "even", "odd"]


def test_run_sweep_deterministic_records():
    spec = _spec(
        command="dvr",
        kappa=(0.0, 2.0),
        g1d=(1.0, 5.0),
        outputs=("energy", "entropy"),
        n_points=81,
        dx=0.16,
    )
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert _records(first) == _records(second)


def test_run_sweep_collects_failures():
    # The 13-point, dx = 1 mesh covers [-6, 6], so the flags pass, but its
    # quadrature misses the pair's norm by far more than 1e-3 at each kappa.
    # Momentum reads the pair density on that mesh; the entropy would not.
    spec = _spec(
        kappa=(0.0, 1.0),
        outputs=("energy", "momentum"),
        n_points=13,
        dx=1.0,
        fmt="json",
    )
    points = run_sweep(spec)
    failures = cli._failures(spec, points)
    assert [(f["kappa"], f["g1d"]) for f in failures] == [("0", "inf"), ("1", "inf")]
    assert all(f["error"].startswith("GridError: quadrature norm") for f in failures)
    assert all("energy" not in record for record in _records(points))


def test_cli_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "levels.csv"
    code = main(["spectrum", "--kappa", "0", "inf", "--levels", "3", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["kappa"] for r in rows] == ["0", "0", "0", "inf", "inf", "inf"]
    assert [float(r["energy"]) for r in rows[:3]] == [0.5, 1.5, 2.5]
    assert [r["parity"] for r in rows[3:]] == ["even", "odd", "even"]


def test_cli_byte_determinism(tmp_path):
    args = ["sweep", "--mode", "dvr", "--kappa", "0", "2", "--g1d", "1", "5",
            "--outputs", "energy,entropy", "--format", "csv"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_parallel_workers_match_serial(tmp_path):
    args = ["sweep", "--mode", "dvr", "--kappa", "0", "2", "--g1d", "1", "5",
            "--outputs", "energy,entropy", "--format", "csv"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# Every flag of sweep but --config, with values that each reach the output.
_DVR_SWEEP = {"mode": "dvr", "kappa": "0 2", "g1d": "1 inf", "outputs": "energy,entropy,momentum",
              "format": "json", "n-points": "41", "dx": "0.2", "k-span": "6", "k-points": "21"}
_SPECTRUM_SWEEP = {"mode": "spectrum", "kappa": "0.5 inf", "levels": "3", "format": "csv"}
_CONFIG_CASES = {
    **{key: (_DVR_SWEEP, (key,)) for key in _DVR_SWEEP},
    "workers": ({**_DVR_SWEEP, "workers": "2"}, ("workers",)),
    "levels": (_SPECTRUM_SWEEP, ("levels",)),
    "out": (_SPECTRUM_SWEEP, ("out",)),
    "all": (_DVR_SWEEP, tuple(_DVR_SWEEP)),
}


def _flag_tokens(flags):
    return [tok for key, value in flags.items() for tok in (f"--{key}", *value.split())]


@pytest.mark.parametrize("case", list(_CONFIG_CASES))
def test_cli_config_file_equivalence(tmp_path, case):
    # Each config entry is read as the flag it names, so moving flags of
    # sweep into a config file leaves the output bytes as they are;
    # kappa and g1d values may be separated by commas.
    flags, keys = _CONFIG_CASES[case]
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    assert main(["sweep", *_flag_tokens(flags), "--out", str(by_flags)]) == 0
    entries = {**flags, "out": str(by_config)}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{key.replace('-', '_')} = {', '.join(entries[key].split())}\n"
                           for key in keys))
    rest = {key: value for key, value in entries.items() if key not in keys}
    assert main(["sweep", "--config", str(cfg), *_flag_tokens(rest)]) == 0
    assert by_flags.read_bytes() == by_config.read_bytes()


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = spectrum\nkappa = 5\nlevels = 9\n")
    assert main(["sweep", "--kappa", "0", "--config", str(cfg), "--levels", "2"]) == 0
    overridden = capsys.readouterr().out
    assert main(["spectrum", "--kappa", "0", "--levels", "2"]) == 0
    assert overridden == capsys.readouterr().out


def test_cli_json_round_trip(tmp_path):
    out = tmp_path / "run.json"
    code = main(["dvr", "--kappa", "0", "--g1d", "1", "--outputs",
                 "energy,momentum,entropy", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    point = payload["points"][0]
    assert payload["grid"] == {"n_points": 81, "spacing": 0.16}
    spec = _spec(
        command="dvr",
        kappa=(0.0,),
        g1d=(1.0,),
        outputs=("energy", "momentum", "entropy"),
        n_points=81,
        dx=0.16,
        fmt="json",
    )
    record = _records(run_sweep(spec))[0]
    assert point["energy"] == float(f"{record['energy']:.12g}")
    assert point["entropy"] == float(f"{record['entropy']:.12g}")
    assert len(point["momentum"]["k"]) == 401
    k = np.asarray(point["momentum"]["k"])
    n = np.asarray(point["momentum"]["n"])
    assert np.all(n >= 0.0)
    assert k[0] == -8.0 and k[-1] == 8.0


def test_cli_matrix_and_curve_sidecars(tmp_path):
    out = tmp_path / "tg.csv"
    code = main(["tonks", "--kappa", "inf", "--outputs",
                 "energy,rspd,momentum", "--out", str(out)])
    assert code == 0
    matrix_path = tmp_path / "tg-rspd-kappainf-ginf.txt"
    header = matrix_path.read_text().split("\n", 1)[0].split()
    assert header == ["161", "0.08"]
    values = np.loadtxt(matrix_path, skiprows=1)
    assert values.shape == (161, 161)
    assert float(np.trace(values)) * 0.08 == pytest.approx(1.0, abs=1e-9)
    curve = np.loadtxt(tmp_path / "tg-momentum-kappainf-ginf.csv",
                       delimiter=",", skiprows=1)
    assert curve.shape == (401, 2)
    assert np.trapezoid(curve[:, 1], curve[:, 0]) == pytest.approx(1.0, abs=5e-3)


def test_cli_tonks_json_momentum_per_point(tmp_path, tonks_grid):
    # Each point carries the curve of its own barrier, and a repeated
    # kappa gets a curve of its own.
    out = tmp_path / "tg.json"
    kappas = ["0", "1", "1", "inf"]
    assert main(["tonks", "--kappa", *kappas, "--outputs", "energy,momentum",
                 "--k-points", "41", "--format", "json", "--out", str(out)]) == 0
    points = json.loads(out.read_text())["points"]
    assert [p["kappa"] for p in points] == kappas
    k = analysis.uniform_k_grid(41, 8.0)
    for point in points:
        rho = tonks.tonks_state(float(point["kappa"]), tonks_grid).density
        dist = analysis.momentum_distribution(rho, k)
        assert point["momentum"] == {
            "k": [float(f"{v:.12g}") for v in k],
            "n": [float(f"{v:.12g}") for v in dist.densities],
        }
    assert points[0]["momentum"] != points[1]["momentum"]


def test_cli_observables_take_no_eigenvectors(capsys, monkeypatch):
    # Entropy, Schmidt number and momentum come from eigenvalues and the
    # fold blocks alone: reading the orbitals fails the run.  Once the run
    # is over, the orbitals are formed when read, and they reconstruct
    # each density the run formed from the occupations of its blocks.
    eigh_calls = []
    eigh = np.linalg.eigh

    def counted_eigh(*args, **kwargs):
        eigh_calls.append(1)
        return eigh(*args, **kwargs)

    def forbidden(self):
        raise AssertionError("the natural orbitals were formed")

    made = []
    tonks_rspd = tonks.tonks_rspd

    def recorded(state):
        made.append(tonks_rspd(state))
        return made[-1]

    orbitals_property = vars(analysis.DensityMatrix)["orbitals"]
    # The Gauss rule of the Tonks occupations is one eigh a process, made
    # on first use: make it before the counter is set, so the count does
    # not hang on whether an earlier test has used it.
    tonks._gauss()
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(tonks, "tonks_rspd", recorded)
    monkeypatch.setattr(analysis.DensityMatrix, "orbitals", property(forbidden))
    assert main(["tonks", "--kappa", "0", "3.3", "inf",
                 "--outputs", "energy,entropy,schmidt,momentum", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 3
    assert len(made) == 3 and not eigh_calls
    monkeypatch.setattr(analysis.DensityMatrix, "orbitals", orbitals_property)
    for rho in made:
        occupations = analysis.natural_orbitals(rho)
        assert "orbitals" not in vars(rho)
        orbitals = rho.orbitals
        assert rho.orbitals is orbitals
        dx = rho.grid.spacing
        recon = (orbitals * occupations) @ orbitals.T
        assert np.max(np.abs(recon - rho.values)) <= 1e-8
        overlaps = dx * (orbitals.T @ orbitals)
        assert np.max(np.abs(overlaps - np.eye(overlaps.shape[0]))) <= 1e-6
        for column in orbitals.T:
            assert np.array_equal(column, column[::-1]) or np.array_equal(column, -column[::-1])
    assert len(eigh_calls) == 2 * len(made)


def test_cli_tonks_momentum_forms_no_square_block(tmp_path, monkeypatch):
    # A parity block on 2401 / 0.005 is 1201^2 doubles, 11.5 MB; a point
    # that asks for momentum alone applies the blocks by cumulative sums
    # and never forms one, nor psi or rho on the mesh.
    made = []
    tonks_rspd = tonks.tonks_rspd

    def recorded(state):
        made.append(tonks_rspd(state))
        return made[-1]

    monkeypatch.setattr(tonks, "tonks_rspd", recorded)
    tracemalloc.start()
    try:
        assert main(["tonks", "--kappa", "1", "--n-points", "2401", "--dx", "0.005",
                     "--k-points", "41", "--outputs", "momentum", "--format", "json",
                     "--out", str(tmp_path / "m.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1201**2 * 8
    assert len(made) == 1
    assert not {"_blocks", "amplitudes", "values", "orbitals"} & set(vars(made[0]))


@pytest.mark.parametrize("argv", [
    ["tonks", "--kappa", "0", "1", "51.231", "inf", "--outputs", "energy,momentum"],
    ["dvr", "--kappa", "0", "1", "--g1d", "0", "5", "--outputs", "momentum"],
])
def test_cli_phase_tables_built_once_a_sweep(argv, capsys):
    # Every point of a sweep shares its mesh and k grid, so the cos and
    # sin rows of momentum_distribution are built on the first point alone.
    analysis._phase_tables.cache_clear()
    assert main([*argv, "--k-points", "41", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 4
    info = analysis._phase_tables.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_cli_tonks_rspd_with_momentum_keeps_the_dense_bytes(tmp_path, tonks_grid,
                                                             dense_momentum):
    # Reading rspd forms the blocks first; the momentum curves that follow
    # are still those of momentum alone, byte for byte, and those of the
    # dense blocks' product, which the route printed before it applied
    # them by cumulative sums.
    kappas = ("0", "0.3", "3.3", "inf")
    for name, outputs in (("both", "rspd,momentum"), ("alone", "momentum")):
        assert main(["tonks", "--kappa", *kappas, "--outputs", outputs,
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
    k = analysis.uniform_k_grid(401, 8.0)
    for kappa in kappas:
        rho = tonks.tonks_state(float(kappa), tonks_grid).density
        dense = io.StringIO()
        np.savetxt(dense, np.column_stack((k, dense_momentum(rho, k))), fmt="%.12g",
                   delimiter=",", header="k,n", comments="")
        for name in ("both", "alone"):
            curve = (tmp_path / f"{name}-momentum-kappa{kappa}-ginf.csv").read_text()
            assert curve == dense.getvalue()


def test_cli_dvr_sidecar_names(tmp_path):
    out = tmp_path / "pair.csv"
    assert main(["dvr", "--kappa", "1", "--g1d", "5", "inf",
                 "--outputs", "energy,rspd,momentum", "--n-points", "41", "--dx", "0.2",
                 "--k-points", "21", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pair-momentum-kappa1-g5.csv",
        "pair-momentum-kappa1-ginf.csv",
        "pair-rspd-kappa1-g5.txt",
        "pair-rspd-kappa1-ginf.txt",
        "pair.csv",
    ]


def test_cli_parallel_workers_match_serial_json_and_sidecars(tmp_path):
    args = ["dvr", "--kappa", "0", "inf", "--g1d", "0", "inf",
            "--outputs", "energy,momentum,rspd,entropy", "--n-points", "41", "--dx", "0.2",
            "--k-points", "21", "--format", "json"]
    files = {}
    for name, extra in (("serial", []), ("parallel", ["--workers", "2"])):
        (tmp_path / name).mkdir()
        assert main(args + extra + ["--out", str(tmp_path / name / "run.json")]) == 0
        files[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert len(files["serial"]) == 5
    assert files["parallel"] == files["serial"]


def test_cli_json_to_stdout_without_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["tonks", "--kappa", "0", "inf", "--outputs", "energy,momentum",
                 "--k-points", "21", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["kappa"] for p in payload["points"]] == ["0", "inf"]
    assert all(len(p["momentum"]["n"]) == 21 for p in payload["points"])
    assert list(tmp_path.iterdir()) == []


def test_cli_json_rspd_needs_out(tmp_path, capsys, monkeypatch):
    # rspd matrices go only to sidecar files, so JSON without --out is
    # rejected before any point is computed, with nothing on stdout.
    monkeypatch.chdir(tmp_path)
    for mode in (["tonks", "--kappa", "0"], ["dvr", "--kappa", "0", "--g1d", "1"]):
        assert main([*mode, "--outputs", "energy,rspd", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need --out" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,label", [
    (["tonks", "--kappa", "1", "1.0000000000001", "--outputs", "energy,rspd"], "1, g1d = inf"),
    (["tonks", "--kappa", "0", "2", "2", "--outputs", "momentum"], "2, g1d = inf"),
    (["dvr", "--kappa", "0", "--g1d", "5", "5.0", "--outputs", "rspd", "--format", "json"],
     "0, g1d = 5"),
])
def test_cli_rejects_points_that_share_a_sidecar_name(tmp_path, capsys, monkeypatch, args, label):
    # Two points with one (kappa, g1d) label would write one sidecar file
    # twice: exit 1 before any point runs (a point that ran would fail on
    # the missing evaluator), with nothing written.
    monkeypatch.setattr(cli, "_evaluate_point", None)
    assert main([*args, "--out", str(tmp_path / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: two points are labelled kappa = {label}: "
                            "their sidecar files would share a name\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["spectrum", "--kappa", "1"],
    ["dvr", "--kappa", "1", "--g1d", "1", "--outputs", "energy,rspd,momentum"],
], ids=["spectrum", "dvr"])
@pytest.mark.parametrize("target", ["missing/x.csv", "x.csv/y.csv", "x.csv"],
                         ids=["missing-directory", "file-as-directory", "directory"])
def test_cli_rejects_an_out_it_cannot_write(tmp_path, capsys, monkeypatch, args, target):
    # The table, the sidecars and the failure manifest all go next to
    # --out: an --out in no directory, or naming one, exits 1 with one
    # error line before any point runs (a point that ran would fail on
    # the missing evaluator), with nothing written.
    if target == "x.csv":
        (tmp_path / "x.csv").mkdir()
    else:
        (tmp_path / "x.csv").touch()
    monkeypatch.setattr(cli, "_evaluate_point", None)
    assert main([*args, "--out", str(tmp_path / target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --out {tmp_path / target} is not a file in an existing "
                            "directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_cli_rejects_a_k_span_whose_grid_overflows(capsys, monkeypatch):
    # 1e308 is finite but 2 * 1e308 is not: exit 1 with one error line
    # before any point runs (a point that ran would fail on the missing
    # evaluator).
    monkeypatch.setattr(cli, "_evaluate_point", None)
    assert main(["dvr", "--kappa", "1", "--g1d", "1", "--n-points", "41", "--dx", "0.3",
                 "--outputs", "momentum", "--format", "json", "--k-span", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k span must be positive and 2 * span finite, got 1e+308\n"


def test_cli_rejects_a_k_span_whose_phases_overflow(capsys, monkeypatch):
    # 2 * 8.98e307 is finite, but k x on the 41 / 0.3 mesh (half-width 6)
    # is not: exit 1 with one error line before any point runs, in place
    # of NaN densities.
    monkeypatch.setattr(cli, "_evaluate_point", None)
    assert main(["dvr", "--kappa", "1", "--g1d", "1", "--n-points", "41", "--dx", "0.3",
                 "--outputs", "momentum", "--format", "json", "--k-span", "8.98e307"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: k span times the mesh half-width must be finite, "
                            "got 8.98e+307\n")


def test_cli_dvr_default_mesh_holds_the_free_pair_momentum(tmp_path):
    # At kappa = 0, g = 0 the pair is free and n(k) = e^(-k^2) / sqrt(pi).
    # The default grid mesh, 81 / 0.16 on [-6.4, 6.4], holds it over
    # |k| <= 8 to 1.6e-10; a 61-point mesh, [-4.8, 4.8], clips the pair
    # and is 1.9e-6 off.
    out = tmp_path / "free.json"
    assert main(["dvr", "--kappa", "0", "--g1d", "0", "--outputs", "momentum",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["grid"] == {"n_points": 81, "spacing": 0.16}
    curve = payload["points"][0]["momentum"]
    k, n = np.asarray(curve["k"]), np.asarray(curve["n"])
    assert np.max(np.abs(n - np.exp(-k * k) / math.sqrt(math.pi))) <= 1e-8


@pytest.mark.parametrize("route", [
    ["tonks", "--kappa", "0", "inf"],
    ["dvr", "--kappa", "0", "inf", "--g1d", "1", "--n-points", "41", "--dx", "0.3"],
], ids=["tonks", "dvr"])
@pytest.mark.parametrize("outputs,per_point", [
    ("rspd,momentum", 0), ("energy,entropy", 1), ("schmidt,momentum", 1),
])
def test_cli_occupations_only_for_entropy_or_schmidt(tmp_path, monkeypatch, route, outputs,
                                                     per_point):
    # The natural occupations feed only the entropy and the Schmidt number:
    # the grid route's come from analysis.natural_orbitals, the Tonks
    # route's from tonks.tonks_occupations, once per point either way.
    calls = []

    def counted(fn):
        def wrapper(arg):
            calls.append(arg)
            return fn(arg)
        return wrapper

    monkeypatch.setattr(analysis, "natural_orbitals", counted(analysis.natural_orbitals))
    monkeypatch.setattr(tonks, "tonks_occupations", counted(tonks.tonks_occupations))
    assert main([*route, "--outputs", outputs, "--out", str(tmp_path / "run.csv")]) == 0
    assert len(calls) == 2 * per_point


def test_cli_negative_zero_coupling_reads_as_zero(tmp_path, capsys):
    # -0 is the coupling 0 and is labelled "0", so with sidecars
    # "--kappa -0 0" names one point twice.
    assert main(["tonks", "--kappa", "-0", "0", "--outputs", "energy"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "0"]
    assert main(["dvr", "--kappa", "0", "--g1d", "-0", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert '"g1d": 0.0,' in text
    assert math.copysign(1.0, json.loads(text)["points"][0]["g1d"]) == 1.0
    assert main(["tonks", "--kappa", "-0", "0", "--outputs", "energy,rspd",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "two points are labelled kappa = 0, g1d = inf" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_tonks_point_solves_its_levels_once(capsys, monkeypatch):
    # The density matrix is built from the state solved for the energy:
    # one even-level solve per finite-barrier point.
    calls = []
    even_energy = single_particle.even_energy

    def counted(*args):
        calls.append(args)
        return even_energy(*args)

    monkeypatch.setattr(single_particle, "even_energy", counted)
    assert main(["tonks", "--kappa", "0.5", "3.3", "42", "--outputs", "energy,entropy"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert len(calls) == 3


def test_cli_momentum_grid_checked_before_any_point(tmp_path, capsys):
    # A momentum grid that uniform_k_grid rejects is a validation error:
    # exit 1 before any point runs, with no table and no failure manifest.
    out = tmp_path / "tg.json"
    for bad in (["--k-points", "1"], ["--k-span", "-3"]):
        assert main(["tonks", "--kappa", "0", "--outputs", "energy,momentum", *bad,
                     "--format", "json", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: k ")
        assert "failures" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_tonks_mesh_too_short_is_a_flag_error(tmp_path, capsys, monkeypatch):
    # The pair density needs the mesh to cover [-6, 6], which the flags
    # alone decide: exit 1 before any point runs (a point that ran would
    # fail on the missing evaluator), with no table and no failure manifest.
    args = ["tonks", "--kappa", "1", "3", "--n-points", "41", "--dx", "0.1"]
    out = tmp_path / "short.csv"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_evaluate_point", None)
        assert main([*args, "--outputs", "energy,momentum", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: grid spans [-2, 2] but the pair density needs at "
                            "least [-6, 6]\n")
    assert list(tmp_path.iterdir()) == []
    # The energy alone needs no mesh.
    assert main([*args, "--outputs", "energy", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["kappa"], r["g1d"]) for r in rows] == [("1", "inf"), ("3", "inf")]
    assert all(r["energy"] for r in rows)


@pytest.mark.parametrize("args", [
    ["dvr", "--kappa", "0", "1", "inf", "--g1d", "1", "inf", "--n-points", "41", "--dx", "0.3",
     "--outputs", "energy,entropy,momentum", "--k-points", "21", "--format", "json"],
    ["tonks", "--kappa", "0", "3.3", "inf", "--outputs", "entropy,momentum", "--k-points", "21",
     "--format", "json"],
])
def test_cli_builds_mesh_and_k_grid_once(monkeypatch, capsys, args):
    # The flag check builds the mesh and the k grid, and every kappa row
    # and point reads them from there.
    calls = []

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls.append(name)
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(analysis, "build_grid", counted("mesh", analysis.build_grid))
    monkeypatch.setattr(analysis, "uniform_k_grid", counted("k", analysis.uniform_k_grid))
    assert main(args) == 0
    assert sorted(calls) == ["k", "mesh"]
    points = json.loads(capsys.readouterr().out)["points"]
    assert len(points) == (6 if args[0] == "dvr" else 3)
    assert all(len(p["momentum"]["k"]) == 21 for p in points)


def test_cli_spectrum_150_levels(capsys):
    for kappa, levels in (("1", 150), ("1", 300), ("inf", 300), ("1", 343)):
        assert main(["spectrum", "--kappa", kappa, "--levels", str(levels)]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [int(row[3]) for row in rows] == list(range(levels))
        odd = [row for row in rows if row[2] == "odd"]
        assert [float(row[4]) for row in odd] == [int(row[3]) + 0.5 for row in odd]


def test_cli_spectrum_failure_record_carries_only_kappa(capsys, monkeypatch):
    # A level solve that fails fails its point; the failed point's record
    # keeps its kappa alone.
    def failing(kappa, j):
        raise ArithmeticError(f"no root for level {j} at kappa = {kappa}")

    monkeypatch.setattr(single_particle, "even_energy", failing)
    assert main(["spectrum", "--kappa", "1", "--levels", "3", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["points"] == [{"kappa": "1"}]
    (failure,) = json.loads(captured.err)["failures"]
    assert (failure["kappa"], failure["g1d"]) == ("1", "")
    assert failure["error"].startswith("ArithmeticError")


def test_cli_failure_manifest(tmp_path):
    # The 13-point, dx = 1 mesh covers [-6, 6] but is too coarse for the
    # pair's norm at each kappa: both points fail their momentum, after
    # the flag check.
    out = tmp_path / "fail.csv"
    code = main(["sweep", "--mode", "tonks", "--kappa", "0", "1",
                 "--n-points", "13", "--dx", "1.0",
                 "--outputs", "energy,momentum", "--out", str(out)])
    assert code == 2
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["energy"] for row in rows] == ["", ""]
    manifest = json.loads((tmp_path / "fail.failures.json").read_text())
    assert len(manifest["failures"]) == 2
    assert "GridError" in manifest["failures"][0]["error"]


def _exit_code(args):
    # argparse-level rejections raise SystemExit; post-parse validation
    # returns the code.  Both surface as the process exit status.
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "args",
    [
        ["dvr", "--kappa", "0", "--g1d", "nan"],
        ["dvr", "--kappa", "0"],
        ["spectrum", "--kappa", "0", "--outputs", "entropy"],
        ["tonks", "--kappa", "0", "--outputs", "rspd"],
        ["tonks", "--kappa", "-2"],
        ["sweep", "--kappa", "0"],
        ["dvr", "--kappa", "0", "--g1d", "1", "--n-points", "80"],
        ["dvr", "--kappa", "0", "--g1d", "1", "--workers", "0"],
        ["tonks", "--kappa", "0", "--outputs", "wavelength"],
        ["dvr", "--kappa", "0", "--g1d", "-1"],
        ["dvr", "--kappa", "0", "--g1d", "1", "--dx", "0"],
        ["spectrum", "--kappa", "0", "--levels", "0"],
        ["sweep", "--mode", "spectrum", "--kappa", "0", "--outputs", "entropy"],
        ["sweep", "--mode", "tonks", "--kappa", "0", "--g1d", "1"],
        ["sweep", "--mode", "spectrum", "--kappa", "0", "--n-points", "41"],
        ["sweep", "--mode", "dvr", "--kappa", "0", "--g1d", "0", "--levels", "3"],
        ["tonks", "--kappa", "0", "--outputs", ","],
        ["dvr", "--kappa", "0", "--g1d", "1", "--outputs", "", "--format", "json"],
    ],
)
def test_cli_validation_exit_code(args, capsys):
    assert _exit_code(args) == 1
    assert "error" in capsys.readouterr().err


_MODE_RUNS = {
    "spectrum": ["spectrum", "--kappa", "0.5", "inf", "--levels", "3"],
    "tonks": ["tonks", "--kappa", "0", "inf", "--n-points", "121", "--dx", "0.1",
              "--outputs", "energy,rspd,momentum,entropy", "--k-points", "21"],
    "dvr": ["dvr", "--kappa", "0", "2", "--g1d", "1", "inf", "--n-points", "41", "--dx", "0.2",
            "--outputs", "energy,schmidt", "--format", "json"],
}


@pytest.mark.parametrize("mode", list(_MODE_RUNS))
def test_cli_sweep_mode_is_the_mode(tmp_path, mode):
    # 'sweep --mode M ...' is 'M ...': the same table and sidecar bytes.
    command = _MODE_RUNS[mode]
    runs = {}
    for name, argv in (("mode", command), ("sweep", ["sweep", "--mode", *command])):
        run_dir = tmp_path / name
        run_dir.mkdir()
        assert main([*argv, "--out", str(run_dir / "run.out")]) == 0
        runs[name] = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}
    assert len(runs["mode"]) == (5 if mode == "tonks" else 1)
    assert runs["sweep"] == runs["mode"]


@pytest.mark.parametrize(
    "entries",
    [
        "format = xml\n",
        "npoints = 41\n",
        "g1d = 1\n",
        "kappa = 0, -1\n",
        "mode tonks\n",
        None,
    ],
    ids=["bad-choice", "unknown-key", "key-of-another-subcommand", "bad-coupling", "malformed",
         "missing-file"],
)
def test_cli_config_validation_exit_code(tmp_path, capsys, entries):
    cfg = tmp_path / "run.cfg"
    if entries is not None:
        cfg.write_text(entries)
    assert _exit_code(["tonks", "--kappa", "0", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["spectrum", "tonks", "dvr", "sweep", "units"])
def test_cli_help_renders_for_every_subcommand(command, capsys):
    assert _exit_code([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: splittrap {command} ")


@pytest.mark.parametrize("command,n_points,dx", [("tonks", "161", "0.08"), ("dvr", "81", "0.16")])
def test_cli_help_shows_the_default_mesh(command, n_points, dx, capsys):
    # The default meshes are the parser's own defaults, so --help prints them.
    assert _exit_code([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"mesh points (odd; default {n_points})" in text
    assert f"mesh spacing (default {dx})" in text


def test_cli_builds_one_parser_per_process(fresh_python):
    # Importing cli builds no parser, and two runs in one process share
    # the first run's: each build adds the subcommand parsers once.
    code = (
        "import argparse\n"
        "built = []\n"
        "add = argparse.ArgumentParser.add_subparsers\n"
        "argparse.ArgumentParser.add_subparsers = "
        "lambda self, **kw: built.append(self.prog) or add(self, **kw)\n"
        "import splittrap.cli as cli\n"
        "on_import = len(built)\n"
        "for _ in range(2):\n"
        "    assert cli.main(['spectrum', '--kappa', '1', '--levels', '1']) == 0\n"
        "print(on_import, len(built))\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1"


_DVR_PARSER = build_parser()


def _couplings_from_flags(token):
    # --kappa and --g1d as the dvr subparser reads them; the parser's
    # error message comes back as the text of a ValueError.
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            args = _DVR_PARSER.parse_args(["dvr", f"--kappa={token}", f"--g1d={token}"])
    except SystemExit:
        raise ValueError(stderr.getvalue()) from None
    assert args.kappa == args.g1d
    return args.kappa


@given(st.floats())
@settings(max_examples=300, deadline=None)
def test_coupling_parser_accepts_exactly_non_negative(value):
    # --kappa and --g1d share one parser: a float token is a coupling
    # exactly when it is >= 0, inf included; NaN and negatives are not.
    token = repr(value)
    if not value >= 0.0:
        with pytest.raises(ValueError, match="invalid coupling value"):
            _couplings_from_flags(token)
        return
    (parsed,) = _couplings_from_flags(token)
    assert parsed == value
    label = _fmt_value(parsed)
    (again,) = _couplings_from_flags(label)
    assert _fmt_value(again) == label
    assert again == pytest.approx(value, rel=5e-12, abs=0.0)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@given(st.text().filter(lambda text: not _is_number(text)))
@example("--")
@settings(max_examples=200, deadline=None)
def test_coupling_parser_rejects_non_numeric_text(text):
    with pytest.raises(ValueError, match="invalid coupling"):
        _couplings_from_flags(text)


def test_run_sweep_caps_workers_at_point_count(monkeypatch):
    # Every pool worker is forked on the first submit, so a pool wider
    # than the sweep only costs idle interpreters.
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = _spec(command="spectrum", kappa=(0.0, 1.0, math.inf), levels=2, workers=500)
    assert [r["kappa"] for r in _records(run_sweep(spec))[::2]] == ["0", "1", "inf"]
    assert pools == [3]
    run_sweep(_spec(command="spectrum", kappa=(1.0,), levels=2, workers=500))
    assert pools == [3]
    # A grid task is a whole kappa row: 2 rows of 3 couplings take 2 workers.
    spec = _spec(command="dvr", kappa=(0.0, 1.0), g1d=(0.0, 1.0, 5.0), n_points=41, dx=0.3,
                 workers=500)
    assert [(r["kappa"], r["g1d"]) for r in _records(run_sweep(spec))] == [
        ("0", 0.0), ("0", 1.0), ("0", 5.0), ("1", 0.0), ("1", 1.0), ("1", 5.0)]
    assert pools == [3, 2]


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON output")


def test_cli_infinite_couplings_on_grid(tmp_path, capsys):
    args = ["dvr", "--kappa", "0", "inf", "--g1d", "inf"]
    out = tmp_path / "hard.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["kappa"], r["g1d"]) for r in rows] == [("0", "inf"), ("inf", "inf")]
    assert float(rows[0]["energy"]) == pytest.approx(2.0, abs=2e-4)
    assert float(rows[1]["energy"]) == pytest.approx(3.0, abs=2e-4)
    out_json = tmp_path / "hard.json"
    assert main(args + ["--format", "json", "--out", str(out_json)]) == 0
    payload = json.loads(out_json.read_text(), parse_constant=_reject_constant)
    assert [p["g1d"] for p in payload["points"]] == ["inf", "inf"]


def test_run_sweep_failure_labels_infinite_coupling(monkeypatch):
    # The Krylov iteration fails inside the point evaluation, after the
    # flags were checked, so this exercises the failure record.
    def no_convergence(*args, **kwargs):
        raise dvr.ConvergenceError("no convergence")

    spec = _spec(command="dvr", g1d=(math.inf,), n_points=41, dx=0.3)
    monkeypatch.setattr(dvr, "eigsh", no_convergence)
    points = run_sweep(spec)
    assert _records(points) == [{"kappa": "0", "g1d": "inf"}]
    assert cli._failures(spec, points)[0]["g1d"] == "inf"


def test_cli_failed_coupling_keeps_the_rest_of_its_row(tmp_path, capsys, monkeypatch):
    # The Krylov iteration fails at (kappa, g1d) = (1, 5) alone.  The
    # other couplings of that kappa row share its one-body build
    # (dvr._solver) and keep their energies.
    args = ["dvr", "--kappa", "0", "1", "--g1d", "0", "5", "20", "--n-points", "41",
            "--dx", "0.3", "--outputs", "energy,entropy"]
    expected = tmp_path / "expected.csv"
    assert main(args + ["--out", str(expected)]) == 0
    real_solver, real_eigsh = dvr._solver, dvr.eigsh
    point = []

    def solver(grid, kappa):
        solve = real_solver(grid, kappa)

        def solve_point(g1d):
            point[:] = [(kappa, g1d)]
            return solve(g1d)

        return solve_point

    def fail_at_point(*args, **kwargs):
        if point == [(1.0, 5.0)]:
            raise dvr.ConvergenceError("no convergence")
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(dvr, "_solver", solver)
    monkeypatch.setattr(dvr, "eigsh", fail_at_point)
    out = tmp_path / "failed.csv"
    assert main(args + ["--out", str(out)]) == 2
    failures = json.loads(out.with_suffix(".failures.json").read_text())["failures"]
    assert [(f["kappa"], f["g1d"]) for f in failures] == [("1", "5")]
    assert failures[0]["error"].startswith("ConvergenceError")
    rows, lines = expected.read_text().splitlines(), out.read_text().splitlines()
    assert lines[5] == "1,5,,,"
    assert lines[:5] + lines[6:] == rows[:5] + rows[6:]


def test_cli_failed_row_build_fails_every_coupling_of_its_row(tmp_path, monkeypatch):
    # The one-body build of the kappa = 1 row fails before any of its
    # couplings is solved, as `dvr --kappa 1 --g1d 1 --n-points 5 --dx
    # 1e-200` ends in LinAlgError.  Every g1d of that row lands in the
    # failure manifest with the error, and the kappa = 0 row is unchanged.
    args = ["dvr", "--kappa", "0", "1", "--g1d", "0", "5", "20", "--n-points", "41",
            "--dx", "0.3", "--outputs", "energy,entropy"]
    expected = tmp_path / "expected.csv"
    assert main(args + ["--out", str(expected)]) == 0
    real_solver = dvr._solver

    def solver(grid, kappa):
        if kappa == 1.0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_solver(grid, kappa)

    monkeypatch.setattr(dvr, "_solver", solver)
    out = tmp_path / "failed.csv"
    assert main(args + ["--out", str(out)]) == 2
    failures = json.loads(out.with_suffix(".failures.json").read_text())["failures"]
    assert failures == [
        {"kappa": "1", "g1d": g1d, "error": "LinAlgError: Eigenvalues did not converge"}
        for g1d in ("0", "5", "20")
    ]
    rows, lines = expected.read_text().splitlines(), out.read_text().splitlines()
    assert lines[4:] == ["1,0,,,", "1,5,,,", "1,20,,,"]
    assert lines[:4] == rows[:4]


def test_cli_spectrum_tiny_barrier(capsys):
    assert main(["spectrum", "--kappa", "1e-10", "--levels", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    # First order in kappa, printed to 12 significant digits.
    assert row[-1] == f"{0.5 + 1e-10 / math.sqrt(math.pi):.12g}"


def test_cli_units_text(capsys):
    code = main(["units", "--omega-perp", str(OMEGA_PERP), "--omega", str(OMEGA),
                 "--mass", str(RB_MASS), "--a3d", "5e-9"])
    assert code == 0
    captured = capsys.readouterr().out
    values = {}
    for line in captured.splitlines():
        if "=" in line and not line.startswith("note"):
            key, rest = line.split("=", 1)
            values[key.strip()] = float(rest.split("#")[0])
    assert values["g1d"] == pytest.approx(7.268903466398, rel=1e-10)
    assert values["a1d"] == pytest.approx(-9.579427360581e-8, rel=1e-10, abs=0)
    assert values["g1d_si"] == pytest.approx(1.601307607851e-36, rel=1e-10, abs=0)
    assert values["transverse_length"] == pytest.approx(3.481596637372e-8, rel=1e-10, abs=0)


def test_cli_units_json(capsys):
    code = main(["units", "--omega-perp", str(OMEGA_PERP), "--omega", str(OMEGA),
                 "--mass", str(RB_MASS), "--a3d", "5e-9", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["g1d"] == pytest.approx(7.268903466398, rel=1e-9)
    assert payload["notes"]


def test_cli_units_resonance_exit(capsys):
    d_perp = math.sqrt(hbar / (RB_MASS * OMEGA_PERP))
    code = main(["units", "--omega-perp", str(OMEGA_PERP), "--omega", str(OMEGA),
                 "--mass", str(RB_MASS), "--a3d", repr(d_perp / CONFINEMENT_CONSTANT)])
    assert code == 1
    assert "resonance" in capsys.readouterr().err


def test_cli_module_runs_clean_under_warnings_as_errors(fresh_python):
    # The package no longer imports cli, so runpy finds no stale module.
    proc = fresh_python("-W", "error", "-m", "splittrap.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: splittrap" in proc.stdout


@pytest.mark.parametrize("argv,points", [
    (["tonks", "--kappa", "0", "3.3", "inf", "--k-points", "41"], 3),
    (["dvr", "--kappa", "0", "3.3", "inf", "--g1d", "0", "5", "inf"], 9),
], ids=["tonks", "dvr"])
def test_cli_observables_form_no_full_mesh_array(capsys, monkeypatch, argv, points):
    # Entropy, Schmidt number and momentum read the two half-size parity
    # blocks alone, on either route, and the grid solve checks and signs
    # its pair on those blocks too.  Psi and rho on the whole mesh are
    # N x N: reading either on this path fails the run.
    def forbidden(self):
        raise AssertionError("an N x N array was formed")

    monkeypatch.setattr(analysis.DensityMatrix, "amplitudes", property(forbidden))
    monkeypatch.setattr(analysis.DensityMatrix, "values", property(forbidden))
    assert main([*argv, "--outputs", "energy,entropy,schmidt,momentum", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == points


def test_cli_grid_observables_skip_the_checked_constructor(capsys, monkeypatch):
    # The grid solver hands its two parity blocks to the chain as they
    # are: no point enters DensityMatrix.from_amplitudes or folds psi.
    def forbidden(*args, **kwargs):
        raise AssertionError("the grid amplitudes were checked and folded")

    monkeypatch.setattr(analysis.DensityMatrix, "from_amplitudes", forbidden)
    monkeypatch.setattr(analysis, "_fold", forbidden)
    assert main(["dvr", "--kappa", "0", "3.3", "inf", "--g1d", "0", "5", "inf",
                 "--outputs", "energy,entropy,schmidt,momentum", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 9


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy(fresh_python):
    # The package runs on numpy alone, so importing the CLI loads no scipy module.
    proc = fresh_python("-c", f"import sys, splittrap.cli; print({_SCIPY_MODULES})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_route_loads_scipy(fresh_python):
    # spectrum and tonks are analytic, and the grid route's Krylov run is
    # numpy's: no subcommand loads a scipy module, the gap's runs included.
    proc = fresh_python("-c", f"""
import contextlib, io, json, sys
from splittrap.cli import main
runs = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["spectrum", "--kappa", "0", "--levels", "1"],
                 ["tonks", "--kappa", "0", "--outputs", "energy"],
                 ["dvr", "--kappa", "0", "--g1d", "1", "--n-points", "21", "--dx", "0.3",
                  "--format", "json"]):
        runs.append([main(argv), {_SCIPY_MODULES}])
print(json.dumps(runs))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, []], [0, []], [0, []]]


def test_grid_pool_children_load_no_scipy(fresh_python):
    # A two-worker grid sweep loads no scipy module: not in the parent as
    # it forks the pool, nor in the children that solve the rows.
    proc = fresh_python("-c", f"""
import concurrent.futures, json, sys
from concurrent.futures.process import ProcessPoolExecutor
from splittrap import cli
seen = []

def evaluate_row(args, kappa):
    # Runs in a child: the row's points, then what the child has loaded.
    return real_row(args, kappa) + [{{"scipy": {_SCIPY_MODULES}}}]

class Pool(ProcessPoolExecutor):
    def map(self, *args, **kwargs):
        seen.append({_SCIPY_MODULES})
        return super().map(*args, **kwargs)

real_row, cli._evaluate_row = cli._evaluate_row, evaluate_row
concurrent.futures.ProcessPoolExecutor = Pool
args = cli._parse_args(["dvr", "--kappa", "0", "1", "--g1d", "1", "--n-points", "21",
                        "--dx", "0.3", "--workers", "2"])
cli._check_flags(args)
points = cli.run_sweep(args)
print(json.dumps([seen, [p["scipy"] for p in points if "scipy" in p],
                  any("error" in p for p in points)]))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[[]], [[], []], False]


def test_every_route_runs_with_scipy_blocked(fresh_python):
    # With every scipy import made to fail, as on an install with numpy
    # alone, each subcommand still exits 0: the grid route with the gap's
    # runs (JSON) and with a pool, whose children inherit the block.
    proc = fresh_python("-c", f"""
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
    blocked = False
except ImportError:
    blocked = True
from splittrap.cli import main
grid = ["dvr", "--kappa", "0", "inf", "--g1d", "0", "5", "--n-points", "21", "--dx", "0.3"]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (grid, grid + ["--format", "json"], grid + ["--workers", "2"],
                 ["tonks", "--kappa", "0", "1", "--outputs", "energy,entropy,momentum",
                  "--format", "json"],
                 ["spectrum", "--kappa", "0", "1", "--levels", "3"],
                 ["units", "--omega-perp", "{OMEGA_PERP}", "--omega", "{OMEGA}",
                  "--mass", "{RB_MASS}", "--a3d", "5e-9"]):
        codes.append(main(argv))
print(json.dumps([blocked, codes, {_SCIPY_MODULES}]))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, [0] * 6, []]


_NUMPY_PATHS = {
    "import": ("-c", "import splittrap.cli"),
    "help": ("-m", "splittrap", "--help"),
    "spectrum": ("-m", "splittrap", "spectrum", "--kappa", "0", "1.3", "inf", "--levels", "4"),
    "units": ("-m", "splittrap", "units", "--omega-perp", str(OMEGA_PERP), "--omega", str(OMEGA),
              "--mass", str(RB_MASS), "--a3d", "5e-9"),
    "tonks-energy-csv": ("-m", "splittrap", "tonks", "--kappa", "0", "1", "inf",
                         "--outputs", "energy"),
    "tonks-energy-json": ("-m", "splittrap", "tonks", "--kappa", "0", "1", "inf",
                          "--outputs", "energy", "--format", "json"),
    "tonks-observables": ("-m", "splittrap", "tonks", "--kappa", "1", "--k-points", "41",
                          "--outputs", "energy,entropy,momentum", "--format", "json"),
    "dvr-point": ("-m", "splittrap", "dvr", "--kappa", "1", "--g1d", "1", "--n-points", "21",
                  "--dx", "0.3"),
}


@pytest.mark.parametrize("path,loads", [
    ("import", False), ("help", False), ("spectrum", False), ("units", False),
    ("tonks-energy-csv", False), ("tonks-energy-json", False),
    ("tonks-observables", True), ("dvr-point", True),
])
def test_numpy_loads_only_for_array_work(fresh_python, path, loads):
    # The levels, the unit conversion and the Tonks pair energy are scalar
    # closed forms: those paths never import numpy, which every path that
    # forms an array imports on its first one.  -X importtime lists every
    # module the interpreter imports.
    proc = fresh_python("-X", "importtime", *_NUMPY_PATHS[path])
    assert proc.returncode == 0, proc.stderr
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "splittrap.cli" in imported
    assert ("numpy" in imported) == loads


def test_level_modules_import_no_scipy(fresh_python):
    # The single-particle levels run on numpy alone.
    proc = fresh_python("-c", "import sys, splittrap.specfun, splittrap.single_particle; "
                        f"print({_SCIPY_MODULES})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_observable_modules_import_no_grid_solver(fresh_python):
    # The mesh, the parity fold and the Tonks route live outside dvr, so
    # neither the grid solver nor scipy is loaded with them.
    proc = fresh_python("-c", "import sys, splittrap.analysis, splittrap.tonks; "
                        "print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'scipy' or m == 'splittrap.dvr'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
