"""Acceptance gate: one test per shipped criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s -q`` to see every verdict
line.  Criterion 6 fails by a measured margin: at kappa = 10 the exact
finite-barrier momentum profile is still about 0.41/kappa away from the
kappa = inf closed form, above the 0.02 sup tolerance.  The assertion
keeps the stated tolerance rather than widening it.  README.md lists
the numbers.
"""

import functools
import math
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks
from scipy.special import dawsn

from splittrap import analysis, dvr, specfun, tonks
from splittrap.cli import main
from splittrap.single_particle import (
    EigenState,
    eigenfunction,
    even_energy,
    even_state,
    odd_energy,
    spectrum,
)


def _weight(dist):
    # Trapezoid integral of a momentum distribution over its k grid.
    return float(np.trapezoid(dist.densities, dist.k_values))


def _finish(number, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    on_time = elapsed < budget
    verdict = "PASS" if (ok and on_time) else "FAIL"
    print(
        f"criterion {number}: {verdict} - {detail} "
        f"[{elapsed:.1f}s of {budget:.0f}s budget]"
    )
    assert ok and on_time, f"criterion {number}: {detail} (elapsed {elapsed:.1f}s)"


def test_criterion_1_even_levels():
    started = time.perf_counter()
    free = [abs(even_energy(0.0, j) - e) for j, e in enumerate((0.5, 2.5, 4.5))]
    hard = [abs(even_energy(1.0e6, j) - e) for j, e in enumerate((1.5, 3.5, 5.5))]
    ok = max(free) <= 1e-10 and max(hard) <= 1e-3
    detail = (
        f"kappa=0 max dev {max(free):.1e} (tol 1e-10), "
        f"kappa=1e6 max dev {max(hard):.1e} (tol 1e-3)"
    )
    _finish(1, ok, detail, started, 1.0)


def test_criterion_2_pair_energy_hard_core():
    started = time.perf_counter()
    values = [tonks.tonks_energy(k) for k in (0.0, 1.0, 2.0, float("inf"))]
    ok = (
        values[0] == 2.0
        and values[3] == 3.0
        and abs(values[1] - 2.4) <= 0.05
        and abs(values[2] - 2.6) <= 0.05
    )
    detail = (
        "pair energies "
        + ", ".join(f"{v:.4f}" for v in values)
        + " vs 2.0 (exact), 2.4, 2.6 (+-0.05), 3.0 (exact)"
    )
    _finish(2, ok, detail, started, 1.0)


def test_criterion_3_contact_coupling_oracle(solve):
    started = time.perf_counter()
    devs = {}
    for g in (1.0, 5.0, 500.0):
        reference = 0.5 + even_energy(g / math.sqrt(2.0), 0)
        devs[g] = abs(solve(0.0, g).energy - reference)
    ok = max(devs.values()) <= 5e-3
    detail = (
        "grid energy vs relative-coordinate root: "
        + ", ".join(f"g={g:g}: {d:.2e}" for g, d in devs.items())
        + " (tol 5e-3)"
    )
    _finish(3, ok, detail, started, 60.0)


def test_criterion_4_split_trap_strong_coupling(solve):
    started = time.perf_counter()
    targets = {1.0: 2.4, 5.0: 2.8, 10.0: 2.9}
    devs = {k: abs(solve(k, 500.0).energy - t) for k, t in targets.items()}
    ok = max(devs.values()) <= 0.05
    detail = (
        "g=500 energies vs targets: "
        + ", ".join(f"kappa={k:g}: {d:.3f}" for k, d in devs.items())
        + " (tol 0.05)"
    )
    _finish(4, ok, detail, started, 120.0)


def test_criterion_5_entropy_landmarks():
    started = time.perf_counter()
    grid = analysis.build_grid(1201, 0.01)
    cache = {}

    def entropy(kappa):
        if kappa not in cache:
            rho = tonks.tonks_state(kappa, grid).density
            cache[kappa] = analysis.von_neumann_entropy(analysis.natural_orbitals(rho))
        return cache[kappa]

    s_zero = entropy(0.0)

    lo, hi = 1.0, 1.6
    bracketed = entropy(lo) < 1.0 < entropy(hi)
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if entropy(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)

    scan = np.array([2.4, 2.8, 3.2, 3.6, 4.0, 4.4])
    values = np.array([entropy(float(k)) for k in scan])
    top = int(np.argmax(values))
    if 0 < top < scan.size - 1:
        y0, y1, y2 = values[top - 1 : top + 2]
        peak = scan[top] + 0.2 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    else:
        peak = float(scan[top])

    hard = analysis.natural_orbitals(tonks.tonks_state(math.inf, grid).density)
    s_inf = analysis.von_neumann_entropy(hard)
    schmidt = analysis.schmidt_number(hard)

    ok = (
        bracketed
        and abs(s_zero - 0.985) <= 0.005
        and abs(crossing - 1.33) <= 0.05
        and abs(peak - 3.4) <= 0.2
        and abs(s_inf - 1.0) <= 1e-3
        and schmidt == 2
    )
    detail = (
        f"S(0)={s_zero:.4f} (0.985+-0.005), S=1 crossing at {crossing:.3f} "
        f"(1.33+-0.05), peak at {peak:.2f} (3.4+-0.2), S(inf)={s_inf:.6f} "
        f"(1+-1e-3) with Schmidt number {schmidt} (=2)"
    )
    _finish(5, ok, detail, started, 120.0)


def test_criterion_6_momentum_profiles(solve, tonks_grid):
    started = time.perf_counter()
    k_cmp = analysis.uniform_k_grid(401, 4.0)
    hard_profile = tonks.momentum_tg_infinite_barrier(k_cmp)
    free_profile = tonks.momentum_noninteracting_infinite_barrier(k_cmp)

    analytic = tonks.tonks_state(10.0, tonks_grid).density
    rhos = {
        (kappa, g): analysis.rspd_from_state(solve(kappa, g, 61, 0.16))
        for kappa in (5.0, 10.0)
        for g in (0.0, 1.0, 5.0, 500.0)
        if (kappa, g) != (5.0, 5.0) and (kappa, g) != (5.0, 500.0)
    }

    sups = {
        "analytic(10) vs hard-core": float(
            np.max(
                np.abs(
                    analysis.momentum_distribution(analytic, k_cmp).densities
                    - hard_profile
                )
            )
        ),
        "grid(10,500) vs hard-core": float(
            np.max(
                np.abs(
                    analysis.momentum_distribution(rhos[(10.0, 500.0)], k_cmp).densities
                    - hard_profile
                )
            )
        ),
        "grid(10,0) vs free": float(
            np.max(
                np.abs(
                    analysis.momentum_distribution(rhos[(10.0, 0.0)], k_cmp).densities
                    - free_profile
                )
            )
        ),
    }

    # every distribution must carry unit weight on its alias-free window
    k_analytic = analysis.uniform_k_grid(4001, 39.25)
    k_grid_route = analysis.uniform_k_grid(2001, 19.6)
    integral_devs = [
        abs(_weight(analysis.momentum_distribution(analytic, k_analytic)) - 1.0)
    ]
    integral_devs += [
        abs(_weight(analysis.momentum_distribution(rho, k_grid_route)) - 1.0)
        for rho in rhos.values()
    ]

    k_peak = analysis.uniform_k_grid(401, 8.0)

    def side_peaks(rho):
        densities = analysis.momentum_distribution(rho, k_peak).densities
        found, _ = find_peaks(densities, prominence=1e-3)
        return bool(np.any(np.abs(k_peak[found]) > 1.0))

    present = side_peaks(rhos[(5.0, 0.0)]) and side_peaks(rhos[(10.0, 0.0)])
    absent = not any(
        side_peaks(rhos[key])
        for key in ((5.0, 1.0), (10.0, 1.0), (10.0, 5.0), (10.0, 500.0))
    )

    ok = (
        max(sups.values()) <= 0.02
        and max(integral_devs) <= 1e-4
        and present
        and absent
    )
    detail = (
        "sup devs "
        + ", ".join(f"{name}: {v:.4f}" for name, v in sups.items())
        + f" (tol 0.02); max |integral - 1| {max(integral_devs):.1e} (tol 1e-4); "
        f"side peaks at g=0 {'present' if present else 'missing'}, "
        f"at g>=1 {'absent' if absent else 'present'}"
    )
    _finish(6, ok, detail, started, 120.0)


def test_criterion_7_property_suite(solve, tonks_rho, tonks_grid):
    started = time.perf_counter()
    failures = []
    checks = []

    def check(name, fn):
        checks.append(name)
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{name} ({exc})")

    # --- special functions ---------------------------------------------
    def hermite_recurrence():
        # The integer-order levels, psi_n as the program evaluates it by
        # the normalized recurrence, against numpy's Hermite series.
        xs = np.linspace(-10.0, 10.0, 41)
        for n in range(51):
            norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
            series = np.polynomial.hermite.hermval(xs, [0] * n + [1])
            oracle = norm * series * np.exp(-0.5 * xs**2)
            level = EigenState("even" if n % 2 == 0 else "odd", n, n + 0.5, 0.0)
            error = eigenfunction(level, xs) - oracle
            worst = np.max(np.abs(error)) / np.max(np.abs(oracle))
            assert worst <= 1e-10, f"n={n}: rel {worst:.1e}"

    def gamma_reflection():
        for x in np.linspace(0.05, 0.95, 19):
            value = specfun.gamma(x) * specfun.gamma(1.0 - x) * math.sin(math.pi * x)
            assert abs(value / math.pi - 1.0) <= 1e-10, f"x={x:.2f}"

    def kummer_transform():
        # kummer_m(1/2, 3/2, z) on 0 <= z <= 20 against Kummer's
        # transformation of Dawson's D(x)/x = M(1, 3/2, -x^2), which does
        # not call it: M(1/2, 3/2, z) = e^z D(sqrt z) / sqrt z.
        assert specfun.kummer_m(0.5, 1.5, 0.0) == 1.0, "z = 0"
        worst = 0.0
        for z in np.arange(0.1, 20.0001, 0.1):
            x = math.sqrt(z)
            dawson_form = math.exp(z) * dawsn(x) / x
            worst = max(worst, abs(specfun.kummer_m(0.5, 1.5, z) / dawson_form - 1.0))
        assert worst <= 1e-10, f"rel {worst:.1e} for 0 <= z <= 20"

    def u_branch_overlap():
        # At these a, U(a, 1/2, z) = 4^a H_(-2a)(sqrt z), a polynomial,
        # taken from numpy's Hermite series.
        worst = 0.0
        for a in (-10.0, -7.0, -5.0, -3.0, -2.5, -2.0):
            coefficients = [0] * round(-2.0 * a) + [1]
            for z in (20.0, 24.0, 28.0, 32.0, 36.0, 40.0):
                hermite = 4.0**a * np.polynomial.hermite.hermval(math.sqrt(z), coefficients)
                worst = max(worst, abs(specfun.kummer_u(a, 0.5, z) / hermite - 1.0))
        assert worst <= 1e-6, f"rel {worst:.1e}"

    check("specfun-hermite-recurrence", hermite_recurrence)
    check("specfun-gamma-reflection", gamma_reflection)
    check("specfun-kummer-transform", kummer_transform)
    check("specfun-u-branch-overlap", u_branch_overlap)

    # --- single-particle levels ------------------------------------------
    kappas = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0)

    def even_monotone():
        for j in range(3):
            values = [even_energy(k, j) for k in kappas]
            assert all(a < b for a, b in zip(values, values[1:])), f"j={j}"

    def even_bracketing():
        for j in range(3):
            for kappa in kappas[1:]:
                e = even_energy(kappa, j)
                assert 2 * j + 0.5 < e < 2 * j + 1.5, f"kappa={kappa:g}, j={j}"

    def slope_jump():
        h = 1e-4
        for kappa in (0.5, 1.0, 5.0, 10.0):
            for j in (0, 1):
                state = even_state(kappa, j)
                phi = functools.partial(eigenfunction, state)
                right = (-3 * phi(0.0) + 4 * phi(h) - phi(2 * h)) / (2 * h)
                left = (3 * phi(0.0) - 4 * phi(-h) + phi(-2 * h)) / (2 * h)
                jump = right - left
                target = 2.0 * kappa * phi(0.0)
                assert abs(jump / target - 1.0) <= 1e-4, f"kappa={kappa:g}, j={j}"

    def orthonormality():
        from scipy.integrate import simpson

        xs = np.arange(-12.0, 12.0 + 1e-9, 4e-3)
        for kappa in (0.0, 1.0, 10.0):
            states = spectrum(kappa, 6)
            table = np.array([eigenfunction(s, xs) for s in states])
            gram = simpson(table[:, None, :] * table[None, :, :], x=xs, axis=2)
            worst = np.max(np.abs(gram - np.eye(6)))
            assert worst <= 1e-8, f"kappa={kappa:g}: {worst:.1e}"

    def root_residual():
        for kappa in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e6):
            for j in range(3):
                e = even_energy(kappa, j)
                ratio = 2.0 * specfun.gamma(-e / 2 + 0.75) / specfun.gamma(-e / 2 + 0.25)
                assert abs(ratio + kappa) <= 1e-9 * (1.0 + kappa), f"kappa={kappa:g}"

    check("levels-even-monotone", even_monotone)
    check("levels-even-bracketing", even_bracketing)
    check("levels-slope-jump", slope_jump)
    check("levels-orthonormality", orthonormality)
    check("levels-root-residual", root_residual)

    # --- analytic hard-core pair -----------------------------------------
    def bose_fermi_identity():
        for kappa in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, float("inf")):
            pair = tonks.tonks_energy(kappa)
            assert pair == even_energy(kappa, 0) + odd_energy(1), f"kappa={kappa:g}"

    def rspd_positive():
        for kappa in (0.0, 1.0, 5.0, 10.0):
            rho = tonks.tonks_state(kappa, tonks_grid).density
            low = float(np.min(np.linalg.eigvalsh(rho.values) * rho.grid.spacing))
            assert low >= -1e-10, f"kappa={kappa:g}: {low:.1e}"

    def hard_core_momentum_routes():
        k = analysis.uniform_k_grid(301, 6.0)
        hard = tonks.tonks_state(math.inf, tonks_grid).density
        transform = analysis.momentum_distribution(hard, k).densities
        sup = float(np.max(np.abs(transform - tonks.momentum_tg_infinite_barrier(k))))
        assert sup <= 0.02, f"sup {sup:.1e}"

    def momentum_broadens():
        k = analysis.uniform_k_grid(401, 8.0)
        widths = []
        for kappa in (0.0, 1.0, 5.0, 10.0):
            densities = analysis.momentum_distribution(tonks_rho(kappa), k).densities
            above = k[densities >= 0.5 * densities.max()]
            widths.append(float(above[-1] - above[0]))
        assert all(a < b for a, b in zip(widths, widths[1:])), f"widths {widths}"

    check("pair-bose-fermi-identity", bose_fermi_identity)
    check("pair-rspd-positive", rspd_positive)
    check("pair-momentum-two-routes", hard_core_momentum_routes)
    check("pair-momentum-broadens", momentum_broadens)

    # --- grid route --------------------------------------------------------
    def product_state():
        for kappa in (0.0, 1.0, 2.0, 10.0):
            state = solve(kappa, 0.0)
            target = 2.0 * even_energy(kappa, 0)
            dev = abs(state.energy - target)
            assert dev <= 2e-3, f"kappa={kappa:g}: dev {dev:.1e}"
            singulars = np.linalg.svd(state.density.amplitudes, compute_uv=False)
            assert singulars[1] / singulars[0] <= 1e-6, f"kappa={kappa:g} not rank-1"

    def energy_monotone():
        axis = (0.0, 1.0, 2.0, 5.0, 10.0)
        table = {(k, g): solve(k, g).energy for k in axis for g in axis}
        for k in axis:
            row = [table[(k, g)] for g in axis]
            assert all(a <= b + 1e-12 for a, b in zip(row, row[1:])), f"kappa={k:g}"
        for g in axis:
            col = [table[(k, g)] for k in axis]
            assert all(a <= b + 1e-12 for a, b in zip(col, col[1:])), f"g={g:g}"

    def hard_core_ceiling():
        worst = 0.0
        for kappa in (0.0, 1.0, 5.0, 10.0):
            ceiling = tonks.tonks_energy(kappa) + 1e-3
            for g in (1.0, 5.0, 500.0):
                worst = max(worst, solve(kappa, g).energy - ceiling)
        assert worst <= 0.0, f"exceeds ceiling by {worst:.1e}"

    def refinement():
        coarse = solve(1.0, 1.0).energy
        fine = solve(1.0, 1.0, 161, 0.08).energy
        assert abs(coarse - fine) < 1e-3, f"|delta| {abs(coarse - fine):.1e}"

    def diagonal_suppression():
        for kappa in (0.0, 10.0):
            psi = solve(kappa, 500.0).density.amplitudes
            ratio = float(np.max(np.abs(np.diag(psi))) / np.max(np.abs(psi)))
            assert ratio <= 0.05, f"kappa={kappa:g}: {ratio:.3f}"

    def hermiticity():
        grid = analysis.build_grid(81, 0.16)
        for seed in (11, 23):
            rng = np.random.default_rng(seed)
            u = rng.standard_normal(81 * 81)
            v = rng.standard_normal(81 * 81)
            hu = dvr.apply_hamiltonian(u, grid, 2.0, 5.0)
            hv = dvr.apply_hamiltonian(v, grid, 2.0, 5.0)
            left = float(u @ hv)
            right = float(hu @ v)
            assert abs(left - right) <= 1e-10 * max(abs(left), 1.0), f"seed {seed}"

    check("grid-product-state", product_state)
    check("grid-energy-monotone", energy_monotone)
    check("grid-hard-core-ceiling", hard_core_ceiling)
    check("grid-refinement", refinement)
    check("grid-diagonal-suppression", diagonal_suppression)
    check("grid-hermiticity", hermiticity)

    # --- observables --------------------------------------------------------
    def reconstruction():
        rho = tonks.tonks_state(1.0, tonks_grid).density
        rebuilt = (rho.orbitals * analysis.natural_orbitals(rho)) @ rho.orbitals.T
        sup = float(np.max(np.abs(rebuilt - rho.values)))
        assert sup <= 1e-8, f"sup {sup:.1e}"

    def parseval():
        # span exactly one alias period: the transform magnitude is a
        # trigonometric polynomial there, so the quadrature is exact
        rho = tonks_rho(10.0)
        spacing = rho.grid.spacing
        count = 2 * rho.grid.n_points + 1
        k = analysis.uniform_k_grid(count, math.pi / spacing)
        cumulative = np.cumsum(analysis.natural_orbitals(rho))
        retained = int(np.searchsorted(cumulative, 1.0 - 1e-8) + 1)
        for i in range(retained):
            # One orbital enters as the product amplitudes phi phi^T,
            # whose only occupation is 1.
            phi = rho.orbitals[:, i]
            single = analysis.DensityMatrix.from_amplitudes(np.outer(phi, phi), rho.grid)
            weight = _weight(analysis.momentum_distribution(single, k))
            assert abs(weight - 1.0) <= 1e-4, f"orbital {i}: {weight:.6f}"

    def entropy_bounds():
        for rho in (tonks_rho(0.0), tonks_rho(10.0), analysis.rspd_from_state(solve(1.0, 1.0))):
            occupations = analysis.natural_orbitals(rho)
            s = analysis.von_neumann_entropy(occupations)
            live = int(np.sum(occupations > 1e-12))
            assert 0.0 <= s <= math.log2(max(live, 2)), f"S={s:.3f}, live {live}"

    def entropy_vs_g():
        for kappa in (0.0, 1.0, 2.0, 5.0, 10.0):
            values = [
                analysis.von_neumann_entropy(
                    analysis.natural_orbitals(analysis.rspd_from_state(solve(kappa, g)))
                )
                for g in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 500.0)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), f"kappa={kappa:g}"

    def entropy_vs_kappa():
        for g in (1.0, 2.0, 5.0):
            values = [
                analysis.von_neumann_entropy(
                    analysis.natural_orbitals(analysis.rspd_from_state(solve(k, g)))
                )
                for k in (0.0, 1.0, 2.0, 5.0, 10.0)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), f"g={g:g}"

    check("observables-reconstruction", reconstruction)
    check("observables-parseval", parseval)
    check("observables-entropy-bounds", entropy_bounds)
    check("observables-entropy-vs-g", entropy_vs_g)
    check("observables-entropy-vs-kappa", entropy_vs_kappa)

    # --- driver ---------------------------------------------------------------
    def cli_determinism():
        args = ["sweep", "--mode", "dvr", "--kappa", "0", "2", "--g1d", "1", "5",
                "--outputs", "energy,entropy"]
        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "a.csv"
            second = Path(tmp) / "b.csv"
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), "outputs differ"

    def cli_round_trip():
        import csv as csv_mod

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "round.csv"
            assert main(["dvr", "--kappa", "1", "--g1d", "1",
                         "--outputs", "energy,entropy", "--out", str(out)]) == 0
            row = next(csv_mod.DictReader(out.read_text().splitlines()))
        state = solve(1.0, 1.0)
        entropy = analysis.von_neumann_entropy(
            analysis.natural_orbitals(analysis.rspd_from_state(state))
        )
        assert float(row["energy"]) == float(f"{state.energy:.12g}"), "energy drifts"
        assert float(row["entropy"]) == float(f"{entropy:.12g}"), "entropy drifts"

    check("driver-determinism", cli_determinism)
    check("driver-round-trip", cli_round_trip)

    passed = len(checks) - len(failures)
    names = ", ".join(f.split(" (")[0] for f in failures)
    detail = f"{passed}/{len(checks)} properties pass" + (
        f"; failing: {names}" if failures else ""
    )
    elapsed = time.perf_counter() - started
    verdict = "PASS" if (not failures and elapsed < 600.0) else "FAIL"
    print(f"criterion 7: {verdict} - {detail} [{elapsed:.1f}s of 600s budget]")
    assert not failures and elapsed < 600.0, "criterion 7: " + "; ".join(failures)
