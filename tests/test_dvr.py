"""Grid discretization and two-body ground-state solver."""

import functools
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.integrate import cumulative_trapezoid, quad, trapezoid

from splittrap import analysis, dvr, tonks
from splittrap.analysis import GridError, build_grid
from splittrap.dvr import ConvergenceError, TwoBodyState
from splittrap.single_particle import eigenfunction, even_energy, even_state

MONO_GRID = (0.0, 1.0, 2.0, 5.0, 10.0)


def test_build_grid_examples():
    grid = build_grid(81, 0.16)
    assert grid.span == pytest.approx(6.4)
    assert grid.points[grid.center_index] == 0.0
    small = build_grid(3, 1.0)
    np.testing.assert_array_equal(small.points, [-1.0, 0.0, 1.0])
    assert build_grid(61, 0.16).span == pytest.approx(4.8)


def test_build_grid_points_symmetric_increasing():
    grid = build_grid(17, 0.3)
    q = grid.points
    assert np.all(np.diff(q) > 0.0)
    np.testing.assert_allclose(q, -q[::-1], atol=0.0)


@pytest.mark.parametrize(
    "n_points,spacing",
    [(80, 0.16), (2, 1.0), (-5, 0.1), (81, 0.0), (81, -0.1), (81, float("inf")), (81.5, 0.1)],
)
def test_build_grid_rejects_bad_mesh(n_points, spacing):
    with pytest.raises(GridError):
        build_grid(n_points, spacing)


def test_kinetic_matrix_elements():
    grid = build_grid(5, 0.5)
    _, t, _ = dvr._one_body(grid, 0.0)
    assert t[0, 0] == pytest.approx(math.pi**2 / 6.0 / 0.25)
    assert t[0, 1] == pytest.approx(-1.0 / 0.25)
    assert t[0, 2] == pytest.approx(1.0 / (4.0 * 0.25))
    np.testing.assert_allclose(t, t.T, atol=0.0)


def test_apply_hamiltonian_oscillator_product():
    # Discretized product of two oscillator ground states is an
    # eigenvector with E = 1 up to the Gaussian tail truncation.
    grid = build_grid(81, 0.16)
    q = grid.points
    v = np.exp(-0.5 * (q[:, None] ** 2 + q[None, :] ** 2)).ravel()
    v /= math.sqrt(np.sum(v * v)) * grid.spacing
    hv = dvr.apply_hamiltonian(v, grid, 0.0, 0.0)
    assert np.max(np.abs(hv - v)) / np.max(np.abs(v)) <= 1e-4


def test_apply_hamiltonian_linearity():
    grid = build_grid(21, 0.3)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(21 * 21)
    w = rng.standard_normal(21 * 21)
    lhs = dvr.apply_hamiltonian(2.5 * v - 1.25 * w, grid, 1.0, 2.0)
    rhs = 2.5 * dvr.apply_hamiltonian(v, grid, 1.0, 2.0) - 1.25 * dvr.apply_hamiltonian(
        w, grid, 1.0, 2.0
    )
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-11)


def test_apply_hamiltonian_symmetric_operator():
    grid = build_grid(21, 0.3)
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(21 * 21)
        w = rng.standard_normal(21 * 21)
        left = float(w @ dvr.apply_hamiltonian(v, grid, 2.0, 1.5))
        right = float(dvr.apply_hamiltonian(w, grid, 2.0, 1.5) @ v)
        assert left == pytest.approx(right, rel=1e-10)


def test_apply_hamiltonian_validation():
    grid = build_grid(21, 0.3)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(np.zeros(10), grid, 0.0, 0.0)
    v = np.zeros(21 * 21)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, 0.0, -1.0)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, 0.0, float("nan"))
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, -1.0, 0.0)
    with pytest.raises(ValueError):
        dvr.apply_hamiltonian(v, grid, float("nan"), 0.0)


def test_apply_hamiltonian_infinite_couplings_are_limits():
    # kappa = inf and g1d = inf are the limits of the renormalized
    # couplings, kappa_eff -> pi^2 / (2 dx) and g1d_eff -> pi^2 / dx, so
    # the operator at inf equals the one at a huge finite value.
    grid = build_grid(21, 0.3)
    v = np.random.default_rng(5).standard_normal(21 * 21)
    huge = 1e300
    for kappa, g1d in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        at_inf = dvr.apply_hamiltonian(v, grid, kappa, g1d)
        near = dvr.apply_hamiltonian(v, grid, min(kappa, huge), min(g1d, huge))
        np.testing.assert_allclose(at_inf, near, rtol=1e-12, atol=1e-12)


def test_ground_state_non_interacting_pair(solve):
    state = solve(0.0, 0.0)
    assert state.energy == pytest.approx(1.0, abs=1e-3)
    assert state.diagnostics == {"near_degenerate": False}
    assert state.gap > 0.0


def test_ground_state_normalization_and_symmetry(solve):
    for kappa, g in ((0.0, 0.0), (1.0, 1.0), (10.0, 500.0)):
        state = solve(kappa, g)
        psi = state.density.amplitudes
        norm = float(np.sum(psi * psi)) * state.density.grid.spacing**2
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(psi - psi.T)) <= 1e-8
        peak = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
        assert psi[peak] > 0.0


@pytest.mark.parametrize("n_points,spacing", [(41, 0.3), (81, 0.16)])
def test_sign_fixed_at_first_peak_in_row_major_order(solve, n_points, spacing):
    # At (inf, 0) the four extrema, two of each sign, agree to rounding,
    # so the sign is taken at the first of them in row-major order rather
    # than wherever rounding puts the largest.
    psi = solve(math.inf, 0.0, n_points, spacing).density.amplitudes
    magnitude = np.abs(psi).ravel()
    peaks = np.flatnonzero(magnitude >= (1.0 - 1e-8) * magnitude.max())
    assert peaks.size == 4
    assert psi.flat[peaks[0]] > 0.0


def test_sign_fix_unfolds_psi_once(monkeypatch):
    # The same solve at (inf, 0) with the Ritz vector as found and negated,
    # so that one of the two needs the sign flip: both states hold the same
    # bits, psi is their blocks unfolded, and each solve unfolds once, also
    # when the amplitudes and the density are read afterwards.
    grid = build_grid(41, 0.3)
    unfolds = []
    real_unfold = analysis._unfold

    def counting(*args):
        unfolds.append(1)
        return real_unfold(*args)

    real_eigsh = dvr.eigsh

    def negated(*args, **kwargs):
        nu, vecs = real_eigsh(*args, **kwargs)
        return nu, -vecs

    monkeypatch.setattr(analysis, "_unfold", counting)
    states = []
    for eigsh in (real_eigsh, negated):
        monkeypatch.setattr(dvr, "eigsh", eigsh)
        unfolds.clear()
        rho = dvr.ground_state(grid, math.inf, 0.0).density
        rho.amplitudes, rho.values
        assert len(unfolds) == 1
        states.append(rho)
    for rho in states:
        assert np.array_equal(rho.amplitudes, real_unfold(rho.even, rho.odd) / grid.spacing)
        assert not rho.amplitudes.flags.writeable
    assert np.array_equal(states[0].amplitudes, states[1].amplitudes)
    assert np.array_equal(states[0].even, states[1].even)
    assert np.array_equal(states[0].odd, states[1].odd)


@pytest.mark.parametrize("kappa", [0.0, 1.0, math.inf])
@pytest.mark.parametrize("g1d", [0.0, 5.0, math.inf])
def test_ground_state_parity_even(solve, kappa, g1d):
    # The natural-orbital fold rejects a density matrix that is not
    # parity-symmetric, so the pair state must be even to the last bit.
    psi = solve(kappa, g1d).density.amplitudes
    assert np.array_equal(psi, psi[::-1, ::-1])


def test_ground_state_rejects_infinite_inputs():
    # +inf is the impenetrable barrier or the hard-core contact and is
    # solved (test_ground_state_infinite_couplings); -inf and NaN are not
    # couplings at all.
    grid = build_grid(41, 0.16)
    for kappa, g1d in ((-math.inf, 1.0), (0.0, -math.inf), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            dvr.ground_state(grid, kappa, g1d)


@pytest.mark.parametrize(
    "kappa,g1d,bound",
    [
        (math.inf, math.inf, 2e-4),
        (0.0, math.inf, 2e-4),
        (1.0, math.inf, 2e-4),
        (10.0, math.inf, 2e-4),
        (math.inf, 0.0, 1e-12),
    ],
)
def test_ground_state_infinite_couplings(solve, tonks_grid, kappa, g1d, bound):
    # The hard-core pair is the analytic route's Bose-Fermi mapping; the
    # non-interacting pair behind an impenetrable barrier is 2 eps_0 = 3.
    if math.isinf(g1d):
        exact = tonks.tonks_state(kappa, tonks_grid).energy
    else:
        exact = 2.0 * even_energy(kappa, 0)
    assert abs(solve(kappa, g1d).energy - exact) <= bound


def test_ground_state_convergence_error(monkeypatch):
    # The eigensolver's own failure surfaces from the solve as ConvergenceError.
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(dvr, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError):
        dvr.ground_state(build_grid(41, 0.16), 0.0, 5.0)


def test_krylov_runs_go_through_module_wrappers_without_scipy(fresh_python):
    # Wrappers set on dvr.LinearOperator and dvr.eigsh, as the benchmark
    # tracer sets them, see every Krylov run, the gap's two included, and a
    # grid solve loads no scipy module.  eigsh makes its operator inside
    # the run, so each run logs its eigsh before its LinearOperator.
    proc = fresh_python("-c", """
import json, sys
from splittrap import analysis, dvr
runs = []
real_operator, real_eigsh = dvr.LinearOperator, dvr.eigsh

def LinearOperator(*args, **kwargs):
    runs.append("LinearOperator")
    return real_operator(*args, **kwargs)

def eigsh(*args, **kwargs):
    runs.append("eigsh")
    return real_eigsh(*args, **kwargs)

dvr.LinearOperator, dvr.eigsh = LinearOperator, eigsh
dvr.ground_state(analysis.build_grid(21, 0.3), 1.0, 1.0).gap
print(json.dumps({"runs": runs, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"runs": ["eigsh", "LinearOperator"] * 3, "scipy": []}


def _dense_sectors(grid, kappa, g1d):
    # Both sectors' inverses as dense matrices, built column by column,
    # with their start vectors.
    _, t, w = dvr._one_body(grid, kappa)
    _, _, starts, at_contact = dvr._shifted_inverse(*analysis._fold(t + np.diag(w)))
    for inverse, start in zip(at_contact(dvr._contact(grid, g1d)[1]), starts):
        matrix = np.column_stack([inverse(column) for column in np.eye(start.size)])
        yield inverse, start, matrix


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("k", [1, 2])
def test_lanczos_matches_dense_eigh(sector, k):
    # The top k eigenpairs of a sector inverse on 21 / 0.3 at (1, 5), from
    # the start the solver uses, against eigh of the dense matrix: values
    # to 1e-12 relative in ascending order, vectors to 1e-8 up to sign.
    sectors = dict(zip(["even", "odd"], _dense_sectors(build_grid(21, 0.3), 1.0, 5.0)))
    inverse, start, matrix = sectors[sector]
    assert np.max(np.abs(matrix - matrix.T)) <= 1e-14 * np.max(np.abs(matrix))
    exact_values, exact_vectors = np.linalg.eigh(matrix)
    exact_values, exact_vectors = exact_values[-k:], exact_vectors[:, -k:]
    values, vectors = dvr.eigsh(inverse, start, "dense check", k=k)
    assert vectors.shape == (start.size, k)
    assert np.all(np.abs(values - exact_values) <= 1e-12 * exact_values)
    for vector, exact in zip(vectors.T, exact_vectors.T):
        assert np.max(np.abs(vector * np.sign(vector @ exact) - exact)) <= 1e-8


def test_lanczos_step_limit_raises(monkeypatch):
    # A run that reaches the step limit raises ConvergenceError, which
    # names the point where the ground state failed.
    monkeypatch.setattr(dvr, "_MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match=r"kappa=1.0, g1d=5.0, N=21, dx=0.3: .*3 steps"):
        dvr.ground_state(build_grid(21, 0.3), 1.0, 5.0)


def test_ground_state_residual_guard(monkeypatch):
    # The Krylov eigenvalue paired with a vector that is not its eigenvector
    # (the even-sector coefficient vector |00>, both particles in the
    # lowest one-body level: the g1d = 0 ground state, at kappa = 1,
    # g1d = 5) fails the residual check.  The solve runs only the ground
    # run, whose vector is the one mapped back.
    grid = build_grid(41, 0.16)
    real_eigsh = dvr.eigsh

    def wrong_pair(*args, **kwargs):
        nu, vecs = real_eigsh(*args, **kwargs)
        vecs = np.zeros_like(vecs)
        vecs[0, np.argmax(nu)] = 1.0
        return nu, vecs

    monkeypatch.setattr(dvr, "eigsh", wrong_pair)
    with pytest.raises(ConvergenceError, match="residual"):
        dvr.ground_state(grid, 1.0, 5.0)


@pytest.mark.parametrize(
    "kappa,g1d,n_points,spacing",
    [
        (0.0, 0.0, 41, 0.16),
        (1.0, 5.0, 41, 0.16),
        (10.0, 500.0, 41, 0.16),
        (math.inf, math.inf, 41, 0.16),
        # The stiffest capacitance, c = pi^2 / dx^2, for its explicit inverse.
        (math.inf, math.inf, 161, 0.08),
    ],
    ids=["0.0-0.0", "1.0-5.0", "10.0-500.0", "inf-inf", "inf-inf-161-0.08"],
)
def test_shifted_inverse_solves_hamiltonian(kappa, g1d, n_points, spacing):
    # The solver's inverses and apply_hamiltonian come from the same
    # pieces, _one_body and _contact: (H - sigma) inv(x) = x for symmetric
    # x of either total parity, each through its own sector's inverse, and
    # the antisymmetric states of the even sector map to zero.  The
    # one-body factorization is made first and the coupling added to it,
    # as the row solver does.  The inverses act on one-body eigenbasis
    # coefficients, so mesh arrays go in as the stack (U_e^T x U_e,
    # U_o^T x U_o) (even sector) or as U_e^T x U_o (odd sector), with U_o
    # padded by a zero column, whose entries stay zero, and come back
    # through U_e and U_o, the stacked fold bases taken to their half-mesh
    # rows e and o and unfolded onto the mesh.
    grid = build_grid(n_points, spacing)
    _, t, w = dvr._one_body(grid, kappa)
    basis, sigma, _, at_contact = dvr._shifted_inverse(*analysis._fold(t + np.diag(w)))
    e, o = analysis._half_rows(basis[0], basis[1, :-1])
    even_inverse, odd_inverse = at_contact(dvr._contact(grid, g1d)[1])
    u = np.stack((np.vstack((e[:0:-1], e)), np.vstack((-o[:0:-1], o))))
    m = e.shape[0]

    def even(x):
        y = even_inverse((u.transpose(0, 2, 1) @ x @ u).ravel()).reshape(2, m, m)
        assert not np.any(y[1, -1]) and not np.any(y[1, :, -1])
        return y, np.sum(u @ y @ u.transpose(0, 2, 1), axis=0)

    def odd(x):
        y = odd_inverse((u[0].T @ x @ u[1]).ravel()).reshape(m, m)
        assert not np.any(y[:, -1])
        y = u[0] @ y @ u[1].T
        return y + y.T

    rng = np.random.default_rng(41)
    for _ in range(3):
        a = rng.standard_normal((n_points, n_points))
        x = a + a.T
        x_even, x_odd = x + x[::-1, ::-1], x - x[::-1, ::-1]
        y_even, y_odd = even(x_even)[1], odd(x_odd)
        for x, y in ((x_even, y_even), (x_odd, y_odd)):
            back = dvr.apply_hamiltonian(y.ravel(), grid, kappa, g1d) - sigma * y.ravel()
            assert np.max(np.abs(back - x.ravel())) <= 1e-10 * np.max(np.abs(x))
        assert np.max(np.abs(even(a - a.T)[0])) <= 1e-13 * np.max(np.abs(y_even))


@pytest.mark.parametrize("n_points,spacing", [(81, 0.16), (161, 0.08)])
def test_fold_residual_is_the_mesh_residual(solve, n_points, spacing):
    # The residual the solve checks, formed on the two fold blocks of
    # W = dx psi, against ||H psi - E psi|| dx from apply_hamiltonian on
    # the whole mesh: for the solver's own pairs, and for a random
    # parity-even symmetric W of unit norm at E = 2.5, whose residual is
    # about 160, so its bound scales with it.
    grid = build_grid(n_points, spacing)
    a = np.random.default_rng(7).standard_normal((n_points, n_points))
    a = a + a.T + (a + a.T)[::-1, ::-1]
    noise = analysis.DensityMatrix.from_amplitudes(a / (math.sqrt(np.sum(a * a)) * spacing), grid)
    for kappa in (0.0, 1.0, 10.0, math.inf):
        _, t, w = dvr._one_body(grid, kappa)
        h = analysis._fold(t + np.diag(w))
        for g1d in (0.0, 1.0, 500.0, math.inf):
            state = solve(kappa, g1d, n_points, spacing)
            c = dvr._contact(grid, g1d)[1]
            for rho, energy in ((state.density, state.energy), (noise, 2.5)):
                psi = rho.amplitudes.ravel()
                mesh = dvr.apply_hamiltonian(psi, grid, kappa, g1d) - energy * psi
                mesh = np.linalg.norm(mesh) * spacing
                fold = dvr._residual(*h, c, energy, rho.even, rho.odd)
                assert abs(fold - mesh) <= 1e-13 * max(1.0, mesh)


@pytest.mark.parametrize("n_points,spacing", [(41, 0.3), (81, 0.16)])
def test_shift_lies_below_every_ground_energy(n_points, spacing):
    # H >= 2 eps_0 for every contact g1d >= 0, so sigma = 2 eps_0 - 1/16
    # lies below each computed E_0, by the margin up to rounding.
    grid = build_grid(n_points, spacing)
    for kappa in (0.0, 1.0, 10.0, math.inf):
        _, t, w = dvr._one_body(grid, kappa)
        sigma = dvr._shifted_inverse(*analysis._fold(t + np.diag(w)))[1]
        solve = dvr.ground_state_solver(grid, kappa)
        for g1d in (0.0, 1e-4, 5.0, math.inf):
            energy = solve(g1d).energy
            assert sigma < energy
            assert energy - sigma >= 1.0 / 16.0 - 1e-12


def test_fold_blocks_keep_the_spectrum():
    # The even and odd blocks of a parity-symmetric matrix together carry
    # its whole spectrum.
    rng = np.random.default_rng(17)
    a = rng.standard_normal((31, 31))
    m = a + a.T
    m = m + m[::-1, ::-1]
    even, odd = analysis._fold(m)
    folded = np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))))
    np.testing.assert_allclose(folded, np.linalg.eigvalsh(m), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 3.3, math.inf])
def test_row_solver_matches_single_point_solves_bitwise(kappa):
    # One factorization per kappa, shared by the row's couplings, gives
    # the same bits as a fresh factorization per coupling.
    grid = build_grid(41, 0.2)
    solve = dvr.ground_state_solver(grid, kappa)
    for g1d in (0.0, 1.0, 500.0, math.inf):
        row, single = solve(g1d), dvr.ground_state(grid, kappa, g1d)
        assert row.energy == single.energy
        assert row.gap == single.gap
        assert row.density.amplitudes.tobytes() == single.density.amplitudes.tobytes()
        assert row.density.even.tobytes() == single.density.even.tobytes()
        assert row.density.odd.tobytes() == single.density.odd.tobytes()


@pytest.mark.parametrize("kappa", [0.0, 1.0, 3.3, math.inf])
@pytest.mark.parametrize("n_points,spacing", [(81, 0.16), (161, 0.08)])
def test_solver_blocks_are_the_fold_of_its_amplitudes(solve, kappa, n_points, spacing):
    # The solver hands over the two parity blocks of W = dx psi, built from
    # its Ritz vector, and unfolds psi from them: folding dx psi gives the
    # blocks back, both exactly symmetric, with unit total squared norm.
    for g1d in (0.0, 5.0, math.inf):
        rho = solve(kappa, g1d, n_points, spacing).density
        even, odd = analysis._fold(spacing * rho.amplitudes)
        assert np.max(np.abs(rho.even - even)) <= 1e-15
        assert np.max(np.abs(rho.odd - odd)) <= 1e-15
        assert np.array_equal(rho.even, rho.even.T)
        assert np.array_equal(rho.odd, rho.odd.T)
        norm = np.sum(rho.even * rho.even) + np.sum(rho.odd * rho.odd)
        assert abs(norm - 1.0) <= 1e-14


def _symmetric_spectrum(grid, kappa, g1d):
    # Two lowest eigenvalues of H on the exchange-symmetric sector, from
    # the dense matrix in the orthonormal basis |ii>, (|ij> + |ji>)/sqrt 2.
    n = grid.n_points
    rows, cols = np.triu_indices(n)
    weight = np.where(rows == cols, 1.0, math.sqrt(2.0))
    block = np.empty((rows.size, rows.size))
    for k, (i, j) in enumerate(zip(rows, cols)):
        basis = np.zeros((n, n))
        basis[i, j] = basis[j, i] = 1.0 / weight[k]
        image = dvr.apply_hamiltonian(basis.ravel(), grid, kappa, g1d).reshape(n, n)
        block[:, k] = weight * image[rows, cols]
    return scipy.linalg.eigh(block, eigvals_only=True, subset_by_index=[0, 1])


@pytest.mark.parametrize("g1d", [0.0, 1.0, 20.0, math.inf])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 3.3, 10.0, math.inf])
def test_ground_state_matches_dense_symmetric_block(kappa, g1d):
    # E0 and the gap to the first excited bosonic level, against dense
    # diagonalization.  The gap's partner may have either total parity.
    grid = build_grid(41, 0.3)
    e0, e1 = _symmetric_spectrum(grid, kappa, g1d)
    state = dvr.ground_state(grid, kappa, g1d)
    assert abs(state.energy - e0) <= 1e-10
    assert abs(state.gap - (e1 - e0)) <= 1e-10


@pytest.mark.parametrize("kappa", [1.0, 3.3, 10.0])
def test_gap_non_interacting_closed_form(solve, kappa):
    # At g1d = 0 the bosonic levels are products of one-body levels: the
    # ground state puts both particles in the even level eps_0, and the
    # first excitation moves one of them to the barrier-blind odd level
    # 3/2, so the gap is 3/2 - eps_0.
    assert abs(solve(kappa, 0.0).gap - (1.5 - even_energy(kappa, 0))) <= 1e-3


def test_near_degenerate_flag():
    grid = build_grid(3, 1.0)
    psi = np.eye(3)
    even, odd = analysis._fold(psi)
    state = TwoBodyState(
        energy=1.0, density=analysis.DensityMatrix(even, odd, grid), _gap=lambda: 1e-8,
    )
    assert state.gap == 1e-8
    assert state.diagnostics == {"near_degenerate": True}


def test_gap_runs_its_two_krylov_iterations_once(eigsh_calls):
    # A solve runs the ground state's one Krylov iteration, for one Ritz
    # pair; the first read of gap runs the even iteration for two Ritz
    # pairs and the odd one for one, and later reads (diagnostics'
    # near_degenerate among them) reuse its value.
    calls = eigsh_calls
    state = dvr.ground_state(build_grid(41, 0.3), 1.0, 5.0)
    assert calls == [1]
    gap = state.gap
    assert calls == [1, 2, 1]
    assert state.gap == gap
    assert state.diagnostics == {"near_degenerate": False}
    assert calls == [1, 2, 1]


def test_gap_iteration_failure_raises_on_read(monkeypatch):
    # A gap run that does not converge raises ConvergenceError when gap is
    # read, as the ground run does from the solve, and a later read retries.
    # The step limit is lowered after the solve, so the real eigsh fails
    # and the point in its message is the one the solver gave it.
    state = dvr.ground_state(build_grid(41, 0.3), 1.0, 5.0)
    monkeypatch.setattr(dvr, "_MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match=r"kappa=1.0, g1d=5.0, N=41, dx=0.3: .*3 steps"):
        state.gap
    monkeypatch.undo()
    assert state.gap > 0.0


@pytest.mark.parametrize("kappa,g1d", [(1.0, 5.0), (10.0, 500.0), (math.inf, 0.0)])
def test_gap_matches_two_even_ritz_pairs(kappa, g1d):
    # The even sector's second Ritz value gives the next even level that an
    # independent Krylov path gives: the top of the even inverse deflated by
    # the ground Ritz vector g, b -> P inv(P b) with P = 1 - g g^T, from the
    # start with its g component removed; beside it, the odd run's lowest level.
    grid = build_grid(81, 0.16)
    _, t, w = dvr._one_body(grid, kappa)
    _, _, starts, at_contact = dvr._shifted_inverse(*analysis._fold(t + np.diag(w)))
    even_start, odd_start = starts
    even_inverse, odd_inverse = at_contact(dvr._contact(grid, g1d)[1])

    def top(inverse, start, vectors=False):
        op = scipy.sparse.linalg.LinearOperator((start.size,) * 2, matvec=inverse, dtype=float)
        return scipy.sparse.linalg.eigsh(
            op, k=1, which="LA", v0=start, tol=1e-10, return_eigenvectors=vectors
        )

    (nu_ground,), vecs = top(even_inverse, even_start, vectors=True)
    ground = vecs[:, 0]

    def deflate(b):
        return b - ground * (ground @ b)

    (nu_next,) = top(lambda b: deflate(even_inverse(deflate(b))), deflate(even_start))
    (nu_odd,) = top(odd_inverse, odd_start)
    expected = min(1.0 / nu_next, 1.0 / nu_odd) - 1.0 / nu_ground
    assert abs(dvr.ground_state(grid, kappa, g1d).gap - expected) <= 1e-12


@pytest.mark.parametrize(
    "g,bound",
    [
        # The separation oracle is exact; every coupling is held to the
        # nominal 5e-3 of acceptance criterion 3.
        (1.0, 5e-3),
        (5.0, 5e-3),
        (500.0, 5e-3),
    ],
)
def test_separation_oracle_zero_barrier(solve, g, bound):
    # At kappa = 0 the pair separates: centre of mass contributes 1/2,
    # the relative coordinate sees a barrier of strength g / sqrt(2).
    state = solve(0.0, g)
    oracle = 0.5 + even_energy(g / math.sqrt(2.0), 0)
    assert abs(state.energy - oracle) <= bound


def _separated_entropy(g, n_points, spacing):
    # At kappa = 0 the exact pair is psi_0(X) phi(r), X = (x + y)/sqrt 2 and
    # r = (x - y)/sqrt 2, with phi the even level at barrier g/sqrt 2.  On
    # the mesh, x + y and x - y take 2N - 1 values, (i +- j) dx / sqrt 2.
    grid = build_grid(n_points, spacing)
    t = (np.arange(2 * n_points - 1) - (n_points - 1)) * spacing / math.sqrt(2.0)
    centre = math.pi**-0.25 * np.exp(-0.5 * t * t)
    relative = eigenfunction(even_state(g / math.sqrt(2.0), 0), t)
    i = np.arange(n_points)
    psi = centre[i[:, None] + i] * relative[i[:, None] - i + n_points - 1]
    psi /= math.sqrt(np.sum(psi * psi)) * spacing
    rho = analysis.DensityMatrix.from_amplitudes(psi, grid)
    return analysis.von_neumann_entropy(analysis.natural_orbitals(rho))


@functools.cache
def _kappa_zero_solver(n_points, spacing):
    return dvr.ground_state_solver(build_grid(n_points, spacing), 0.0)


@pytest.mark.parametrize("g", [1.0, 5.0, 20.0, 500.0, math.inf])
def test_grid_entropy_matches_separated_pair(solve, g):
    # The sampled exact state carries the O(dx^2) bias of its cusp at x = y,
    # so the reference is the Richardson value over 401/0.03 and 801/0.015.
    # The grid entropy on 161/0.08 measured -1.1e-5 (g = 1) to -6.3e-5
    # (g = inf) from it, and on 321/0.04 -1.8e-6 (g = 1) to -1.08e-5
    # (g = 500).
    coarse, fine = _separated_entropy(g, 401, 0.03), _separated_entropy(g, 801, 0.015)
    reference = fine + (fine - coarse) / 3.0

    def grid_entropy(state):
        return analysis.von_neumann_entropy(
            analysis.natural_orbitals(analysis.rspd_from_state(state)))

    if math.isinf(g):
        # The hard-core limit S(kappa = 0) = 0.9851396; 1.7e-6 measured.
        assert abs(reference - 0.9851396) <= 2e-6
    else:
        assert abs(grid_entropy(_kappa_zero_solver(321, 0.04)(g)) - reference) <= 1.5e-5
    assert abs(grid_entropy(solve(0.0, g, 161, 0.08)) - reference) <= 1e-4


def test_product_state_zero_barrier(solve):
    state = solve(0.0, 0.0)
    assert abs(state.energy - 2.0 * even_energy(0.0, 0)) <= 2e-3


@pytest.mark.parametrize(
    "kappa,bound",
    [
        # The nominal 2e-3 of the criterion 7 grid-product-state check.
        (1.0, 2e-3),
        (2.0, 2e-3),
        (10.0, 2e-3),
    ],
)
def test_product_state_finite_barrier(solve, kappa, bound):
    state = solve(kappa, 0.0)
    assert abs(state.energy - 2.0 * even_energy(kappa, 0)) <= bound


@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0, 10.0])
def test_product_state_rank_one(solve, kappa):
    singular_values = np.linalg.svd(solve(kappa, 0.0).density.amplitudes, compute_uv=False)
    assert singular_values[1] / singular_values[0] <= 1e-6


def test_energy_monotone_in_coupling(solve):
    for kappa in MONO_GRID:
        energies = [solve(kappa, g).energy for g in MONO_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_energy_monotone_in_barrier(solve):
    for g in MONO_GRID:
        energies = [solve(kappa, g).energy for kappa in MONO_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_tonks_ceiling_weak_regime(solve, tonks_grid):
    # Where the mesh error stays small the exact ordering E(g) <
    # E_Tonks survives discretization with the nominal 1e-3 slack.
    for kappa in (0.0, 1.0):
        ceiling = tonks.tonks_state(kappa, tonks_grid).energy
        for g in (0.0, 1.0, 5.0):
            assert solve(kappa, g).energy <= ceiling + 1e-3
    for kappa in (5.0, 10.0):
        assert solve(kappa, 0.0).energy <= tonks.tonks_state(kappa, tonks_grid).energy + 1e-3


def test_tonks_ceiling_with_mesh_error(solve, tonks_grid):
    # With the renormalized delta couplings the remaining mesh error at
    # dx = 0.16 fits inside the nominal +1e-3 slack of the criterion 7
    # hard-core ceiling, at every barrier and up to g = 500.
    for kappa in (0.0, 1.0, 5.0, 10.0):
        ceiling = tonks.tonks_state(kappa, tonks_grid).energy
        for g in (1.0, 5.0, 500.0):
            assert solve(kappa, g).energy <= ceiling + 1e-3


def test_refinement_first_order_convergence(solve):
    # The renormalized delta couplings absorb the O(dx) Green's-function
    # tail the sinc basis drops above pi/dx.  What is left is the
    # energy-dependent tail int_{|k|>pi/dx} dk/2pi 4E/k^4 = 4E dx^3/(3 pi^4),
    # so halving dx shrinks successive energy differences by a factor
    # near 2^3 = 8.
    e81 = solve(1.0, 1.0, 81, 0.16).energy
    e161 = solve(1.0, 1.0, 161, 0.08).energy
    e321 = solve(1.0, 1.0, 321, 0.04).energy
    assert abs(e81 - e161) <= 1.2e-2
    ratio = (e81 - e161) / (e161 - e321)
    assert 6.4 <= ratio <= 9.6


def test_diagonal_suppression_strong_coupling(solve):
    for kappa in (0.0, 10.0):
        psi = solve(kappa, 500.0).density.amplitudes
        assert np.max(np.abs(np.diag(psi))) <= 0.05 * np.max(np.abs(psi))


def test_tg_proxy_energies(solve):
    assert solve(1.0, 500.0).energy == pytest.approx(2.4, abs=0.05)
    assert solve(5.0, 500.0).energy == pytest.approx(2.8, abs=0.05)
    assert solve(10.0, 500.0).energy == pytest.approx(2.9, abs=0.05)


def test_tg_proxy_zero_barrier_on_refined_mesh(solve):
    # g = 500 stands in for the hard-core limit, whose kappa = 0 pair
    # energy is exactly 2.0.  The proxy's own shift below 2.0 is 3.2e-3
    # and the renormalized mesh error is far smaller, so the refined
    # mesh must land inside the 0.02 window.
    assert solve(0.0, 500.0, 161, 0.08).energy == pytest.approx(2.0, abs=0.02)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 3.3, 10.0])
def test_weak_coupling_energy_is_first_order_in_the_contact(kappa):
    # E(g) = 2 eps_0(kappa) + g int phi_0^4 dx + O(g^2): the contact shifts
    # the product ground state phi_0(x) phi_0(y) by g int phi_0(x)^4 dx at
    # first order.  A two-g fit on 161/0.08, E = e + s g through g and 2g:
    #   s = (E(2g) - E(g)) / g,   e = E(g) - s g.
    # The O(g^2) term c g^2 biases s by 3 c g, c = -0.11 to -0.46 here:
    # measured s / int phi_0^4 - 1 = -8.3e-5, -1.2e-4, -2.0e-4, -4.6e-4 at
    # g = 1e-4, and the mesh moves e - 2 eps_0 to 2.2e-9, 3.3e-6, 1.3e-5,
    # 2.0e-5 for kappa = 0, 1, 3.3, 10.
    g = 1e-4
    solve = dvr.ground_state_solver(build_grid(161, 0.08), kappa)
    e_g, e_2g = solve(g).energy, solve(2.0 * g).energy
    slope = (e_2g - e_g) / g
    intercept = e_g - slope * g
    level = even_state(kappa, 0)
    # phi_0 is even and smooth on x > 0; phi_0^4 < 1e-120 past x = 12.
    quartic = 2.0 * quad(lambda x: eigenfunction(level, x) ** 4, 0.0, 12.0,
                         epsabs=1e-14, epsrel=1e-13)[0]
    assert abs(intercept - 2.0 * level.energy) <= 4e-5
    assert abs(slope / quartic - 1.0) <= 1e-3


def _tonks_wronskian_weight(kappa):
    # alpha = 2 int Wr^2 dy, with Wr(x) = 2 (E_0 - E_1) int_{-inf}^x phi_0 phi_1 dy
    # the Wronskian of the two Tonks orbitals (its derivative is
    # 2 (E_0 - E_1) phi_0 phi_1), by the trapezoid rule on [-12, 12].
    x = np.linspace(-12.0, 12.0, 240001)
    state = tonks.tonks_state(kappa, build_grid(161, 0.08))
    phi0, phi1 = state.orbitals(x)
    split = state.even_orbital.energy - state.odd_orbital.energy
    wronskian = 2.0 * split * cumulative_trapezoid(phi0 * phi1, x, initial=0.0)
    return 2.0 * trapezoid(wronskian * wronskian, x)


def test_tonks_wronskian_weight_zero_barrier_closed_form():
    # At kappa = 0 the strong-coupling weight alpha = 2 int Wr^2 dy of the
    # oscillator pair is 2 sqrt(2/pi), the hard-core end of the Busch
    # relation; measured 1.7e-9 relative on this quadrature.
    expected = 2.0 * math.sqrt(2.0 / math.pi)
    assert _tonks_wronskian_weight(0.0) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("kappa,bound", [(0.0, 5e-5), (1.0, 3e-5), (3.3, 2e-4), (10.0, 3e-3)])
def test_strong_coupling_energy_approaches_the_tonks_pair(kappa, bound):
    # E(g) = E(inf) - alpha / g + O(g^-2): the cusp condition 2 d_r Psi(0+)
    # = g Psi(0) and Hellmann-Feynman dE/dg = int Psi(y, y)^2 dy.  On
    # 161/0.08, with E(inf) the grid's own hard-core energy, a two-g fit
    # of y(g) = (E(g) - E(inf)) g = -alpha + beta / g through g = 200 and
    # 1000:
    #   beta = (y(200) - y(1000)) / (1/200 - 1/1000),   alpha = beta / 200 - y(200).
    # Measured |alpha_fit / alpha - 1| = 1.4e-5, 6.4e-6, 5.0e-5 and 9.4e-4
    # for kappa = 0, 1, 3.3 and 10.
    solve = dvr.ground_state_solver(build_grid(161, 0.08), kappa)
    e_inf = solve(math.inf).energy
    y = {g: (solve(g).energy - e_inf) * g for g in (200.0, 1000.0)}
    beta = (y[200.0] - y[1000.0]) / (1.0 / 200.0 - 1.0 / 1000.0)
    alpha = beta / 200.0 - y[200.0]
    assert abs(alpha / _tonks_wronskian_weight(kappa) - 1.0) <= bound
