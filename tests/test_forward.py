import numpy as np
import pytest
import sympy as sp

from nchns import (CFLViolationError, DoubleWell, ForwardSolver, Grid2D,
                   HypothesisConstants, InitialData, ScalarField,
                   StepFailureError, TimeScheme, VectorField, Viscosity,
                   diagnostics, divergence_face_to_cc, gradient_cc_to_face,
                   integral, make_kernel, norm_l2, total_energy, zero_control)
from nchns import linsolve
from nchns.linsolve import SolverConvergenceError
from nchns.presets import scalar_preset, vector_preset

from conftest import SOLVER_PATHS, force_solver_path
from oracles import fit_slope, pairwise_mixing_energy


def default_setup(n=32, dt=5e-5, nt=20, seed=3, lx=1.0):
    grid = Grid2D(n, n, lx, lx)
    constants = HypothesisConstants()
    pot = DoubleWell()
    kern = make_kernel(grid, "gaussian", width=0.15 * lx,
                       auto_scale_target=pot.scale + constants.c1)
    visc = Viscosity()
    scheme = TimeScheme(dt=dt, nt=nt)
    solver = ForwardSolver(grid, kern, pot, visc, scheme)
    rng = np.random.default_rng(seed)
    X, Y = grid.cell_centers()
    phi0 = ScalarField(grid, 0.2 * np.cos(2 * np.pi * X / lx)
                       * np.cos(np.pi * Y / lx)
                       + 0.05 * rng.standard_normal((n, n)))
    init = InitialData(VectorField.zeros(grid), phi0)
    return solver, init


def noisy_solves(solver, monkeypatch):
    """Perturb the output psi of ``_dct_solve`` in each implicit phase
    solve by noise of 1e-6 max|psi|, and lift the solve's residual
    post-condition.

    The direct solve is exact to round-off, so a solution that did not
    conserve mass would lose only about 1e-15 of it, too little for a test
    to see.  The flux-form rebuild u = b + dt Lap_N psi conserves it
    whatever psi is.  Only the Helmholtz solves' psi is perturbed: the
    pressure solves stay exact, and on grids that take the dense path
    they do not call ``_dct_solve`` at all.
    """
    dct_solve = linsolve._dct_solve
    rng = np.random.default_rng(0)

    def noisy(rhs, inv_symbol):
        x = dct_solve(rhs, inv_symbol)
        if inv_symbol is solver._helmholtz._inv_symbol:
            x += 1e-6 * np.max(np.abs(x)) * rng.standard_normal(x.shape)
        return x

    monkeypatch.setattr(linsolve, "_dct_solve", noisy)
    monkeypatch.setattr(solver, "_atol", lambda b: np.inf)


def test_uniform_state_is_steady():
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "delta")
    solver = ForwardSolver(grid, kern, DoubleWell(), Viscosity(),
                           TimeScheme(dt=5e-5, nt=5))
    init = InitialData(VectorField.zeros(grid), ScalarField.full(grid, 0.3))
    traj = solver.run(zero_control(grid, 5), init)
    for k in range(6):
        np.testing.assert_allclose(traj.phi[k].values, 0.3, atol=1e-13)
        assert np.max(np.abs(traj.u[k].ux)) < 1e-13
        assert np.max(np.abs(traj.u[k].uy)) < 1e-13


def test_mass_conservation_and_divergence():
    solver, init = default_setup(nt=50)
    traj = solver.run(zero_control(solver.grid, 50), init)
    m0 = integral(init.phi0)
    for k in range(51):
        assert abs(integral(traj.phi[k]) - m0) <= 1e-10 * abs(m0) + 1e-12
        div = np.max(np.abs(divergence_face_to_cc(traj.u[k]).values))
        assert div <= solver.scheme.tol_p
        assert traj.u[k].ux[0, :].max() == 0.0 and traj.u[k].ux[-1, :].max() == 0.0
        assert traj.u[k].uy[:, 0].max() == 0.0 and traj.u[k].uy[:, -1].max() == 0.0


def _noisy_velocity(grid, rng, amplitude):
    u = VectorField(grid, amplitude * rng.standard_normal((grid.nx + 1, grid.ny)),
                    amplitude * rng.standard_normal((grid.nx, grid.ny + 1)))
    u.enforce_noslip_normal()
    return u


@pytest.mark.parametrize("amplitude", [1.0, 100.0])
def test_project_is_a_linear_projection(amplitude, rng, monkeypatch):
    grid = Grid2D(24, 40, 2.0, 1.0)

    def max_abs(f):
        return max(np.max(np.abs(f.ux)), np.max(np.abs(f.uy)))

    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        solver = ForwardSolver(grid, make_kernel(grid, "delta"), DoubleWell(),
                               Viscosity(), TimeScheme(dt=1e-5, nt=1))
        u = _noisy_velocity(grid, rng, amplitude)
        w = _noisy_velocity(grid, rng, amplitude)
        pu, pw = solver.project(u), solver.project(w)
        assert np.max(np.abs(divergence_face_to_cc(pu).values)) <= solver.scheme.tol_p
        assert max_abs(solver.project(pu) - pu) <= 1e-12 * max_abs(pu)
        a = -2.5
        combo = solver.project(a * u + w)
        assert max_abs(combo - (a * pu + pw)) <= 1e-12 * max_abs(combo)


def test_projection_failure_names_predictor_divergence(rng, monkeypatch):
    # the absolute tol_p is below round-off for this predictor; the error
    # must say so by giving the predictor's own divergence
    grid = Grid2D(24, 40, 2.0, 1.0)
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        solver = ForwardSolver(grid, make_kernel(grid, "delta"), DoubleWell(),
                               Viscosity(), TimeScheme(dt=1e-5, nt=1))
        u = _noisy_velocity(grid, rng, 1e6)
        div = np.max(np.abs(divergence_face_to_cc(u).values))
        with pytest.raises(SolverConvergenceError) as err:
            solver.project(u)
        assert f"max|div u*| = {div:.3e}" in str(err.value)


def test_energy_non_increasing():
    solver, init = default_setup(nt=200)
    traj = solver.run(zero_control(solver.grid, 200), init)
    kin, mix, bulk = total_energy(traj.u[0], traj.phi[0], solver.kernel,
                                  solver.potential)
    e_prev = kin + mix + bulk
    e0 = e_prev
    slack = 10.0 * solver.scheme.dt * e0
    for k in range(1, 201):
        kin, mix, bulk = total_energy(traj.u[k], traj.phi[k], solver.kernel,
                                      solver.potential)
        e = kin + mix + bulk
        assert e <= e_prev + slack
        e_prev = e


def test_mixing_energy_identity_against_pairwise_sum(rng):
    # the a/convolution form of the mixing energy equals the literal
    # quarter-double-sum over cell pairs in the same quadrature
    grid = Grid2D(12, 12)
    kern = make_kernel(grid, "gaussian", width=0.2)
    phi = ScalarField(grid, rng.standard_normal((12, 12)))
    _, mix, _ = total_energy(VectorField.zeros(grid), phi, kern, DoubleWell())
    direct = pairwise_mixing_energy(kern, phi.values)
    assert abs(mix - direct) <= 1e-12 * max(1.0, abs(direct))


def test_gradient_controls_are_annihilated(rng):
    solver, init = default_setup(nt=10)
    grid = solver.grid
    base = solver.run(zero_control(grid, 10), init)
    s = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
    v_grad = [gradient_cc_to_face(s) for _ in range(10)]
    pushed = solver.run(v_grad, init)
    du = pushed.u[-1] - base.u[-1]
    dphi = pushed.phi[-1] - base.phi[-1]
    assert norm_l2(du) <= 1e-8
    assert norm_l2(dphi) <= 1e-8


def test_cfl_violation_reports_suggested_dt():
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "gaussian", width=0.2, auto_scale_target=1.1)
    scheme = TimeScheme(dt=1e-2, nt=3)   # far above the viscous bound
    solver = ForwardSolver(grid, kern, DoubleWell(), Viscosity(), scheme)
    init = InitialData(VectorField.zeros(grid), ScalarField.full(grid, 0.1))
    with pytest.raises(StepFailureError) as err:
        solver.run(zero_control(grid, 3), init)
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, CFLViolationError)
    assert err.value.__cause__.suggested_dt < 1e-2


def test_cfl_violation_fails_before_any_phase_solve(monkeypatch):
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "gaussian", width=0.2, auto_scale_target=1.1)
    solver = ForwardSolver(grid, kern, DoubleWell(), Viscosity(),
                           TimeScheme(dt=1e-2, nt=3))
    calls = []
    solve = solver._helmholtz.solve
    monkeypatch.setattr(solver._helmholtz, "solve",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    init = InitialData(VectorField.zeros(grid), ScalarField.full(grid, 0.1))
    with pytest.raises(StepFailureError) as err:
        solver.run(zero_control(grid, 3), init)
    assert err.value.step == 0
    assert calls == []


@pytest.mark.parametrize("component", ["ux", "uy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cfl_check_names_a_non_finite_velocity(component, bad):
    # every comparison with a NaN is False, so a bound check alone lets it by
    solver, _ = default_setup(n=16, nt=2, dt=1e-5)
    u = VectorField.zeros(solver.grid)
    getattr(u, component)[5, 7] = bad
    with pytest.raises(CFLViolationError, match=r"velocity max\|u\| = (nan|inf)"):
        solver.check_cfl(u)


def test_initial_data_validation():
    grid = Grid2D(16, 16)
    u0 = VectorField.zeros(grid)
    u0.ux[0, 3] = 1.0
    with pytest.raises(ValueError):
        InitialData(u0, ScalarField.zeros(grid)).validate(1e-10)
    u1 = VectorField.zeros(grid)
    u1.ux[5, 5] = 1.0   # interior divergence
    with pytest.raises(ValueError):
        InitialData(u1, ScalarField.zeros(grid)).validate(1e-10)


@pytest.mark.parametrize("dt, tol_p", [(np.nan, 1e-10), (np.inf, 1e-10),
                                        (-1e-5, 1e-10), (1e-5, np.nan),
                                        (1e-5, np.inf), (1e-5, 0.0)])
def test_time_scheme_rejects_bad_dt_and_tol_p(dt, tol_p):
    # a NaN dt would otherwise fail only at step 0, as a missed Helmholtz
    # residual of nan
    with pytest.raises(ValueError, match="finite dt > 0"):
        TimeScheme(dt=dt, nt=1, tol_p=tol_p)


@pytest.mark.parametrize("nt", [2.5, True])
def test_time_scheme_rejects_non_integer_nt(nt):
    # a float or bool nt would otherwise pass and fail later as a bare TypeError
    with pytest.raises(ValueError, match="nt must be an integer"):
        TimeScheme(dt=1e-5, nt=nt)


def test_time_scheme_accepts_numpy_integer_nt():
    assert TimeScheme(dt=1e-5, nt=np.int64(3)).final_time == 1e-5 * 3


def test_dt_refinement_first_order():
    diffs = []
    for dt, nt in ((4e-5, 25), (2e-5, 50), (1e-5, 100)):
        grid = Grid2D(32, 32)
        constants = HypothesisConstants()
        pot = DoubleWell()
        kern = make_kernel(grid, "gaussian", width=0.15,
                           auto_scale_target=pot.scale + constants.c1)
        solver = ForwardSolver(grid, kern, pot, Viscosity(),
                               TimeScheme(dt=dt, nt=nt))
        X, Y = grid.cell_centers()
        phi0 = ScalarField(grid, 0.3 * np.cos(2 * np.pi * X) * np.cos(np.pi * Y))
        init = InitialData(VectorField.zeros(grid), phi0)
        traj = solver.run(zero_control(grid, nt), init)
        diffs.append((traj.u[-1], traj.phi[-1]))
    d1 = norm_l2(diffs[0][1] - diffs[1][1]) + norm_l2(diffs[0][0] - diffs[1][0])
    d2 = norm_l2(diffs[1][1] - diffs[2][1]) + norm_l2(diffs[1][0] - diffs[2][0])
    assert 1.5 <= d1 / d2 <= 2.5  # first order in dt


@pytest.mark.parametrize("phase, variable_err, ratio", [
    ("bubble(0.3, 0.5, 0.5, 0.08)", 6.22e-3, 1.1),  # reads 1.06x
    ("random(0.1, 0)", 0.259, 1.75),  # white noise; reads 1.59x
])
def test_phase_step_accuracy_against_dt16(phase, variable_err, ratio):
    # the constant-coefficient split costs some accuracy, most on rough
    # data; pin its error against the same scheme at dt/16 to a ratio of
    # the variable-coefficient scheme's error on the same problem
    def final_phi(dt, nt):
        solver, _ = default_setup(n=32, dt=dt, nt=nt)
        grid = solver.grid
        init = InitialData(vector_preset(grid, "taylor-vortex(0.05)"),
                           scalar_preset(grid, phase))
        return solver.run(zero_control(grid, nt), init).phi[-1].values

    phi, ref = final_phi(7e-5, 20), final_phi(7e-5 / 16, 320)
    err = np.max(np.abs(phi - ref)) / np.max(np.abs(ref))
    assert err <= ratio * variable_err


def test_momentum_step_manufactured_convergence():
    # decaying no-slip vortex with sympy-derived forcing; constant viscosity,
    # uniform phase so the capillary force vanishes
    x, y, t = sp.symbols("x y t")
    psi = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 * sp.exp(-t)
    ux_s = sp.diff(psi, y)
    uy_s = -sp.diff(psi, x)
    nu0 = 1.0
    fx_s = (sp.diff(ux_s, t) + ux_s * sp.diff(ux_s, x) + uy_s * sp.diff(ux_s, y)
            - nu0 * (sp.diff(ux_s, x, 2) + sp.diff(ux_s, y, 2)))
    fy_s = (sp.diff(uy_s, t) + ux_s * sp.diff(uy_s, x) + uy_s * sp.diff(uy_s, y)
            - nu0 * (sp.diff(uy_s, x, 2) + sp.diff(uy_s, y, 2)))
    psi_f = sp.lambdify((x, y, t), psi, "numpy")
    fx_f = sp.lambdify((x, y, t), fx_s, "numpy")
    fy_f = sp.lambdify((x, y, t), fy_s, "numpy")

    T = 2e-3
    errs, hs = [], []
    for n, dt in ((16, 2.5e-4), (32, 6.25e-5), (64, 1.5625e-5)):
        nt = int(round(T / dt))
        grid = Grid2D(n, n)
        kern = make_kernel(grid, "delta")
        visc = Viscosity(mean=nu0, modulation=0.0, nu_min=nu0, nu_max=nu0)
        solver = ForwardSolver(grid, kern, DoubleWell(), visc,
                               TimeScheme(dt=dt, nt=nt))
        XN, YN = grid.nodes()
        u0 = VectorField.from_stream_function(grid, psi_f(XN, YN, 0.0))
        u0.enforce_noslip_normal()   # clear sin(pi)^2 round-off on the walls
        init = InitialData(u0, ScalarField.full(grid, 0.0))
        v = []
        for k in range(nt):
            tk = k * dt
            XF, YF = grid.xface_centers()
            XG, YG = grid.yface_centers()
            f = VectorField(grid, fx_f(XF, YF, tk), fy_f(XG, YG, tk))
            f.enforce_noslip_normal()
            v.append(f)
        traj = solver.run(v, init)
        exact = VectorField.from_stream_function(grid, psi_f(XN, YN, T))
        errs.append(norm_l2(traj.u[-1] - exact))
        hs.append(grid.dx)
    slope = fit_slope(hs, errs)
    assert 1.7 <= slope <= 2.4


def test_diagnostics_rows():
    solver, init = default_setup(nt=5)
    init = InitialData(VectorField.zeros(solver.grid),
                       ScalarField.full(solver.grid, 0.2))
    traj = solver.run(zero_control(solver.grid, 5), init)
    rows = diagnostics(traj, solver.kernel, solver.potential)
    assert len(rows) == 6
    for row in rows:
        assert row["kinetic_energy"] <= 1e-20
        assert row["max_div"] <= solver.scheme.tol_p
        assert row["min_phi"] == pytest.approx(0.2, abs=1e-10)


def test_solve_phase_keeps_cell_sum(rng, monkeypatch):
    solver, _ = default_setup(nt=1)
    noisy_solves(solver, monkeypatch)
    b = rng.standard_normal((32, 32)) + 0.3
    phi = solver.solve_phase(b)
    assert abs(np.sum(phi.values) - np.sum(b)) <= 1e-12 * np.sum(np.abs(b))
