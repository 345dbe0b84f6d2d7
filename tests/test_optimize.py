import numpy as np
import pytest

from nchns import (ControlBounds, ControlProblem, CostWeights, Grid2D,
                   ScalarField, Targets, VectorField, control_inner,
                   directional_derivative_via_tangent, evaluate_cost,
                   kkt_residual, project_box, projected_gradient_descent,
                   reduced_gradient, run_adjoint, run_tangent, zero_control)
from nchns.forward import StateTrajectory
from nchns.optimize import control_axpy
from nchns.presets import constant_control, random_solenoidal, vector_preset

from oracles import complementarity_violation, quadrature_cost, taylor_test
from test_adjoint import tracking_setup
from test_forward import default_setup


def small_problem(nt=12, weights=None, seed=2):
    solver, init, traj, targets = tracking_setup(nt=nt, n=24, dt=7e-5)
    weights = weights or CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0, gamma=1e-2)
    bounds = ControlBounds.constant(solver.grid, nt, -10.0, 10.0)
    problem = ControlProblem(solver, init, targets, weights, bounds)
    h = constant_control(solver.grid, nt,
                         random_solenoidal(solver.grid, 1.0,
                                           np.random.default_rng(seed)))
    return problem, traj, h


# ---------------------------------------------------------------------------
# cost

def test_cost_zero_when_targets_match():
    solver, init, traj, _ = tracking_setup(nt=8)
    targets = Targets.from_trajectory(traj)
    weights = CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0, gamma=1.0)
    J = evaluate_cost(traj, zero_control(solver.grid, 8), targets, weights)
    assert J == 0.0


def test_cost_constant_control_closed_form():
    solver, init, traj, targets = tracking_setup(nt=10)
    grid = solver.grid
    c = 0.7
    v = [VectorField(grid, np.full((grid.nx + 1, grid.ny), c),
                     np.full((grid.nx, grid.ny + 1), c)) for _ in range(10)]
    gamma = 2.0
    J = evaluate_cost(traj, v, targets, CostWeights(gamma=gamma))
    T = solver.scheme.dt * solver.scheme.nt
    area = grid.lx * grid.ly
    expected = 0.5 * gamma * T * 2.0 * c ** 2 * area  # two components
    assert J == pytest.approx(expected, rel=1e-12)


def test_cost_matches_independent_quadrature():
    problem, traj, h = small_problem()
    v = [0.3 * hk for hk in h]
    J = evaluate_cost(traj, v, problem.targets, problem.weights)
    J_ref = quadrature_cost(traj, v, problem.targets, problem.weights)
    assert abs(J - J_ref) <= 1e-12 * max(1.0, abs(J_ref))


def test_cost_length_mismatch():
    problem, traj, h = small_problem()
    with pytest.raises(ValueError):
        evaluate_cost(traj, h[:-1], problem.targets, problem.weights)


# ---------------------------------------------------------------------------
# gradients

def test_reduced_gradient_trivial_cases():
    problem, traj, h = small_problem()
    fwd = problem.forward
    adj = run_adjoint(fwd, traj, problem.targets, problem.weights)
    g0 = reduced_gradient(h, adj, 0.0)
    for k in range(len(h)):
        assert g0[k].ux is not None
        np.testing.assert_array_equal(g0[k].ux, adj.au[k + 1].ux)
    weights = CostWeights(gamma=0.5)
    adj0 = run_adjoint(fwd, traj, problem.targets, weights)
    g = reduced_gradient(h, adj0, 0.5)
    for k in range(len(h)):
        np.testing.assert_allclose(g[k].ux, 0.5 * h[k].ux, atol=1e-15)


def test_gradient_matches_central_differences():
    problem, traj, h = small_problem(nt=10)
    fwd = problem.forward
    dt = fwd.scheme.dt
    v = zero_control(fwd.grid, 10)
    adj = run_adjoint(fwd, traj, problem.targets, problem.weights)
    g = reduced_gradient(v, adj, problem.weights.gamma)
    gh = control_inner(g, h, dt)

    def J_of(vv):
        return evaluate_cost(fwd.run(vv, problem.init), vv, problem.targets,
                             problem.weights)

    cds = []
    for eps in (1e-2, 1e-3):
        cd = (J_of(control_axpy(eps, h, v)) - J_of(control_axpy(-eps, h, v))) \
            / (2.0 * eps)
        cds.append(cd)
        assert abs(gh - cd) <= 2e-2 * abs(cd)
    # the tangent-route derivative matches central differences even closer:
    tan = run_tangent(fwd, traj, h)
    d_tan = directional_derivative_via_tangent(traj, tan, problem.targets,
                                               problem.weights, v, h)
    assert abs(d_tan - cds[1]) <= 1e-4 * abs(cds[1])


@pytest.mark.parametrize("term", ["b1", "b2", "b3", "b4"])
def test_each_tracking_term_matches_the_quadrature_oracle(term):
    # J is quadratic in the state, so the central difference of the
    # independent quadrature along the tangent state is its exact derivative
    # for any eps.  The targets are the state under the control h, so each
    # residual is close to minus the tangent state and the difference does
    # not cancel; eps = 100 keeps the perturbation well above the state's
    # own round-off.
    problem, traj, h = small_problem(weights=CostWeights(**{term: 1.0}))
    fwd = problem.forward
    v = zero_control(fwd.grid, len(h))
    targets = Targets.from_trajectory(fwd.run(h, problem.init))
    tan = run_tangent(fwd, traj, h)

    def J_along(eps):
        moved = StateTrajectory(
            traj.grid, traj.scheme, traj.times,
            [u + eps * du for u, du in zip(traj.u, tan.du, strict=True)],
            [p + eps * dp for p, dp in zip(traj.phi, tan.dphi, strict=True)],
            traj.mu)
        return quadrature_cost(moved, v, targets, problem.weights)

    eps = 100.0
    cd = (J_along(eps) - J_along(-eps)) / (2.0 * eps)
    d = directional_derivative_via_tangent(traj, tan, targets, problem.weights,
                                           v, h)
    assert abs(d - cd) <= 1e-12 * abs(cd)


def test_directional_derivative_trivial_cases():
    problem, traj, h = small_problem(nt=8)
    fwd = problem.forward
    zero = zero_control(fwd.grid, 8)
    tan0 = run_tangent(fwd, traj, zero)
    d = directional_derivative_via_tangent(traj, tan0, problem.targets,
                                           problem.weights, h, zero)
    assert d == 0.0
    weights = CostWeights(gamma=0.7)
    tan = run_tangent(fwd, traj, h)
    v = [0.5 * hk for hk in h]
    d = directional_derivative_via_tangent(traj, tan, problem.targets, weights,
                                           v, h)
    assert d == pytest.approx(0.7 * control_inner(v, h, fwd.scheme.dt), rel=1e-12)


# ---------------------------------------------------------------------------
# projection / stationarity

def test_project_box_identity_within_bounds(grid16, rng):
    nt = 3
    bounds = ControlBounds.constant(grid16, nt, -1.0, 1.0)
    v = [random_solenoidal(grid16, 0.01, rng) for _ in range(nt)]
    for vk in v:
        assert np.max(np.abs(vk.ux)) < 1.0  # genuinely interior case
    out = project_box(v, bounds)
    for a, b in zip(v, out):
        np.testing.assert_array_equal(a.ux, b.ux)
        np.testing.assert_array_equal(a.uy, b.uy)


def test_project_box_saturates_large_values(grid16):
    nt = 2
    bounds = ControlBounds.constant(grid16, nt, -1.0, 1.0)
    big = [VectorField(grid16, np.full((17, 16), 1e30), np.full((16, 17), -1e30))
           for _ in range(nt)]
    out = project_box(big, bounds)
    for o in out:
        np.testing.assert_array_equal(o.ux, 1.0)
        np.testing.assert_array_equal(o.uy, -1.0)


def test_project_box_matches_scan_oracle(grid16, rng):
    lo, hi = -0.4, 0.9
    bounds = ControlBounds.constant(grid16, 1, lo, hi)
    w = [VectorField(grid16, 3.0 * rng.standard_normal((17, 16)),
                     3.0 * rng.standard_normal((16, 17)))]
    out = project_box(w, bounds)
    candidates = np.linspace(lo, hi, 4001)
    flat_w = w[0].ux.ravel()[::37]
    flat_o = out[0].ux.ravel()[::37]
    for wv, ov in zip(flat_w, flat_o):
        best = candidates[np.argmin(np.abs(candidates - wv))]
        assert abs(ov - best) <= (hi - lo) / 4000.0 / 2.0 + 1e-15


def test_project_box_idempotent(grid16, rng):
    bounds = ControlBounds.constant(grid16, 2, -0.5, 0.5)
    w = [VectorField(grid16, rng.standard_normal((17, 16)),
                     rng.standard_normal((16, 17))) for _ in range(2)]
    once = project_box(w, bounds)
    twice = project_box(once, bounds)
    for a, b in zip(once, twice):
        np.testing.assert_array_equal(a.ux, b.ux)
        np.testing.assert_array_equal(a.uy, b.uy)


def test_kkt_residual_cases(grid16, rng):
    nt = 2
    dt = 0.1
    bounds = ControlBounds.constant(grid16, nt, -1.0, 1.0)
    v = [random_solenoidal(grid16, 0.01, rng) for _ in range(nt)]  # feasible
    zero_g = zero_control(grid16, nt)
    assert kkt_residual(v, zero_g, bounds, dt) == 0.0
    # at the upper bound with negative gradient: stationary
    v_hi = [VectorField(grid16, np.ones((17, 16)), np.ones((16, 17)))
            for _ in range(nt)]
    g_neg = [VectorField(grid16, -np.ones((17, 16)), -np.ones((16, 17)))
             for _ in range(nt)]
    assert kkt_residual(v_hi, g_neg, bounds, dt) == 0.0
    # random case against the brute-force per-point formula
    g = [VectorField(grid16, rng.standard_normal((17, 16)),
                     rng.standard_normal((16, 17))) for _ in range(nt)]
    expected_sq = 0.0
    vol = grid16.cell_volume
    for k in range(nt):
        for comp, gc, w in (("ux", g[k].ux, None), ("uy", g[k].uy, None)):
            vc = getattr(v[k], comp)
            stepped = np.clip(vc - gc, -1.0, 1.0)
            wgt = np.ones_like(vc)
            if comp == "ux":
                wgt[0, :] = wgt[-1, :] = 0.5
            else:
                wgt[:, 0] = wgt[:, -1] = 0.5
            expected_sq += dt * vol * np.sum(wgt * (vc - stepped) ** 2)
    assert kkt_residual(v, g, bounds, dt) == pytest.approx(
        np.sqrt(expected_sq), rel=1e-12)


def test_complementarity_violation_cases(grid16):
    nt = 1
    bounds = ControlBounds.constant(grid16, nt, -1.0, 1.0)
    v = [VectorField(grid16, np.zeros((17, 16)), np.zeros((16, 17)))]
    g = [VectorField(grid16, np.full((17, 16), 1e-9), np.zeros((16, 17)))]
    assert complementarity_violation(v, g, bounds) == pytest.approx(1e-9)
    v_hi = [VectorField(grid16, np.ones((17, 16)), np.zeros((16, 17)))]
    g_ok = [VectorField(grid16, np.full((17, 16), -3.0), np.zeros((16, 17)))]
    assert complementarity_violation(v_hi, g_ok, bounds) == 0.0


@pytest.mark.parametrize("level", [0.0, -1.0, 1.0])   # interior, at lower, at upper
@pytest.mark.parametrize("component", ["ux", "uy"])
def test_complementarity_violation_keeps_a_nan(grid16, level, component):
    # Python's max(0.0, nan) returns 0.0, which reads as "conditions hold"
    bounds = ControlBounds.constant(grid16, 2, -1.0, 1.0)
    v = [VectorField(grid16, np.full((17, 16), level), np.full((16, 17), level))] * 2
    g = [VectorField.zeros(grid16), VectorField.zeros(grid16)]
    getattr(g[1], component)[5, 6] = np.nan
    assert np.isnan(complementarity_violation(v, g, bounds))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["u_running", "phi_running", "u_terminal",
                                  "phi_terminal"])
def test_problem_names_a_non_finite_target(kind, bad):
    # a NaN target passed the divergence gate and failed later, as a missed
    # Helmholtz residual that blamed the solver
    solver, init = default_setup(n=16, nt=4)
    targets = Targets.resting(solver.grid, 4)
    what = "velocity" if kind.startswith("u") else "phase"
    level = (targets.u_terminal if what == "velocity" else targets.phi_terminal).copy()
    (level.ux if what == "velocity" else level.values)[3, 4] = bad
    if kind.endswith("running"):
        levels = list(getattr(targets, kind))
        levels[2] = level
        level = levels
    setattr(targets, kind, level)
    with pytest.raises(ValueError, match=f"{what} target is not finite"):
        ControlProblem(solver, init, targets, CostWeights(b1=1.0, b2=1.0))


# ---------------------------------------------------------------------------
# projected gradient descent

def test_pgd_self_consistent_target_exits_immediately():
    solver, init, traj, _ = tracking_setup(nt=8)
    targets = Targets.from_trajectory(traj)
    weights = CostWeights(b1=1.0, b2=1.0, gamma=1e-2)
    bounds = ControlBounds.constant(solver.grid, 8, -1.0, 1.0)
    problem = ControlProblem(solver, init, targets, weights, bounds)
    state = projected_gradient_descent(problem, zero_control(solver.grid, 8),
                                       max_iter=20)
    assert state.status == "converged"
    assert state.iterations == 0
    assert state.kkt_history[0] <= 1e-10


def test_pgd_decreases_cost_and_stays_feasible():
    solver, init, traj, _ = tracking_setup(nt=10, n=24)
    grid = solver.grid
    v_true = constant_control(grid, 10, vector_preset(grid, "taylor-vortex(0.02)"))
    traj_true = solver.run(v_true, init)
    targets = Targets.from_trajectory(traj_true)
    weights = CostWeights(b1=1.0, b2=1.0, gamma=1e-3)
    lo, hi = -0.05, 0.05
    bounds = ControlBounds.constant(grid, 10, lo, hi)
    problem = ControlProblem(solver, init, targets, weights, bounds)
    state = projected_gradient_descent(problem, zero_control(grid, 10),
                                       max_iter=15, tol=0.0)
    # monotone descent with the Armijo margin, re-checked from history
    for k in range(len(state.step_norm_history)):
        lhs = state.cost_history[k + 1] if k + 1 < len(state.cost_history) else None
        if lhs is None:
            break
        rhs = state.cost_history[k] \
            - 1e-4 / state.tau_history[k] * state.step_norm_history[k] ** 2
        assert lhs <= rhs + 1e-18
    assert state.cost_history[-1] < state.cost_history[0]
    for vk in state.v:
        assert np.all(vk.ux >= lo) and np.all(vk.ux <= hi)
        assert np.all(vk.uy >= lo) and np.all(vk.uy <= hi)


def test_control_problem_rejects_fields_on_another_grid():
    solver, init = default_setup(n=16, nt=4)
    other = Grid2D(16, 16, 2.0, 1.0)
    weights = CostWeights(b2=1.0, gamma=1e-2)
    bounds = ControlBounds.constant(solver.grid, 4, -1.0, 1.0)
    targets = Targets.resting(solver.grid, 4)
    targets.phi_running = [ScalarField.zeros(other) for _ in range(4)]
    with pytest.raises(ValueError):
        ControlProblem(solver, init, targets, weights, bounds)
    targets = Targets.resting(solver.grid, 4)
    targets.phi_terminal = ScalarField.zeros(other)
    with pytest.raises(ValueError):
        ControlProblem(solver, init, targets, weights, bounds)
    with pytest.raises(ValueError):
        ControlProblem(solver, init, Targets.resting(solver.grid, 4), weights,
                       ControlBounds.constant(other, 4, -1.0, 1.0))


def test_pgd_requires_bounds():
    problem, traj, h = small_problem()
    problem.bounds = None
    with pytest.raises(ValueError):
        projected_gradient_descent(problem, h, max_iter=1)


def test_pgd_rejects_control_of_wrong_length():
    # a longer control must not be cut to the bounds' nt steps
    problem, traj, h = small_problem()
    v0 = zero_control(problem.forward.grid, len(h) + 1)
    with pytest.raises(ValueError):
        projected_gradient_descent(problem, v0, max_iter=1)


# ---------------------------------------------------------------------------
# Taylor verification

def test_taylor_closed_form_quadratic():
    solver, init, traj, targets = tracking_setup(nt=6, n=24)
    weights = CostWeights(gamma=0.5)
    bounds = ControlBounds.constant(solver.grid, 6, -10, 10)
    problem = ControlProblem(solver, init, targets, weights, bounds)
    v = constant_control(solver.grid, 6, vector_preset(solver.grid,
                                                       "taylor-vortex(0.3)"))
    h = constant_control(solver.grid, 6,
                         random_solenoidal(solver.grid, 1.0,
                                           np.random.default_rng(8)))
    dt = solver.scheme.dt
    adj = run_adjoint(solver, solver.run(v, init), targets, weights)
    derivative = control_inner(reduced_gradient(v, adj, 0.5), h, dt)
    report = taylor_test(problem, v, h, derivative=derivative)
    assert report.passed
    assert abs(report.slope - 2.0) < 1e-3
    # R(eps) = gamma eps^2 ||h||^2 / 2 exactly
    expected = 0.5 * 0.5 * control_inner(h, h, dt)
    for eps, r in zip(report.eps, report.remainders):
        assert r == pytest.approx(expected * eps ** 2, rel=1e-6)


def test_taylor_full_cost_small():
    problem, traj, h = small_problem(nt=10)
    v = zero_control(problem.forward.grid, 10)
    report = taylor_test(problem, v, h, eps_sweep=(1e-1, 1e-2, 1e-3))
    assert report.passed, (report.remainders, report.slope)


def test_taylor_detects_corrupted_gradient():
    problem, traj, h = small_problem(nt=10)
    v = zero_control(problem.forward.grid, 10)
    tan = run_tangent(problem.forward, traj, h)
    d = directional_derivative_via_tangent(traj, tan, problem.targets,
                                           problem.weights, v, h)
    report = taylor_test(problem, v, h, eps_sweep=(1e-1, 1e-2, 1e-3),
                         derivative=0.9 * d)
    assert not report.passed
    assert report.slope < 1.5
