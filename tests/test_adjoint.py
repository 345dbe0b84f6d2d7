import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nchns

from nchns import (CFLViolationError, CostWeights, DoubleWell,
                   ForwardSolver, Grid2D, InitialData, ScalarField,
                   StepFailureError, Targets, TimeScheme, VectorField,
                   Viscosity, control_inner, directional_derivative_via_tangent,
                   divergence_face_to_cc, make_kernel, norm_l2,
                   reduced_gradient, run_adjoint, run_tangent, zero_control)
from nchns.adjoint import AdjointSolver
from nchns.grid import (gradient_cc_to_face, laplacian_neumann_array,
                        node_shear_rates)
from nchns.kernels import grad_dot_convolve
from nchns.physics import chemical_potential
from nchns.presets import (constant_control, random_solenoidal, scalar_preset,
                           vector_preset)

from conftest import SOLVER_PATHS, force_solver_path
from test_forward import default_setup


def tracking_setup(nt=30, n=32, dt=7e-5):
    solver, _ = default_setup(n=n, nt=nt, dt=dt)
    grid = solver.grid
    phi0 = scalar_preset(grid, "bubble(0.3, 0.5, 0.5, 0.08)")
    u0 = vector_preset(grid, "taylor-vortex(0.05)")
    init = InitialData(u0, phi0)
    traj = solver.run(zero_control(grid, nt), init)
    targets = Targets.resting(grid, nt)
    return solver, init, traj, targets


def test_zero_weights_give_zero_adjoint():
    solver, init, traj, targets = tracking_setup(nt=10)
    weights = CostWeights(gamma=1.0)
    adj = run_adjoint(solver, traj, targets, weights)
    for k in range(11):
        assert np.max(np.abs(adj.au[k].ux)) == 0.0
        assert np.max(np.abs(adj.au[k].uy)) == 0.0
        assert np.max(np.abs(adj.aphi[k].values)) == 0.0


def test_matched_targets_give_zero_adjoint():
    # running targets equal the trajectory: all sources vanish identically
    solver, init, traj, _ = tracking_setup(nt=10)
    targets = Targets.from_trajectory(traj)
    weights = CostWeights(b1=1.0, b2=1.0, gamma=0.0)
    adj = run_adjoint(solver, traj, targets, weights)
    for k in range(11):
        assert np.max(np.abs(adj.au[k].ux)) == 0.0
        assert np.max(np.abs(adj.aphi[k].values)) == 0.0


def test_terminal_conditions_and_divergence():
    solver, init, traj, targets = tracking_setup(nt=10)
    weights = CostWeights(b3=2.0, b4=3.0)
    adj = run_adjoint(solver, traj, targets, weights)
    # terminal phase seed is exactly b4 * (phi(T) - target)
    expected = 3.0 * (traj.phi[-1].values - targets.phi_terminal.values)
    np.testing.assert_allclose(adj.aphi[-1].values, expected, atol=1e-14)
    # terminal velocity seed is the divergence-free realization of the residual
    seed = 2.0 * (traj.u[-1] - targets.u_terminal)
    diff = adj.au[-1] - seed
    assert norm_l2(diff) <= 1e-6 * max(norm_l2(seed), 1e-30)
    for k in range(11):
        div = np.max(np.abs(divergence_face_to_cc(adj.au[k]).values))
        assert div <= solver.scheme.tol_p
        assert adj.au[k].ux[0, :].max() == 0.0
        assert adj.au[k].uy[:, 0].max() == 0.0


def test_adjoint_linear_in_target_residuals():
    solver, init, traj, targets = tracking_setup(nt=12)
    weights = CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0)
    adj1 = run_adjoint(solver, traj, targets, weights)
    # doubled residuals: targets2 = 2*targets - trajectory
    targets2 = Targets(
        [2.0 * t - u for t, u in zip(targets.u_running, traj.u)],
        [ScalarField(solver.grid, 2.0 * t.values - p.values)
         for t, p in zip(targets.phi_running, traj.phi)],
        2.0 * targets.u_terminal - traj.u[-1],
        ScalarField(solver.grid, 2.0 * targets.phi_terminal.values
                    - traj.phi[-1].values))
    adj2 = run_adjoint(solver, traj, targets2, weights)
    num = max(norm_l2(adj2.au[k] - 2.0 * adj1.au[k])
              + norm_l2(adj2.aphi[k] - 2.0 * adj1.aphi[k]) for k in range(13))
    den = max(norm_l2(adj1.au[k]) + norm_l2(adj1.aphi[k]) for k in range(13))
    assert num <= 1e-11 * den


def test_duality_gap_against_tangent(monkeypatch):
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        solver, init, traj, targets = tracking_setup(nt=40)
        weights = CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0, gamma=0.0)
        v = zero_control(solver.grid, 40)
        h = constant_control(solver.grid, 40,
                             random_solenoidal(solver.grid, 1.0,
                                               np.random.default_rng(42)))
        tan = run_tangent(solver, traj, h)
        d_tan = directional_derivative_via_tangent(traj, tan, targets, weights, v, h)
        adj = run_adjoint(solver, traj, targets, weights)
        d_adj = control_inner(reduced_gradient(v, adj, 0.0), h, solver.scheme.dt)
        gap = abs(d_tan - d_adj) / max(abs(d_tan), abs(d_adj))
        assert gap <= 2e-2  # continuous-adjoint route: small but not machine zero
        assert gap > 0.0


def test_adjoint_phase_step_is_consistent():
    # at rest on a uniform phase only the nonlocal term and the diffusion
    # c~ Lap q, c~ = a + F''(phi), act; the split step must match an explicit
    # step with the variable c~ to O(dt^2), not only with its constant part
    solver, _ = default_setup(n=32, nt=1, dt=1e-5)
    grid, dt = solver.grid, solver.scheme.dt
    phi = ScalarField.full(grid, 0.2)
    mu = chemical_potential(phi, solver.kernel, solver.potential)
    X, Y = grid.cell_centers()
    aphi_next = ScalarField(grid, np.cos(np.pi * X) * np.cos(2 * np.pi * Y))
    zero = VectorField.zeros(grid)
    _, aphi, _ = AdjointSolver(solver).step_back(
        zero, phi, mu, zero, node_shear_rates(zero), aphi_next, None, None)
    c_tilde = solver.kernel.mass_field.values + solver.potential.d2f(phi.values)
    rate = (c_tilde * laplacian_neumann_array(aphi_next.values, grid)
            + grad_dot_convolve(solver.kernel, gradient_cc_to_face(aphi_next)).values)
    defect = (aphi.values - aphi_next.values) / dt - rate
    assert np.max(np.abs(defect)) <= 1e-2 * np.max(np.abs(rate))


def test_adjoint_requires_matching_trajectory():
    solver, init, traj, targets = tracking_setup(nt=8)
    bad = Targets.resting(solver.grid, 7)
    with pytest.raises(ValueError):
        run_adjoint(solver, traj, bad, CostWeights(b1=1.0))


def test_coercivity_loss_names_the_step():
    # an unscaled kernel leaves a + F''(phi) <= 0 on the bubble's interior
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "gaussian", width=0.15, amplitude=0.1)
    nt = 3
    solver = ForwardSolver(grid, kern, DoubleWell(), Viscosity(),
                           TimeScheme(dt=5e-5, nt=nt))
    init = InitialData(vector_preset(grid, "taylor-vortex(0.05)"),
                       scalar_preset(grid, "bubble(0.3, 0.5, 0.5, 0.08)"))
    traj = solver.run(zero_control(grid, nt), init)
    with pytest.raises(StepFailureError) as err:
        run_adjoint(solver, traj, Targets.resting(grid, nt), CostWeights(b1=1.0))
    assert err.value.step == nt - 1
    assert "coercivity" in str(err.value)


def test_adjoint_cfl_violation_names_the_step():
    solver, init, traj, targets = tracking_setup(nt=6)
    traj.u[4] = 1e4 * traj.u[4]
    with pytest.raises(StepFailureError) as err:
        run_adjoint(solver, traj, targets, CostWeights(b1=1.0))
    assert err.value.step == 4
    assert isinstance(err.value.__cause__, CFLViolationError)


def test_adjoint_names_a_non_finite_state_velocity():
    # a NaN face in u_2 used to pass the CFL check and surface as a failed
    # projection; the check now names the velocity at the step that reads it
    solver, init, traj, targets = tracking_setup(nt=6)
    bad = traj.u[2].copy()
    bad.uy[10, 10] = np.nan
    traj.u[2] = bad
    with pytest.raises(StepFailureError, match=r"velocity max\|u\| = nan") as err:
        run_adjoint(solver, traj, targets, CostWeights(b1=1.0))
    assert err.value.step == 2
    assert isinstance(err.value.__cause__, CFLViolationError)


def test_adjoint_hands_down_the_shear_rates_of_each_level(monkeypatch):
    # every step reads the rates of its au_next from the step above instead
    # of differencing au_next again; they must be the rates of that level
    solver, init, traj, targets = tracking_setup(nt=8)
    calls = []
    step_back = AdjointSolver.step_back

    def recording(self, state_u, state_phi, state_mu, au_next, au_next_rates,
                  *args):
        out = step_back(self, state_u, state_phi, state_mu, au_next,
                        au_next_rates, *args)
        calls.append((au_next, au_next_rates, out[0], out[2]))
        return out

    monkeypatch.setattr(AdjointSolver, "step_back", recording)
    adj = run_adjoint(solver, traj, targets,
                      CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0))
    assert len(calls) == 8
    for n, (au_next, handed, au, returned) in zip(range(7, -1, -1), calls):
        assert au_next is adj.au[n + 1] and au is adj.au[n]
        for got, fresh in zip(handed, node_shear_rates(adj.au[n + 1]), strict=True):
            assert np.array_equal(got, fresh)
        for got, fresh in zip(returned, node_shear_rates(adj.au[n]), strict=True):
            assert np.array_equal(got, fresh)
    assert np.max(np.abs(adj.au[0].ux)) > 0.0


def test_sweeps_retain_no_arrays():
    # a second forward, adjoint and tangent run must leave nothing allocated
    # by the package once its results are dropped: the tables the first run
    # needs are built by then, and a 32x32 array left on a solver is 8 kB
    solver, init = default_setup(nt=4)
    grid = solver.grid
    v = zero_control(grid, 4)
    h = constant_control(grid, 4, random_solenoidal(grid, 1.0, np.random.default_rng(1)))
    targets = Targets.resting(grid, 4)
    weights = CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0)

    def sweeps():
        traj = solver.run(v, init)
        return traj, run_adjoint(solver, traj, targets, weights), \
            run_tangent(solver, traj, h)

    sweeps()
    tracemalloc.start(25)
    try:
        out = sweeps()
        del out
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    package = str(Path(nchns.__file__).resolve().parent / "*")
    own = snapshot.filter_traces([tracemalloc.Filter(True, package)])
    assert sum(stat.size for stat in own.statistics("filename")) < 1024
    # arrays that numpy and scipy allocate for the package's calls, found
    # through any frame; their own caches keep blocks of a few dozen bytes
    called = snapshot.filter_traces([tracemalloc.Filter(True, package, all_frames=True)])
    assert max((trace.size for trace in called.traces), default=0) < 1024
