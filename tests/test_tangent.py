import numpy as np
import pytest

from nchns import run_tangent, zero_control
from nchns.presets import constant_control, random_solenoidal

from oracles import norm_l2
from test_forward import default_setup, noisy_solves


def state_sup_norm(pairs):
    """sup over time levels of (||u||_L2 + ||phi||_L2)."""
    return max(norm_l2(u) + norm_l2(p) for u, p in pairs)


def _direction(grid, nt, seed=11, amplitude=1.0):
    h = random_solenoidal(grid, amplitude, np.random.default_rng(seed))
    return constant_control(grid, nt, h)


def test_zero_direction_gives_zero_tangent():
    solver, init = default_setup(nt=10)
    traj = solver.run(zero_control(solver.grid, 10), init)
    tan = run_tangent(solver, traj, zero_control(solver.grid, 10))
    for k in range(11):
        assert np.max(np.abs(tan.du[k].ux)) == 0.0
        assert np.max(np.abs(tan.du[k].uy)) == 0.0
        assert np.max(np.abs(tan.dphi[k].values)) == 0.0


def test_tangent_linearity():
    solver, init = default_setup(nt=8)
    traj = solver.run(zero_control(solver.grid, 8), init)
    h = _direction(solver.grid, 8)
    tan1 = run_tangent(solver, traj, h)
    tan2 = run_tangent(solver, traj, [2.0 * hk for hk in h])
    err = state_sup_norm([(tan2.du[k] - 2.0 * tan1.du[k],
                           tan2.dphi[k] - 2.0 * tan1.dphi[k]) for k in range(9)])
    ref = state_sup_norm([(tan1.du[k], tan1.dphi[k]) for k in range(9)])
    assert err <= 1e-12 * max(ref, 1e-12)


def test_tangent_superposition():
    solver, init = default_setup(nt=8)
    traj = solver.run(zero_control(solver.grid, 8), init)
    h1 = _direction(solver.grid, 8, seed=5)
    h2 = _direction(solver.grid, 8, seed=6)
    t1 = run_tangent(solver, traj, h1)
    t2 = run_tangent(solver, traj, h2)
    t12 = run_tangent(solver, traj, [a + b for a, b in zip(h1, h2)])
    err = state_sup_norm([(t12.du[k] - t1.du[k] - t2.du[k],
                           t12.dphi[k] - t1.dphi[k] - t2.dphi[k])
                          for k in range(9)])
    ref = state_sup_norm([(t12.du[k], t12.dphi[k]) for k in range(9)]) + 1e-30
    assert err <= 1e-11 * ref


def test_tangent_is_derivative_of_forward_map():
    # quadratic remainder of the full discrete solution map
    solver, init = default_setup(n=24, nt=25, dt=5e-5)
    nt = 25
    v0 = zero_control(solver.grid, nt)
    base = solver.run(v0, init)
    h = _direction(solver.grid, nt, amplitude=5.0)
    tan = run_tangent(solver, base, h)

    eps_sweep = (1e-1, 1e-2, 1e-3, 1e-4)
    remainders = []
    for eps in eps_sweep:
        pushed = solver.run([eps * hk for hk in h], init)
        rem = state_sup_norm([
            (pushed.u[k] - base.u[k] - eps * tan.du[k],
             pushed.phi[k] - base.phi[k] - eps * tan.dphi[k])
            for k in range(nt + 1)])
        remainders.append(rem)
    slopes = [np.log(remainders[i] / remainders[i + 1]) for i in range(3)]
    slopes = [s / np.log(10.0) for s in slopes]
    # linear part must be exactly captured: every decade gains ~2
    for s in slopes[:2]:
        assert 1.8 <= s <= 2.2, (remainders, slopes)


def test_tangent_requires_matching_lengths():
    solver, init = default_setup(nt=6)
    traj = solver.run(zero_control(solver.grid, 6), init)
    with pytest.raises(ValueError):
        run_tangent(solver, traj, zero_control(solver.grid, 5))


def test_tangent_conserves_phase_mass(monkeypatch):
    solver, init = default_setup(nt=8)
    traj = solver.run(zero_control(solver.grid, 8), init)
    noisy_solves(solver, monkeypatch)
    tan = run_tangent(solver, traj, _direction(solver.grid, 8, amplitude=5.0))
    assert np.max(np.abs(tan.dphi[-1].values)) > 0.0
    for dphi in tan.dphi:
        assert abs(np.sum(dphi.values)) <= 1e-12 * np.sum(np.abs(dphi.values))
