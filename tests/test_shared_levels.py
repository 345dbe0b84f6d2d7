"""Time-constant controls, bounds and targets: one shared, read-only level.

``zero_control``, ``constant_control``, ``Targets.resting`` and
``ControlBounds.constant`` return nt references to one level rather than nt
copies.  These tests pin that sharing, its memory, the read-only guard, the
checks that visit a shared level once, and that every sweep gives the same
numbers on shared levels as on distinct copies.
"""

import tracemalloc

import numpy as np
import pytest

import nchns
from nchns import (ControlBounds, CostWeights, Grid2D, Targets, VectorField,
                   project_box, run_adjoint, run_tangent, zero_control)
from nchns.presets import constant_control, random_solenoidal, vector_preset

from conftest import SOLVER_PATHS, force_solver_path
from test_forward import default_setup


def shared_lists(grid, nt):
    """Every list the four constructors return, named."""
    field = vector_preset(grid, "taylor-vortex(0.02)")
    targets = Targets.resting(grid, nt, phi_value=0.3)
    bounds = ControlBounds.constant(grid, nt, -1.0, 1.0)
    return {"zero_control": zero_control(grid, nt),
            "constant_control": constant_control(grid, nt, field),
            "u_running": targets.u_running, "phi_running": targets.phi_running,
            "lower": bounds.lower, "upper": bounds.upper}


def arrays(level):
    return (level.ux, level.uy) if isinstance(level, VectorField) else (level.values,)


@pytest.mark.parametrize("name", ["zero_control", "constant_control", "u_running",
                                  "phi_running", "lower", "upper"])
def test_constructors_return_one_read_only_level(grid16, name):
    levels = shared_lists(grid16, 7)[name]
    assert len(levels) == 7
    assert all(level is levels[0] for level in levels)
    for a in arrays(levels[0]):
        before = a.copy()
        with pytest.raises(ValueError):
            a[1, 1] = 5.0
        with pytest.raises(ValueError):
            a += 1.0
        assert np.array_equal(a, before)
    # a list of copies is the way to edit one step
    copies = [level.copy() for level in levels]
    arrays(copies[3])[0][1, 1] = 5.0
    assert arrays(copies[2])[0][1, 1] != 5.0


def test_resting_terminal_is_the_running_level(grid16):
    targets = Targets.resting(grid16, 5, phi_value=-0.2)
    assert targets.u_terminal is targets.u_running[0]
    assert targets.phi_terminal is targets.phi_running[0]
    assert np.all(targets.phi_terminal.values == -0.2)


def test_constant_control_copies_the_field_once(grid16):
    field = vector_preset(grid16, "taylor-vortex(0.02)")
    v = constant_control(grid16, 4, field)
    assert all(vk is v[0] for vk in v) and v[0] is not field
    assert np.array_equal(v[0].ux, field.ux) and np.array_equal(v[0].uy, field.uy)
    field.ux[1, 1] += 1.0          # the caller's field stays writable and apart
    assert v[0].ux[1, 1] != field.ux[1, 1]


def test_constructors_allocate_one_level_not_nt():
    grid, nt = Grid2D(32, 32), 500
    level_bytes = VectorField.zeros(grid).ux.nbytes * 2
    field = vector_preset(grid, "taylor-vortex(0.02)")
    builds = {"zero_control": lambda: zero_control(grid, nt),
              "constant_control": lambda: constant_control(grid, nt, field),
              "Targets.resting": lambda: Targets.resting(grid, nt),
              "ControlBounds.constant": lambda: ControlBounds.constant(grid, nt, -1.0, 1.0)}
    tracemalloc.start()
    try:
        peaks = {}
        for name, build in builds.items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = build()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
            del out
    finally:
        tracemalloc.stop()
    for name, peak in peaks.items():
        assert peak < 4 * level_bytes, (name, peak, level_bytes)


def test_target_validation_visits_a_shared_level_once(monkeypatch, grid16):
    calls = []
    real = nchns.problem.divergence_face_to_cc
    monkeypatch.setattr(nchns.problem, "divergence_face_to_cc",
                        lambda w: calls.append(w) or real(w))
    shared = Targets.resting(grid16, 25)
    shared.validate(grid16, 25, 1e-10)
    assert len(calls) == 1
    calls.clear()
    copies = Targets([u.copy() for u in shared.u_running],
                     [p.copy() for p in shared.phi_running],
                     shared.u_terminal.copy(), shared.phi_terminal.copy())
    copies.validate(grid16, 25, 1e-10)
    assert len(calls) == 26


def test_validation_still_checks_a_shared_level(grid16):
    bad = VectorField.zeros(grid16)
    bad.ux[5, 5] = 1.0             # interior divergence
    targets = Targets.resting(grid16, 6)
    targets.u_running = [bad] * 6
    with pytest.raises(ValueError, match="velocity target divergence"):
        targets.validate(grid16, 6, 1e-10)
    bounds = ControlBounds.constant(grid16, 6, -1.0, 1.0)
    flipped = bounds.lower[0].copy()
    flipped.uy[2, 2] = 2.0
    bounds.lower = [flipped] * 6
    with pytest.raises(ValueError, match="exceeds upper bound"):
        bounds.validate(grid16)


@pytest.mark.parametrize("lo, hi, name", [(np.nan, 1.0, "lower"),
                                          (-1.0, np.nan, "upper"),
                                          (np.nan, np.nan, "lower")])
def test_constant_bounds_reject_nan(grid16, lo, hi, name):
    with pytest.raises(ValueError, match=f"{name} bound is NaN"):
        ControlBounds.constant(grid16, 3, lo, hi)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_per_step_bounds_reject_nan_in_one_face(grid16, side):
    bounds = ControlBounds.constant(grid16, 4, -1.0, 1.0)
    levels = [b.copy() for b in getattr(bounds, side)]
    levels[2].uy[3, 4] = np.nan
    setattr(bounds, side, levels)
    with pytest.raises(ValueError, match=f"{side} bound is NaN"):
        bounds.validate(grid16)


def test_infinite_bounds_stay_legal(grid16, rng):
    bounds = ControlBounds.constant(grid16, 3, -np.inf, np.inf)
    bounds.validate(grid16)
    w = [VectorField(grid16, rng.standard_normal((17, 16)),
                     rng.standard_normal((16, 17))) for _ in range(3)]
    for wk, pk in zip(w, project_box(w, bounds)):
        assert np.array_equal(wk.ux, pk.ux) and np.array_equal(wk.uy, pk.uy)
    ControlBounds.constant(grid16, 3, -np.inf, 0.5).validate(grid16)


def assert_levels_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert all(np.array_equal(p, q) for p, q in zip(arrays(x), arrays(y)))


def test_shared_and_copied_levels_give_identical_sweeps(monkeypatch):
    nt = 6
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        solver, init = default_setup(n=16, nt=nt)
        grid = solver.grid
        weights = CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0, gamma=1e-2)
        v = constant_control(grid, nt, vector_preset(grid, "taylor-vortex(0.02)"))
        h = constant_control(grid, nt, random_solenoidal(grid, 1.0,
                                                         np.random.default_rng(5)))
        targets = Targets.resting(grid, nt, phi_value=0.1)
        v_copies = [vk.copy() for vk in v]
        h_copies = [hk.copy() for hk in h]
        copied = Targets([u.copy() for u in targets.u_running],
                         [p.copy() for p in targets.phi_running],
                         targets.u_terminal.copy(), targets.phi_terminal.copy())

        traj = solver.run(v, init)
        traj_c = solver.run(v_copies, init)
        for name in ("u", "phi", "mu"):
            assert_levels_equal(getattr(traj, name), getattr(traj_c, name))
        tan = run_tangent(solver, traj, h)
        tan_c = run_tangent(solver, traj_c, h_copies)
        assert_levels_equal(tan.du, tan_c.du)
        assert_levels_equal(tan.dphi, tan_c.dphi)
        adj = run_adjoint(solver, traj, targets, weights)
        adj_c = run_adjoint(solver, traj_c, copied, weights)
        assert_levels_equal(adj.au, adj_c.au)
        assert_levels_equal(adj.aphi, adj_c.aphi)
