"""Self-test of the benchmark tracer on a tiny problem (16x16, nt = 5).

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import nchns  # noqa: E402
from nchns.presets import scalar_preset, vector_preset  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import build_solver  # noqa: E402

NT = 5


@pytest.fixture
def tiny():
    solver = build_solver(16, 5e-5, NT)
    grid = solver.grid
    init = nchns.InitialData(vector_preset(grid, "taylor-vortex(0.05)"),
                             scalar_preset(grid, "random(0.05, 3)"))
    return solver, init, nchns.zero_control(grid, NT)


def traced(fn):
    """Run ``fn()`` under a tracer; ``fn`` must look its callees up when called."""
    tracer = Tracer()
    tracer.wrap()
    try:
        out = fn()
    finally:
        tracer.unwrap()
    return out, tracer.summary()


def test_forward_run_counts(tiny):
    solver, init, v = tiny
    _, stats = traced(lambda: solver.run(v, init))
    assert stats["forward.run"]["calls"] == 1
    assert stats["kernels.convolve"]["calls"] == 2 * NT + 1
    assert stats["linsolve.helmholtz"]["calls"] == NT
    assert stats["linsolve.poisson"]["calls"] == NT
    assert stats["linsolve.poisson"]["iters"] == NT     # exact DCT preconditioner
    assert stats["linsolve.helmholtz"]["iters"] >= NT
    for st in stats.values():
        assert 0.0 <= st["self_s"] <= st["s"] + 1e-12


def test_adjoint_run_counts(tiny):
    solver, init, v = tiny
    traj = solver.run(v, init)
    targets = nchns.Targets.resting(solver.grid, NT)
    weights = nchns.CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0)
    _, stats = traced(lambda: nchns.run_adjoint(solver, traj, targets, weights))
    assert stats["adjoint.run_adjoint"]["calls"] == 1
    assert stats["adjoint.run"]["calls"] == 1
    assert stats["adjoint.step_back"]["calls"] == NT
    assert stats["linsolve.helmholtz_setup"]["calls"] == NT
    assert stats["kernels.grad_dot_convolve"]["calls"] == NT


def test_tracing_leaves_results_unchanged(tiny):
    solver, init, v = tiny
    plain = solver.run(v, init)
    traj, stats = traced(lambda: solver.run(v, init))
    assert stats["forward.run"]["calls"] == 1
    for k in range(NT + 1):
        assert np.array_equal(plain.phi[k].values, traj.phi[k].values)
        assert np.array_equal(plain.u[k].ux, traj.u[k].ux)


def snapshot():
    spaces = [m for key, m in sys.modules.items()
              if key == "nchns" or key.startswith("nchns.")]
    spaces += [obj for m in spaces for obj in vars(m).values()
               if isinstance(obj, type) and obj.__module__.startswith("nchns.")]
    return {(id(s), attr): obj for s in spaces for attr, obj in vars(s).items()}


def test_every_binding_wrapped_then_restored():
    import nchns.config  # noqa: F401  (a namespace outside the layers)
    before = snapshot()
    tracer = Tracer()
    tracer.wrap()
    try:
        wrapped = nchns.kernels.convolve
        assert wrapped is not before[(id(nchns.kernels), "convolve")]
        for ns in (nchns, nchns.forward, nchns.tangent, nchns.adjoint,
                   nchns.physics):
            assert ns.convolve is wrapped
        for ns in (nchns.forward, nchns.tangent, nchns.linsolve):
            assert ns.laplacian_neumann_array is nchns.grid.laplacian_neumann_array
        assert "linsolve.helmholtz_setup" in tracer.span_names
        assert {name.split(".")[0] for name in tracer.span_names} == set(LAYERS)
        patches = tracer.patches
    finally:
        tracer.unwrap()
    assert patches
    for target, attr, original in patches:
        assert vars(target)[attr] is original
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
