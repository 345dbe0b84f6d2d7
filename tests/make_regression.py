"""Record the results of reduced copies of the three benchmark workloads.

``tests/test_regression.py`` recomputes these records and compares them
with ``tests/regression.json`` at 1e-12 relative.  A change that is meant
to move these numbers regenerates the file, from the repository root:

    PYTHONPATH=src python tests/make_regression.py

The three problems shrink the benchmark's workloads so that all three run
in a fraction of a second:

* ``forward``: two steps at 128x128, so the Neumann solvers take their
  transform path;
* ``gradient``: forward, tangent and adjoint runs on a 24x40 grid with
  lx = 2, where the two spacings differ;
* ``optimize``: the first three iterations of projected gradient descent
  at 32x32.

Each record is a list of floats: the L2 norm of a field at every time level,
or a scalar result in a one-entry list.  Norms rather than whole arrays keep
the file small, and a relative tolerance rather than a hash lets BLAS builds
differ in the last bit.
"""

import json
from pathlib import Path

import numpy as np

import nchns
from nchns.presets import (constant_control, random_solenoidal, scalar_preset,
                           vector_preset)

from oracles import norm_l2

DATA = Path(__file__).resolve().parent / "regression.json"


def _solver(grid, dt, nt, width=0.15):
    potential = nchns.DoubleWell()
    kernel = nchns.make_kernel(grid, "gaussian", width=width,
                               auto_scale_target=potential.scale
                               + nchns.HypothesisConstants().c1)
    return nchns.ForwardSolver(grid, kernel, potential, nchns.Viscosity(),
                               nchns.TimeScheme(dt=dt, nt=nt))


def _state_norms(traj):
    return {"u": [norm_l2(u) for u in traj.u], "phi": [norm_l2(p) for p in traj.phi],
            "mu": [norm_l2(m) for m in traj.mu]}


def forward_case():
    solver = _solver(nchns.Grid2D(128, 128), 4.5e-6, 2)
    grid = solver.grid
    init = nchns.InitialData(vector_preset(grid, "taylor-vortex(0.05)"),
                             scalar_preset(grid, "random(0.05, 1)"))
    return _state_norms(solver.run(nchns.zero_control(grid, 2), init))


def gradient_case():
    nt = 6
    solver = _solver(nchns.Grid2D(24, 40, 2.0, 1.0), 1.8e-5, nt, width=0.2)
    grid = solver.grid
    init = nchns.InitialData(vector_preset(grid, "taylor-vortex(0.05)"),
                             scalar_preset(grid, "random(0.05, 1)"))
    v = constant_control(grid, nt, vector_preset(grid, "taylor-vortex(0.02)"))
    h = constant_control(grid, nt, random_solenoidal(grid, 1.0,
                                                     np.random.default_rng(1)))
    targets = nchns.Targets.resting(grid, nt)
    weights = nchns.CostWeights(b1=1.0, b2=1.0, b3=1.0, b4=1.0, gamma=1e-2)
    traj = solver.run(v, init)
    tan = nchns.run_tangent(solver, traj, h)
    adj = nchns.run_adjoint(solver, traj, targets, weights)
    g = nchns.reduced_gradient(v, adj, weights.gamma)
    return {**_state_norms(traj),
            "du": [norm_l2(d) for d in tan.du], "dphi": [norm_l2(d) for d in tan.dphi],
            "au": [norm_l2(a) for a in adj.au], "aphi": [norm_l2(a) for a in adj.aphi],
            "J": [nchns.evaluate_cost(traj, v, targets, weights)],
            "tangent_derivative": [nchns.directional_derivative_via_tangent(
                traj, tan, targets, weights, v, h)],
            "adjoint_pairing": [nchns.control_inner(g, h, solver.scheme.dt)]}


def optimize_case():
    nt = 8
    solver = _solver(nchns.Grid2D(32, 32), 7e-5, nt)
    grid = solver.grid
    init = nchns.InitialData(vector_preset(grid, "taylor-vortex(0.05)"),
                             scalar_preset(grid, "bubble(0.3, 0.5, 0.5, 0.08)"))
    v_true = constant_control(grid, nt, vector_preset(grid, "taylor-vortex(0.02)"))
    problem = nchns.ControlProblem(
        solver, init, nchns.Targets.from_trajectory(solver.run(v_true, init)),
        nchns.CostWeights(b1=1.0, b2=1.0, gamma=1e-8),
        nchns.ControlBounds.constant(grid, nt, -0.05, 0.05))
    state = nchns.projected_gradient_descent(
        problem, nchns.zero_control(grid, nt), max_iter=3, tol=0.0)
    return {"cost": state.cost_history, "kkt": state.kkt_history}


CASES = {"forward": forward_case, "gradient": gradient_case,
         "optimize": optimize_case}


def main():
    records = {name: case() for name, case in CASES.items()}
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {DATA}")


if __name__ == "__main__":
    main()
