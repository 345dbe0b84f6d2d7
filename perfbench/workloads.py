"""The three benchmark workloads: inputs from a seed, the timed task, gates.

Each workload has

* ``setup(seed)``: builds the grid, kernel table, ``ForwardSolver``,
  initial data and targets (and whatever else the task reads), the part
  that ``setup_s`` times;
* ``task(case, times)``: the timed operations, calling the public ``nchns``
  API through the package namespace so that a wrapped tracer sees them;
  ``timed(times, stage)`` adds each stage's wall time to ``times``;
* ``check(case, out)``: the correctness gates, run outside the timed
  region, returning the failed operations and the quality figures.

An operation is one forward, tangent or adjoint run or one optimizer solve.
The tolerances are those of the package's test suite.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import nchns
from nchns.presets import (constant_control, random_solenoidal, scalar_preset,
                           vector_preset)

# Library defaults for the physics; the kernel is scaled so that
# a + F'' >= c1 holds, as in the tests.
KERNEL_WIDTH = 0.15
U0 = "taylor-vortex(0.05)"

# nt and the iteration cap keep each task under about two seconds, so that a
# run holds many tasks with reference bursts between them (see reference.py)
FORWARD_N, FORWARD_DT, FORWARD_NT = 128, 4.5e-6, 20
GRADIENT_N, GRADIENT_DT, GRADIENT_NT = 64, 1.8e-5, 25
OPTIMIZE_N, OPTIMIZE_DT, OPTIMIZE_NT = 32, 7e-5, 40
OPTIMIZE_MAX_ITER = 3           # the benchmark's iteration cap
OPTIMIZE_KKT_REDUCTION = 1e-6   # stop at KKT <= 1e-6 * KKT0
OPTIMIZE_BOX = 0.05
GRAD_GAP_GATE = 2e-2            # tests/test_adjoint.py duality-gap tolerance

STAGE_ERRORS = (nchns.StepFailureError, nchns.CFLViolationError,
                nchns.linsolve.SolverConvergenceError)


def build_solver(n, dt, nt):
    grid = nchns.Grid2D(n, n, 1.0, 1.0)
    potential = nchns.DoubleWell()
    constants = nchns.HypothesisConstants()
    kernel = nchns.make_kernel(grid, "gaussian", width=KERNEL_WIDTH,
                               auto_scale_target=potential.scale + constants.c1)
    return nchns.ForwardSolver(grid, kernel, potential, nchns.Viscosity(),
                               nchns.TimeScheme(dt=dt, nt=nt))


@dataclass
class Case:
    """Everything a workload's task and gates read."""

    solver: object
    init: object
    v: list
    targets: object = None
    weights: object = None
    h: list = None
    problem: object = None
    kkt0: float = None
    cost0: float = None


# ---------------------------------------------------------------------------
# gates

def velocity_failures(us, tol_p, what):
    """max|div| <= tol_p at every level and zero no-slip normal faces."""
    out = []
    for k, u in enumerate(us):
        div = float(np.max(np.abs(nchns.divergence_face_to_cc(u).values)))
        if div > tol_p:
            out.append(f"{what}: max|div| {div:.3e} > {tol_p:.1e} at level {k}")
        if (np.any(u.ux[0, :] != 0.0) or np.any(u.ux[-1, :] != 0.0)
                or np.any(u.uy[:, 0] != 0.0) or np.any(u.uy[:, -1] != 0.0)):
            out.append(f"{what}: nonzero no-slip normal face at level {k}")
    return out


def state_failures(solver, traj, energy=False):
    """Mass, divergence and no-slip gates; energy decay when asked."""
    out = []
    m0 = nchns.integral(traj.phi[0])
    for k, phi in enumerate(traj.phi):
        drift = abs(nchns.integral(phi) - m0)
        if drift > 1e-10 * abs(m0) + 1e-12:
            out.append(f"forward: mass drift {drift:.3e} at level {k}")
    out += velocity_failures(traj.u, solver.scheme.tol_p, "forward")
    if energy:
        e_prev = e0 = sum(nchns.total_energy(traj.u[0], traj.phi[0], solver.kernel,
                                             solver.potential))
        slack = 10.0 * solver.scheme.dt * e0
        for k in range(1, traj.nt + 1):
            e = sum(nchns.total_energy(traj.u[k], traj.phi[k], solver.kernel,
                                       solver.potential))
            if e > e_prev + slack:
                out.append(f"forward: energy rises {e - e_prev:.3e} at level {k}")
            e_prev = e
    return out


# ---------------------------------------------------------------------------
# forward-128: one long forward run in the array-bound regime

def forward_setup(seed):
    solver = build_solver(FORWARD_N, FORWARD_DT, FORWARD_NT)
    grid = solver.grid
    init = nchns.InitialData(vector_preset(grid, U0),
                             scalar_preset(grid, f"random(0.05, {seed})"))
    return Case(solver, init, nchns.zero_control(grid, FORWARD_NT))


def forward_task(case, times):
    with timed(times, "forward_s"):
        traj = case.solver.run(case.v, case.init)
    return {"traj": traj}


def forward_check(case, out):
    failures = state_failures(case.solver, out["traj"], energy=True)
    return {"forward": failures}, {}


# ---------------------------------------------------------------------------
# gradient-64: forward, adjoint and tangent on one trajectory

GRADIENT_WEIGHTS = dict(b1=1.0, b2=1.0, b3=1.0, b4=1.0, gamma=1e-2)


def gradient_setup(seed):
    solver = build_solver(GRADIENT_N, GRADIENT_DT, GRADIENT_NT)
    grid = solver.grid
    # phi0 is fixed so the forward and adjoint solves, CG iterations
    # included, are the same on every seed; the seed draws the direction.
    init = nchns.InitialData(vector_preset(grid, U0),
                             scalar_preset(grid, "random(0.05, 1)"))
    v = constant_control(grid, GRADIENT_NT, vector_preset(grid, "taylor-vortex(0.02)"))
    h = constant_control(grid, GRADIENT_NT,
                         random_solenoidal(grid, 1.0, np.random.default_rng(seed)))
    return Case(solver, init, v, targets=nchns.Targets.resting(grid, GRADIENT_NT),
                weights=nchns.CostWeights(**GRADIENT_WEIGHTS), h=h)


def gradient_task(case, times):
    out = {}
    with timed(times, "forward_s"):
        out["traj"] = case.solver.run(case.v, case.init)
    with timed(times, "adjoint_s"):
        out["adj"] = nchns.run_adjoint(case.solver, out["traj"], case.targets,
                                       case.weights)
    with timed(times, "tangent_s"):
        out["tan"] = nchns.run_tangent(case.solver, out["traj"], case.h)
    return out


def grad_gap(case, traj, adj, tan):
    """|<g, h>_L2(Q) - dJ(v)h| / |dJ(v)h| with dJ(v)h from the tangent."""
    dt = case.solver.scheme.dt
    g = nchns.reduced_gradient(case.v, adj, case.weights.gamma)
    d_adj = nchns.control_inner(g, case.h, dt)
    d_tan = nchns.directional_derivative_via_tangent(traj, tan, case.targets,
                                                     case.weights, case.v, case.h)
    return abs(d_adj - d_tan) / abs(d_tan)


def gradient_check(case, out):
    tol_p = case.solver.scheme.tol_p
    failures = {"forward": state_failures(case.solver, out["traj"]),
                "adjoint": velocity_failures(out["adj"].au, tol_p, "adjoint"),
                "tangent": velocity_failures(out["tan"].du, tol_p, "tangent")}
    gap = grad_gap(case, out["traj"], out["adj"], out["tan"])
    if not gap <= GRAD_GAP_GATE:
        failures["adjoint"].append(f"grad_gap {gap:.3e} > {GRAD_GAP_GATE:g}")
    return failures, {"grad_gap": max(gap, 1e-10)}


# ---------------------------------------------------------------------------
# optimize-32: projected gradient descent, many short forward runs

def optimize_setup(seed):
    solver = build_solver(OPTIMIZE_N, OPTIMIZE_DT, OPTIMIZE_NT)
    grid, nt = solver.grid, OPTIMIZE_NT
    # the seed moves the bubble centre; the control to recover is fixed
    cx, cy = 0.5 + 0.05 * np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
    init = nchns.InitialData(
        vector_preset(grid, U0),
        scalar_preset(grid, f"bubble(0.3, {float(cx)!r}, {float(cy)!r}, 0.08)"))
    v_true = constant_control(grid, nt, vector_preset(grid, "taylor-vortex(0.02)"))
    targets = nchns.Targets.from_trajectory(solver.run(v_true, init))
    weights = nchns.CostWeights(b1=1.0, b2=1.0, gamma=1e-8)
    bounds = nchns.ControlBounds.constant(grid, nt, -OPTIMIZE_BOX, OPTIMIZE_BOX)
    problem = nchns.ControlProblem(solver, init, targets, weights, bounds)
    v0 = nchns.zero_control(grid, nt)
    kkt0, cost0 = kkt_and_cost(problem, v0, solver.run(v0, init))
    return Case(solver, init, v0, problem=problem, kkt0=kkt0, cost0=cost0)


def kkt_and_cost(problem, v, traj):
    fwd = problem.forward
    adj = nchns.run_adjoint(fwd, traj, problem.targets, problem.weights)
    g = nchns.reduced_gradient(v, adj, problem.weights.gamma)
    kkt = nchns.kkt_residual(v, g, problem.bounds, fwd.scheme.dt)
    return kkt, nchns.evaluate_cost(traj, v, problem.targets, problem.weights)


def optimize_task(case, times):
    marks = []      # one timestamp per iteration, from the library's callback
    with timed(times, "solve_s"):
        state = nchns.projected_gradient_descent(
            case.problem, case.v, max_iter=OPTIMIZE_MAX_ITER,
            tol=OPTIMIZE_KKT_REDUCTION * case.kkt0,
            callback=lambda _: marks.append(perf_counter()))
    return {"state": state, "iter_marks": marks}


def optimize_check(case, out):
    state, problem = out["state"], case.problem
    failures = state_failures(case.solver, state.trajectory)
    lo, hi = -OPTIMIZE_BOX, OPTIMIZE_BOX
    if any(np.any(vk.ux < lo) or np.any(vk.ux > hi) or np.any(vk.uy < lo)
           or np.any(vk.uy > hi) for vk in state.v):
        failures.append("optimize: control leaves the box")
    kkt, cost = kkt_and_cost(problem, state.v, state.trajectory)
    if not cost <= case.cost0:
        failures.append(f"optimize: J_final {cost:.6e} > J0 {case.cost0:.6e}")
    if state.status == "line_search_failed":
        failures.append("optimize: line search failed")
    return {"solve": failures}, {"kkt_ratio": max(kkt / case.kkt0, 1e-6)}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    task: object
    check: object
    operations: tuple    # operation names, in the order the task runs them


WORKLOADS = {w.name: w for w in (
    Workload("forward-128", forward_setup, forward_task, forward_check,
             ("forward",)),
    Workload("gradient-64", gradient_setup, gradient_task, gradient_check,
             ("forward", "adjoint", "tangent")),
    Workload("optimize-32", optimize_setup, optimize_task, optimize_check,
             ("solve",)),
)}


@contextmanager
def timed(times, stage):
    """Add the wall time of the ``with`` body to ``times[stage]``."""
    t0 = perf_counter()
    try:
        yield
    finally:
        times[stage] = times.get(stage, 0.0) + perf_counter() - t0
