"""Cost evaluation, reduced gradients and projected gradient descent.

Space-time quadrature conventions (shared by the cost, both gradient routes
and the stationarity measure):

* the tracking terms are those of ``problem.tracking_terms``, which is
  their one definition: running terms by the left rectangle rule over the
  levels 0..nt-1, terminal terms at level nt.  The cost sums them, the
  tangent route pairs each with the tangent state at its level, and the
  adjoint sweep takes each as its source at that level;
* the control is piecewise constant per step, and the adjoint pairing uses
  the adjoint velocity at the *upper* level of each step, which is where the
  step's control sensitivity lands in the discrete scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, run_adjoint
from .forward import StateTrajectory
from .grid import VectorField, inner_product_l2
from .problem import (ControlBounds, ControlProblem, CostWeights, Targets,
                      tracking_terms)
from .tangent import TangentTrajectory, run_tangent


# ---------------------------------------------------------------------------
# space-time inner products for control trajectories

def control_inner(v, h, dt: float) -> float:
    return dt * sum(inner_product_l2(vk, hk)
                    for vk, hk in zip(v, h, strict=True))


def control_norm(v, dt: float) -> float:
    return float(np.sqrt(max(control_inner(v, v, dt), 0.0)))


def control_axpy(alpha: float, x, y):
    """y + alpha * x, elementwise over the trajectory."""
    return [yk + alpha * xk for xk, yk in zip(x, y, strict=True)]


# ---------------------------------------------------------------------------
# cost and its two derivative representations

def evaluate_cost(traj: StateTrajectory, v, targets: Targets,
                  weights: CostWeights) -> float:
    """Tracking cost of a computed trajectory under the given control."""
    if len(v) != traj.nt:
        raise ValueError("control length does not match the trajectory")
    J = sum(0.5 * w * inner_product_l2(r, r)
            for w, _, _, r in tracking_terms(traj, targets, weights))
    if weights.gamma != 0.0:
        J += 0.5 * weights.gamma * control_inner(v, v, traj.scheme.dt)
    return float(J)


def directional_derivative_via_tangent(traj: StateTrajectory,
                                       tan: TangentTrajectory,
                                       targets: Targets, weights: CostWeights,
                                       v, h) -> float:
    """Derivative of the cost along h, using the tangent state."""
    tangent = {"u": tan.du, "phi": tan.dphi}
    out = sum(w * inner_product_l2(r, tangent[kind][level])
              for w, kind, level, r in tracking_terms(traj, targets, weights))
    if weights.gamma != 0.0:
        out += weights.gamma * control_inner(v, h, traj.scheme.dt)
    return float(out)


def reduced_gradient(v, adj: AdjointTrajectory, gamma: float):
    """L2(Q) gradient representative gamma * v_k + adjoint velocity at k+1."""
    return [gamma * vk + adj.au[k + 1] for k, vk in enumerate(v)]


# ---------------------------------------------------------------------------
# box projection and stationarity

def project_box(w, bounds: ControlBounds):
    """Componentwise clip of each step's faces into [lower, upper]."""
    out = []
    for wk, lo, hi in zip(w, bounds.lower, bounds.upper, strict=True):
        ux = np.minimum(np.maximum(wk.ux, lo.ux), hi.ux)
        uy = np.minimum(np.maximum(wk.uy, lo.uy), hi.uy)
        out.append(VectorField(wk.grid, ux, uy))
    return out


def kkt_residual(v, g, bounds: ControlBounds, dt: float) -> float:
    """|| v - P(v - g) ||_{L2(Q)}: zero iff v is a projected-gradient fixed point."""
    probe = project_box(control_axpy(-1.0, g, v), bounds)
    diff = [vk - pk for vk, pk in zip(v, probe, strict=True)]
    return control_norm(diff, dt)


def complementarity_violation(v, g, bounds: ControlBounds) -> float:
    """Worst violation of the active-set sign conditions.

    Strictly interior faces need |g| small; faces at the lower bound need
    g >= 0 up to slack; faces at the upper bound need g <= 0 up to slack.
    Returns the max over all faces and steps of the respective defect.
    """
    worst = 0.0
    for vk, gk, lo, hi in zip(v, g, bounds.lower, bounds.upper, strict=True):
        for vc, gc, lc, hc in ((vk.ux, gk.ux, lo.ux, hi.ux),
                               (vk.uy, gk.uy, lo.uy, hi.uy)):
            at_lo = vc <= lc
            at_hi = vc >= hc
            interior = ~(at_lo | at_hi)
            if interior.any():
                worst = max(worst, float(np.max(np.abs(gc[interior]))))
            if at_lo.any():
                worst = max(worst, float(np.max(np.maximum(-gc[at_lo], 0.0))))
            if at_hi.any():
                worst = max(worst, float(np.max(np.maximum(gc[at_hi], 0.0))))
    return worst


# ---------------------------------------------------------------------------
# projected gradient descent with Armijo backtracking

@dataclass
class OptimizerState:
    v: list
    cost_history: list = field(default_factory=list)
    kkt_history: list = field(default_factory=list)
    tau_history: list = field(default_factory=list)
    shrink_history: list = field(default_factory=list)
    step_norm_history: list = field(default_factory=list)   # ||v_k - v_{k+1}||
    status: str = "running"
    iterations: int = 0
    trajectory: StateTrajectory = None


# the backtracking line search: sufficient-decrease constant, step shrink
# factor and the most shrinks tried before the search fails
ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_SHRINKS = 40


def projected_gradient_descent(problem: ControlProblem, v0, max_iter: int = 100,
                               tol: float = None, callback=None) -> OptimizerState:
    """Minimize the reduced cost over the box by projected gradient descent.

    The step size is reset to tau0 = 1/(1 + gamma) each iteration and
    multiplied by ``SHRINK`` until the projected step satisfies the
    sufficient decrease J(w) <= J(v) - (ARMIJO_C / tau) ||v - w||^2, at
    most ``MAX_SHRINKS`` times.  Stops when the fixed-point residual drops
    below ``tol`` (default 1e-5 times the initial residual) or after
    ``max_iter`` iterations.
    """
    if problem.bounds is None:
        raise ValueError("projected gradient descent needs control bounds")
    fwd = problem.forward
    dt = fwd.scheme.dt
    gamma = problem.weights.gamma
    tau0 = 1.0 / (1.0 + gamma)

    v = project_box(v0, problem.bounds)
    traj = fwd.run(v, problem.init)
    J = evaluate_cost(traj, v, problem.targets, problem.weights)
    state = OptimizerState(v=v)

    for it in range(max_iter):
        adj = run_adjoint(fwd, traj, problem.targets, problem.weights)
        g = reduced_gradient(v, adj, gamma)
        kkt = kkt_residual(v, g, problem.bounds, dt)
        state.cost_history.append(J)
        state.kkt_history.append(kkt)
        state.trajectory = traj
        if tol is None:
            tol = 1e-5 * kkt
        if callback is not None:
            callback(state)
        if kkt <= tol:
            state.status = "converged"
            state.v, state.iterations = v, it
            return state

        tau = tau0
        shrinks = 0
        accepted = False
        while shrinks <= MAX_SHRINKS:
            w = project_box(control_axpy(-tau, g, v), problem.bounds)
            step = [vk - wk for vk, wk in zip(v, w, strict=True)]
            step_sq = control_inner(step, step, dt)
            if step_sq == 0.0:
                # projected step is null: stationary within the bounds
                state.status = "converged"
                state.v, state.iterations = v, it
                return state
            traj_w = fwd.run(w, problem.init)
            J_w = evaluate_cost(traj_w, w, problem.targets, problem.weights)
            if J_w <= J - (ARMIJO_C / tau) * step_sq:
                v, traj, J = w, traj_w, J_w
                accepted = True
                state.step_norm_history.append(float(np.sqrt(step_sq)))
                break
            tau *= SHRINK
            shrinks += 1
        state.tau_history.append(tau)
        state.shrink_history.append(shrinks)
        if not accepted:
            state.status = "line_search_failed"
            state.v, state.iterations = v, it + 1
            return state

    state.status = "max_iter"
    state.v, state.iterations = v, max_iter
    state.trajectory = traj
    return state


# ---------------------------------------------------------------------------
# quadratic-remainder (Taylor) verification

@dataclass
class TaylorReport:
    eps: list
    remainders: list
    pair_slopes: list
    slope: float
    derivative: float
    cost_at_v: float

    @property
    def passed(self) -> bool:
        return np.isfinite(self.slope) and 1.8 <= self.slope <= 2.2


def taylor_test(problem: ControlProblem, v, h,
                eps_sweep=(1e-1, 1e-2, 1e-3, 1e-4),
                derivative: float = None) -> TaylorReport:
    """Quadratic-remainder check of a directional derivative of the cost.

    R(eps) = |J(v + eps h) - J(v) - eps * derivative| must shrink at slope 2
    in a log-log fit over the sweep (points below the round-off floor are
    dropped from the fit).  ``derivative`` defaults to the tangent-route
    value; to test another representation, such as the adjoint gradient
    paired with h, pass its value.
    """
    if len(eps_sweep) < 2:
        raise ValueError("need at least two sweep values")
    fwd = problem.forward
    traj = fwd.run(v, problem.init)
    J0 = evaluate_cost(traj, v, problem.targets, problem.weights)
    if derivative is None:
        tan = run_tangent(fwd, traj, h)
        derivative = directional_derivative_via_tangent(
            traj, tan, problem.targets, problem.weights, v, h)

    eps_sweep = sorted(eps_sweep, reverse=True)
    remainders = []
    for eps in eps_sweep:
        v_eps = control_axpy(eps, h, v)
        J_eps = evaluate_cost(fwd.run(v_eps, problem.init), v_eps,
                              problem.targets, problem.weights)
        remainders.append(abs(J_eps - J0 - eps * derivative))

    floor = 1e-13 * max(1.0, abs(J0))
    pts = [(e, r) for e, r in zip(eps_sweep, remainders) if r > floor]
    pair_slopes = []
    for (e1, r1), (e2, r2) in zip(pts[:-1], pts[1:]):
        pair_slopes.append(float(np.log(r1 / r2) / np.log(e1 / e2)))
    if len(pts) >= 2:
        le = np.log([p[0] for p in pts])
        lr = np.log([p[1] for p in pts])
        slope = float(np.polyfit(le, lr, 1)[0])
    else:
        slope = float("nan")
    return TaylorReport(list(eps_sweep), remainders, pair_slopes, slope,
                        float(derivative), J0)
