"""Containers describing one tracking control problem, and its tracking terms.

Controls, bounds and running targets are piecewise constant in time: entry k
acts on the step from t_k to t_{k+1}, and a running target is compared with
the state at that step's lower level t_k (the left rectangle rule).
``tracking_terms`` is the one definition of the discrete tracking cost: the
cost, its tangent derivative and the adjoint's sources all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, ScalarField, VectorField, divergence_face_to_cc


@dataclass(frozen=True)
class CostWeights:
    """Tracking weights (b1, b2: running; b3, b4: terminal) and control cost."""

    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    b4: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        vals = (self.b1, self.b2, self.b3, self.b4, self.gamma)
        if any(v < 0 for v in vals):
            raise ValueError("cost weights must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("cost weights must not vanish simultaneously")


@dataclass
class Targets:
    """Running targets per step (nt entries) plus terminal targets.

    Entry k is compared with the state at level k, the lower level of step
    k; the terminal targets are compared with the state at level nt.
    """

    u_running: list
    phi_running: list
    u_terminal: VectorField
    phi_terminal: ScalarField

    @classmethod
    def from_trajectory(cls, traj) -> "Targets":
        return cls([u.copy() for u in traj.u[:-1]],
                   [p.copy() for p in traj.phi[:-1]],
                   traj.u[-1].copy(), traj.phi[-1].copy())

    @classmethod
    def resting(cls, grid: Grid2D, nt: int, phi_value: float = 0.0) -> "Targets":
        return cls([VectorField.zeros(grid) for _ in range(nt)],
                   [ScalarField.full(grid, phi_value) for _ in range(nt)],
                   VectorField.zeros(grid), ScalarField.full(grid, phi_value))

    def validate(self, grid: Grid2D, nt: int, tol_p: float):
        if len(self.u_running) != nt or len(self.phi_running) != nt:
            raise ValueError("running targets must have one entry per time step")
        for w in list(self.phi_running) + [self.phi_terminal]:
            if w.grid != grid:
                raise ValueError("phase target grid mismatch")
        for w in list(self.u_running) + [self.u_terminal]:
            if w.grid != grid:
                raise ValueError("velocity target grid mismatch")
            dmax = float(np.max(np.abs(divergence_face_to_cc(w).values)))
            if dmax > tol_p:
                raise ValueError(
                    f"velocity target divergence {dmax:.3e} exceeds {tol_p:.3e}")


def tracking_terms(traj, targets: Targets, weights: CostWeights):
    """Yield ``(weight, kind, level, residual)`` for each nonzero term.

    ``kind`` is ``"u"`` or ``"phi"``; ``residual`` is the state at ``level``
    minus its target.  Terminal terms (weight b3, b4) sit at level nt, running
    terms (b1 dt, b2 dt) at each step's lower level k.  The terms come level
    by level from nt down to 0, as the backward sweep reads them.  The
    discrete tracking cost is the sum of weight/2 |residual|^2.
    """
    nt = traj.nt
    dt = traj.scheme.dt
    w = weights
    if w.b3 != 0.0:
        yield w.b3, "u", nt, traj.u[nt] - targets.u_terminal
    if w.b4 != 0.0:
        yield w.b4, "phi", nt, traj.phi[nt] - targets.phi_terminal
    for k in range(nt - 1, -1, -1):
        if w.b1 != 0.0:
            yield w.b1 * dt, "u", k, traj.u[k] - targets.u_running[k]
        if w.b2 != 0.0:
            yield w.b2 * dt, "phi", k, traj.phi[k] - targets.phi_running[k]


@dataclass
class ControlBounds:
    """Componentwise bounds per step: lower[k] <= v[k] <= upper[k] on faces."""

    lower: list
    upper: list

    @classmethod
    def constant(cls, grid: Grid2D, nt: int, lo: float, hi: float) -> "ControlBounds":
        if lo > hi:
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
        mk = lambda c: VectorField(grid, np.full((grid.nx + 1, grid.ny), c),
                                   np.full((grid.nx, grid.ny + 1), c))
        return cls([mk(lo) for _ in range(nt)], [mk(hi) for _ in range(nt)])

    def validate(self, grid: Grid2D):
        if len(self.lower) != len(self.upper):
            raise ValueError("bound trajectories must have equal length")
        for lo, hi in zip(self.lower, self.upper):
            if lo.grid != grid or hi.grid != grid:
                raise ValueError("bound grid mismatch")
            if np.any(lo.ux > hi.ux) or np.any(lo.uy > hi.uy):
                raise ValueError("lower bound exceeds upper bound somewhere")

    @property
    def nt(self) -> int:
        return len(self.lower)


@dataclass
class ControlProblem:
    """Everything a cost/gradient evaluation needs besides the control."""

    forward: object                 # ForwardSolver
    init: object                    # InitialData
    targets: Targets
    weights: CostWeights
    bounds: ControlBounds = None

    def __post_init__(self):
        sch = self.forward.scheme
        self.targets.validate(self.forward.grid, sch.nt, sch.tol_p)
        if self.bounds is not None:
            self.bounds.validate(self.forward.grid)
            if self.bounds.nt != sch.nt:
                raise ValueError("bounds must have one entry per time step")
