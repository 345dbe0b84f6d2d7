"""Containers describing one tracking control problem.

Controls, bounds and running targets are piecewise constant in time: entry k
acts on the step from t_k to t_{k+1}.  Running targets are indexed by time
level (0..nt) so both the cost quadrature and the backward sweep can read
the level they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Running targets per time level (nt+1 entries) plus terminal targets."""

    u_running: list
    phi_running: list
    u_terminal: VectorField
    phi_terminal: ScalarField

    @classmethod
    def from_trajectory(cls, traj) -> "Targets":
        return cls([u.copy() for u in traj.u], [p.copy() for p in traj.phi],
                   traj.u[-1].copy(), traj.phi[-1].copy())

    @classmethod
    def resting(cls, grid: Grid2D, nt: int, phi_value: float = 0.0) -> "Targets":
        return cls([VectorField.zeros(grid) for _ in range(nt + 1)],
                   [ScalarField.full(grid, phi_value) for _ in range(nt + 1)],
                   VectorField.zeros(grid), ScalarField.full(grid, phi_value))

    def validate(self, grid: Grid2D, nt: int, tol_p: float):
        if len(self.u_running) != nt + 1 or len(self.phi_running) != nt + 1:
            raise ValueError("running targets must have nt + 1 time levels")
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
