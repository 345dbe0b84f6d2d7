"""Containers describing one tracking control problem, and its tracking terms.

Controls, bounds and running targets are piecewise constant in time: entry k
acts on the step from t_k to t_{k+1}, and a running target is compared with
the state at that step's lower level t_k (the left rectangle rule).
``tracking_terms`` is the one definition of the discrete tracking cost: the
cost, its tangent derivative and the adjoint's sources all read it.

A level that is the same at every step (a resting target, a constant box)
is stored once: the list holds nt references to one read-only field, and
the checks visit each distinct level once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, ScalarField, VectorField, divergence_face_to_cc, read_only


def _once(items, key=id):
    """``items`` in order, each object (or tuple of objects) only once."""
    return {key(x): x for x in items}.values()


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
    k; the terminal targets are compared with the state at level nt.  Entries
    may be one shared level, which is then read-only (see ``resting``); a
    caller who wants to edit one step builds a list of copies.
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
        """Fluid at rest and a uniform phase, at every step and at the end.

        One read-only velocity level and one read-only phase level serve
        all nt steps and the terminal targets; to edit one step, build lists
        of copies, ``[w.copy() for w in targets.u_running]``.
        """
        u = read_only(VectorField.zeros(grid))
        phi = read_only(ScalarField.full(grid, phi_value))
        return cls([u] * nt, [phi] * nt, u, phi)

    def validate(self, grid: Grid2D, nt: int, tol_p: float):
        """Check lengths, grids and the velocity targets' divergence.

        A level shared by several entries is checked once.
        """
        if len(self.u_running) != nt or len(self.phi_running) != nt:
            raise ValueError("running targets must have one entry per time step")
        for w in _once([*self.phi_running, self.phi_terminal]):
            if w.grid != grid:
                raise ValueError("phase target grid mismatch")
        for w in _once([*self.u_running, self.u_terminal]):
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
    """Componentwise bounds per step: lower[k] <= v[k] <= upper[k] on faces.

    A bound may be infinite (a one-sided box) but never NaN.  Entries may be
    one shared level, which is then read-only (see ``constant``); a caller
    who wants to edit one step builds a list of copies.
    """

    lower: list
    upper: list

    @classmethod
    def constant(cls, grid: Grid2D, nt: int, lo: float, hi: float) -> "ControlBounds":
        """The box [lo, hi] on every face: one read-only level per side.

        To edit one step, build lists of copies,
        ``[b.copy() for b in bounds.lower]``.
        """
        for name, c in (("lower", lo), ("upper", hi)):
            if np.isnan(c):
                raise ValueError(f"{name} bound is NaN")
        if lo > hi:
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
        mk = lambda c: read_only(VectorField(grid, np.full((grid.nx + 1, grid.ny), c),
                                             np.full((grid.nx, grid.ny + 1), c)))
        return cls([mk(lo)] * nt, [mk(hi)] * nt)

    def validate(self, grid: Grid2D):
        """Check lengths, grids, NaNs and lower <= upper.

        A pair of levels shared by several steps is checked once.
        """
        if len(self.lower) != len(self.upper):
            raise ValueError("bound trajectories must have equal length")
        for lo, hi in _once(zip(self.lower, self.upper),
                            key=lambda pair: (id(pair[0]), id(pair[1]))):
            if lo.grid != grid or hi.grid != grid:
                raise ValueError("bound grid mismatch")
            for name, b in (("lower", lo), ("upper", hi)):
                if np.isnan(b.ux).any() or np.isnan(b.uy).any():
                    raise ValueError(f"{name} bound is NaN somewhere")
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
