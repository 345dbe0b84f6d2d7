"""Directional state derivatives: the linearization of the forward scheme.

Every term here is the exact derivative of the corresponding term of the
discrete forward step, evaluated at the stored state trajectory and at the
same time levels the forward splitting uses.  That makes the map
h -> (du, dphi) the honest Jacobian action of the discrete solver (up to
linear-solve residuals), which is what the quadratic-remainder checks rely
on.

The phase and velocity updates go through the forward solver's own
``solve_phase`` and ``advance_velocity``: the implicit solve acts on the
assembled combination c_bar dphi + dmu - c_bar dphi_old, where dmu is the
linearized chemical potential at (phi_old, dphi_old), with the forward
step's constant-coefficient operator and flux-form rebuild, so the cell
sum of dphi stays zero to round-off, and du is projected exactly like u.
Each step returns the dmu of its new level, which the next step reads as
its dmu at (phi_old, dphi_old).

The momentum derivative differences two velocities, du and u, each in a
stress and an advection term.  ``forward.stress_minus_advection`` forms
the two terms of one velocity from one set of its node shear rates, first
for du, then for u, so one set is alive at a time; the sum is accumulated
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (ForwardSolver, StateTrajectory, StepFailureError,
                      kelvin_force, stress_minus_advection)
from .grid import (Grid2D, ScalarField, VectorField, advect_scalar,
                   gradient_cc_to_face, laplacian_neumann_array)
from .kernels import convolve
from .linsolve import SolverConvergenceError


@dataclass
class TangentTrajectory:
    """Per-step directional derivatives (du_k, dphi_k)."""

    grid: Grid2D
    times: np.ndarray
    du: list
    dphi: list

    @property
    def nt(self) -> int:
        return len(self.times) - 1


class TangentSolver:
    """Linearized stepper bound to one forward solver and its trajectory."""

    def __init__(self, forward: ForwardSolver):
        self.fwd = forward

    def linearized_mu(self, phi: ScalarField, dphi: ScalarField) -> ScalarField:
        """Derivative of the assembled chemical potential at phi."""
        kern, pot = self.fwd.kernel, self.fwd.potential
        vals = (kern.mass_field.values * dphi.values
                - convolve(kern, dphi).values
                + pot.d2f(phi.values) * dphi.values)
        return ScalarField(phi.grid, vals)

    def step(self, state_phi: ScalarField, state_u: VectorField,
             state_phi_new: ScalarField, state_mu_new: ScalarField,
             du: VectorField, dphi: ScalarField, dmu: ScalarField,
             h: VectorField):
        """One linearized step; returns (du_new, dphi_new, dmu_new).

        ``dmu`` is ``linearized_mu(state_phi, dphi)``, the ``dmu_new`` of
        the step before.
        """
        fwd = self.fwd
        dt = fwd.scheme.dt
        grid = fwd.grid

        # phase half: derivative of the conservative semi-implicit update
        dg = dmu.values - fwd.c_bar * dphi.values
        db = (dphi.values
              - dt * (advect_scalar(state_u, dphi).values
                      + advect_scalar(du, state_phi).values)
              + dt * laplacian_neumann_array(dg, grid))
        dphi_new = fwd.solve_phase(db)
        dmu_new = self.linearized_mu(state_phi_new, dphi_new)

        # momentum half: derivative of predictor + (linear) projection
        nu_cc = ScalarField(grid, fwd.viscosity.nu(state_phi_new.values))
        dnu_cc = ScalarField(grid, fwd.viscosity.dnu(state_phi_new.values)
                             * dphi_new.values)
        drhs = stress_minus_advection(nu_cc, du, state_u)
        drhs += stress_minus_advection(dnu_cc, state_u, du)
        drhs += kelvin_force(dmu_new, gradient_cc_to_face(state_phi_new))
        drhs += kelvin_force(state_mu_new, gradient_cc_to_face(dphi_new))
        drhs += h
        return fwd.advance_velocity(du, drhs), dphi_new, dmu_new

    def run(self, traj: StateTrajectory, h_traj) -> TangentTrajectory:
        """Integrate the linearized system from zero initial data."""
        fwd = self.fwd
        nt = fwd.scheme.nt
        if traj.nt != nt:
            raise ValueError("state trajectory does not match the scheme")
        if len(h_traj) != nt:
            raise ValueError(f"direction has {len(h_traj)} steps, scheme wants {nt}")
        tan = TangentTrajectory(
            fwd.grid, traj.times.copy(),
            du=[VectorField.zeros(fwd.grid)],
            dphi=[ScalarField.zeros(fwd.grid)])
        dmu = ScalarField.zeros(fwd.grid)     # linearized_mu at dphi_0 = 0
        for k in range(nt):
            try:
                du_new, dphi_new, dmu = self.step(
                    traj.phi[k], traj.u[k], traj.phi[k + 1], traj.mu[k + 1],
                    tan.du[k], tan.dphi[k], dmu, h_traj[k])
            except SolverConvergenceError as exc:
                raise StepFailureError(str(exc), step=k) from exc
            tan.du.append(du_new)
            tan.dphi.append(dphi_new)
        return tan


def run_tangent(forward: ForwardSolver, traj: StateTrajectory, h_traj):
    return TangentSolver(forward).run(traj, h_traj)
