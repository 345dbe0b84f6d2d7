"""Backward-in-time integration of the adjoint tracking system.

The continuous adjoint equations are discretized with the forward solver's
stencils (optimize-then-discretize): after reversing time both equations are
forward-parabolic, so one backward step applies

* an explicit viscous/transport update of the adjoint velocity through the
  forward solver's ``advance_velocity`` (no-slip faces, then the same
  pressure projection), then
* a semi-implicit update of the adjoint phase.  Its stiff part
  c~ Lap q, c~ = a + F''(phi) (coercive under the validated hypothesis
  a + F'' >= c1 > 0), is split as c_n Lap q_n + (c~ - c_n) Lap q_{n+1}
  with the constant c_n = max c~, so the implicit operator
  q_n - c_n dt Lap_N q_n is one DCT-II solve on the unscaled right-hand
  side, returned in flux form like the forward phase step.  With frozen
  coefficients each cosine mode is multiplied by
  (1 + dt (c_n - c~) lam) / (1 + dt c_n lam), which lies in (0, 1] for
  every eigenvalue lam >= 0 of -Lap_N.  The bounded nonlocal term
  grad K .* grad q, the transport and all velocity couplings are explicit.

Each step evaluates the state's face gradient grad phi_n, its cell
velocity gradient grad u_n and the face gradient of aphi_{n+1} once and
shares them between the terms.  The velocity operators read a velocity's
node shear rates (``grid.node_shear_rates``) next to the velocity.  A step
takes those of u_n for grad u_n, and those of the new au_n for the
viscous coupling 2 nu'(phi) D(u) : D(au); it returns the latter with au_n,
and the step below reads them as the rates of its au_next in the adjoint
stress and transport.  So each adjoint level is differenced once, as the
tangent hands its dmu down.

Each term of ``problem.tracking_terms`` adds weight * residual at its
level as a source.  The terminal adjoint is the level-nt sources (the
velocity one projected); step n consumes the state at level n, the adjoint
at level n+1 and the sources at level n.  A CFL violation, a failed solve
or a loss of coercivity raises ``StepFailureError`` naming the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (CFLViolationError, ForwardSolver, StateTrajectory,
                      StepFailureError, kelvin_force)
from .grid import (Grid2D, ScalarField, VectorField, advect_vector,
                   cc_components_to_faces, div_viscous_stress,
                   full_gradient_cc, gradient_cc_to_face,
                   laplacian_neumann_array, node_shear_rates, sym_gradient,
                   vector_to_cc)
from .kernels import convolve, grad_dot_convolve
from .linsolve import HelmholtzNeumannSolver, SolverConvergenceError
from .problem import CostWeights, Targets, tracking_terms


@dataclass
class AdjointTrajectory:
    """Adjoint velocity/phase pairs per time level."""

    grid: Grid2D
    times: np.ndarray
    au: list
    aphi: list

    @property
    def nt(self) -> int:
        return len(self.times) - 1


def transpose_grad_contract(p: VectorField, grad_u) -> VectorField:
    """(p . grad^T u)_j = sum_i p_i d_j u_i, assembled at faces via centers.

    ``grad_u`` is ``full_gradient_cc`` of a no-slip velocity u.
    """
    dux_dx, dux_dy, duy_dx, duy_dy = grad_u
    px, py = vector_to_cc(p)
    tx = px * dux_dx + py * duy_dx
    ty = px * dux_dy + py * duy_dy
    return cc_components_to_faces(p.grid, tx, ty)


def face_dot_to_cc(p: VectorField, g: VectorField) -> np.ndarray:
    """Cell average of the facewise dot product p . g."""
    px = 0.5 * (p.ux[1:, :] * g.ux[1:, :] + p.ux[:-1, :] * g.ux[:-1, :])
    py = 0.5 * (p.uy[:, 1:] * g.uy[:, 1:] + p.uy[:, :-1] * g.uy[:, :-1])
    return px + py


class AdjointSolver:
    """Backward stepper bound to a forward solver and a stored trajectory."""

    def __init__(self, forward: ForwardSolver):
        self.fwd = forward

    def step_back(self, state_u: VectorField, state_phi: ScalarField,
                  state_mu: ScalarField, au_next: VectorField, au_next_rates,
                  aphi_next: ScalarField, u_source: VectorField,
                  phi_source: ScalarField):
        """One reversed-time step; returns (au, aphi, au_rates) at the lower level.

        ``au_next_rates`` is ``node_shear_rates(au_next)``, the ``au_rates``
        of the step above; ``au_rates`` is ``node_shear_rates(au)``, handed
        to the step below.  The lower level's tracking sources (w * r, or
        None for none) are added to the adjoint velocity and phase as they
        are updated.
        """
        fwd = self.fwd
        dt = fwd.scheme.dt
        grid = fwd.grid
        fwd.check_cfl(state_u)

        gphi = gradient_cc_to_face(state_phi)
        grad_u = full_gradient_cc(state_u, node_shear_rates(state_u))

        # adjoint momentum: explicit update in reversed time, then projection
        nu_cc = ScalarField(grid, fwd.viscosity.nu(state_phi.values))
        rhs = div_viscous_stress(nu_cc, au_next, au_next_rates)
        rhs += advect_vector(state_u, au_next, au_next_rates)
        rhs -= transpose_grad_contract(au_next, grad_u)
        rhs -= kelvin_force(aphi_next, gphi)
        au = fwd.advance_velocity(
            au_next if u_source is None else au_next + u_source, rhs)
        au_rates = node_shear_rates(au)

        # adjoint phase: constant part of the stiff diffusion implicit;
        # its variable remainder and all couplings explicit
        w = ScalarField(grid, face_dot_to_cc(au, gphi))
        d2f = fwd.potential.d2f(state_phi.values)
        nonlocal_coupling = (fwd.kernel.mass_field.values * w.values
                             - convolve(fwd.kernel, w).values
                             + d2f * w.values)
        # 2 nu'(phi) D(u) : D(au); 2 D(u)_xy is the sum of the shear rates
        dux_dx, dux_dy, duy_dx, duy_dy = grad_u
        d_adj = sym_gradient(au, au_rates)
        visc_coupling = 2.0 * fwd.viscosity.dnu(state_phi.values) * (
            dux_dx * d_adj.xx + (dux_dy + duy_dx) * d_adj.xy
            + duy_dy * d_adj.yy)
        gaphi = gradient_cc_to_face(aphi_next)
        transport = face_dot_to_cc(state_u, gaphi)
        mu_coupling = face_dot_to_cc(au, gradient_cc_to_face(state_mu))

        explicit = (grad_dot_convolve(fwd.kernel, gaphi).values
                    + transport - visc_coupling + nonlocal_coupling - mu_coupling)

        c_tilde = fwd.kernel.mass_field.values + d2f
        if np.any(c_tilde <= 0.0):
            raise StepFailureError(
                "adjoint diffusion coefficient a + F''(phi) is not positive; "
                "the coercivity hypothesis fails on this state")
        c_bar = float(c_tilde.max())
        explicit += (c_tilde - c_bar) * laplacian_neumann_array(aphi_next.values, grid)
        rhs_phase = aphi_next.values + dt * explicit
        if phi_source is not None:
            rhs_phase += phi_source.values
        solver = HelmholtzNeumannSolver(grid, c_bar, dt)
        aphi_vals, _ = solver.solve(rhs_phase, atol=fwd._atol(rhs_phase))
        return au, ScalarField(grid, aphi_vals), au_rates

    def run(self, traj: StateTrajectory, targets: Targets,
            weights: CostWeights) -> AdjointTrajectory:
        """March from the terminal conditions down to t = 0, storing all steps."""
        fwd = self.fwd
        nt = fwd.scheme.nt
        if traj.nt != nt:
            raise ValueError("state trajectory does not match the scheme")
        targets.validate(fwd.grid, nt, fwd.scheme.tol_p)
        terms = tracking_terms(traj, targets, weights)   # level nt first
        term = next(terms, None)

        def sources(level):
            """The (u, phi) sources w * r at ``level``, None where absent."""
            nonlocal term
            src = {"u": None, "phi": None}
            while term is not None and term[2] == level:
                src[term[1]] = term[0] * term[3]
                term = next(terms, None)
            return src["u"], src["phi"]

        au = [None] * (nt + 1)
        aphi = [None] * (nt + 1)
        u_src, phi_src = sources(nt)     # the terminal adjoint, u projected
        au[nt] = VectorField.zeros(fwd.grid) if u_src is None else fwd.project(u_src)
        aphi[nt] = ScalarField.zeros(fwd.grid) if phi_src is None else phi_src
        rates = node_shear_rates(au[nt])
        for n in range(nt - 1, -1, -1):
            try:
                au[n], aphi[n], rates = self.step_back(
                    traj.u[n], traj.phi[n], traj.mu[n], au[n + 1], rates,
                    aphi[n + 1], *sources(n))
            except (CFLViolationError, SolverConvergenceError,
                    StepFailureError) as exc:
                raise StepFailureError(str(exc), step=n) from exc
        return AdjointTrajectory(fwd.grid, traj.times.copy(), au, aphi)


def run_adjoint(forward: ForwardSolver, traj: StateTrajectory, targets: Targets,
                weights: CostWeights) -> AdjointTrajectory:
    return AdjointSolver(forward).run(traj, targets, weights)
