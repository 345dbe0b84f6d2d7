"""Forward time integration of the coupled phase-field / flow system.

One step advances the order parameter with a semi-implicit, stabilized,
mass-conservative update of the convective nonlocal Cahn-Hilliard equation,
then the velocity with an explicit predictor (viscous stress, advection,
capillary force, control) followed by an exact pressure projection.

The phase update treats the constant c = max(a) + s_stab implicitly and
the rest of the chemical potential explicitly,

    phi_new - dt Lap_N(c phi_new + g) = phi_old - dt div(u phi_old),
    g = mu(phi_old) - c phi_old,   mu = a phi - K*phi + F'(phi),

so every cell gets at least s_stab of stabilization (the constant-
coefficient splitting of Dong & Shen, J. Comput. Phys. 231, 2012).  The
implicit operator phi_new - c dt Lap_N phi_new is one DCT-II solve of
``linsolve.HelmholtzNeumannSolver``, which returns phi_new rebuilt in flux
form, so the cell sum of phi is conserved to round-off independently of
the solve's residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (Grid2D, ScalarField, VectorField, advect_scalar,
                   advect_vector, divergence_face_to_cc, div_viscous_stress,
                   gradient_cc_to_face, inner_product_l2, laplacian_neumann_array,
                   node_shear_rates, read_only, scalar_to_xfaces, scalar_to_yfaces)
from .kernels import Kernel, convolve
from .linsolve import (HelmholtzNeumannSolver, NeumannPoissonSolver,
                       SolverConvergenceError)
from .physics import DoubleWell, Viscosity, chemical_potential


class CFLViolationError(RuntimeError):
    def __init__(self, dt, suggested_dt, reason):
        super().__init__(
            f"time step {dt:.3e} violates the {reason} stability bound; "
            f"use dt <= {suggested_dt:.3e}")
        self.suggested_dt = suggested_dt


class StepFailureError(RuntimeError):
    """A solver step failed; carries the failing step index when known."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class TimeScheme:
    """Step size, step count and the projection tolerance of all three solvers."""

    dt: float
    nt: int
    tol_p: float = 1e-10          # max |div u| after projection

    def __post_init__(self):
        if isinstance(self.nt, bool) or not isinstance(self.nt, (int, np.integer)):
            raise ValueError(f"nt must be an integer step count, got {self.nt!r}")
        # written so that a NaN, for which every comparison is False, fails
        if not (0.0 < self.dt < np.inf and 0.0 < self.tol_p < np.inf) or self.nt < 1:
            raise ValueError("need finite dt > 0, finite tol_p > 0 and nt >= 1, got "
                             f"dt = {self.dt}, tol_p = {self.tol_p}, nt = {self.nt}")


@dataclass
class InitialData:
    u0: VectorField
    phi0: ScalarField

    def validate(self, tol_p: float):
        if not (np.all(np.isfinite(self.u0.ux)) and np.all(np.isfinite(self.u0.uy))
                and np.all(np.isfinite(self.phi0.values))):
            raise ValueError("initial data must be finite")
        bmax = max(np.max(np.abs(self.u0.ux[0, :])), np.max(np.abs(self.u0.ux[-1, :])),
                   np.max(np.abs(self.u0.uy[:, 0])), np.max(np.abs(self.u0.uy[:, -1])))
        if bmax != 0.0:
            raise ValueError("initial velocity must have zero boundary-normal faces")
        dmax = float(np.max(np.abs(divergence_face_to_cc(self.u0).values)))
        if dmax > tol_p:
            raise ValueError(
                f"initial velocity divergence {dmax:.3e} exceeds tolerance {tol_p:.3e}")


@dataclass
class StateTrajectory:
    """Snapshots (u_k, phi_k, mu_k) at every time level 0..nt.

    The pressure is not kept: no cost, gradient or gate reads it.
    """

    grid: Grid2D
    scheme: TimeScheme
    times: np.ndarray
    u: list
    phi: list
    mu: list

    @property
    def nt(self) -> int:
        return len(self.times) - 1


def zero_control(grid: Grid2D, nt: int):
    """The zero control: nt references to one shared, read-only zero field.

    A caller who wants to edit one step builds a list of copies,
    ``[v.copy() for v in zero_control(grid, nt)]``.
    """
    return [read_only(VectorField.zeros(grid))] * nt


def kelvin_force(mu: ScalarField, grad_phi: VectorField) -> VectorField:
    """Capillary body force mu grad(phi) on faces (zero at boundary faces).

    Takes the face gradient ``gradient_cc_to_face(phi)``, so that a step
    that needs grad(phi) elsewhere computes it once.
    """
    fx = scalar_to_xfaces(mu) * grad_phi.ux
    fy = scalar_to_yfaces(mu) * grad_phi.uy
    return VectorField(grad_phi.grid, fx, fy)


def stress_minus_advection(nu_cc: ScalarField, w: VectorField,
                           a: VectorField) -> VectorField:
    """2 div(nu D w) - (a . grad) w on faces: the two terms that difference w.

    Both read the node shear rates of w, taken once here and freed on
    return, so a step that differences two velocities holds one record at
    a time.
    """
    rates = node_shear_rates(w)
    out = div_viscous_stress(nu_cc, w, rates)
    out -= advect_vector(a, w, rates)
    return out


def total_energy(u: VectorField, phi: ScalarField, kernel: Kernel,
                 potential: DoubleWell):
    """(kinetic, nonlocal mixing, bulk) energies; mixing uses the identity

    1/4 int int K(x-y)(phi(x)-phi(y))^2 = 1/2 (a phi, phi) - 1/2 (phi, K*phi),

    which is exact in the shared midpoint quadrature.
    """
    kinetic = 0.5 * inner_product_l2(u, u)
    a = kernel.mass_field.values
    kphi = convolve(kernel, phi).values
    mixing = 0.5 * float(np.sum((a * phi.values - kphi) * phi.values)) \
        * phi.grid.cell_volume
    bulk = float(np.sum(potential.f(phi.values))) * phi.grid.cell_volume
    return kinetic, mixing, bulk


class ForwardSolver:
    """Owns the discrete problem setup; immutable after construction."""

    def __init__(self, grid: Grid2D, kernel: Kernel, potential: DoubleWell,
                 viscosity: Viscosity, scheme: TimeScheme):
        if kernel.grid != grid:
            raise ValueError("kernel tabulated on a different grid")
        self.grid = grid
        self.kernel = kernel
        self.potential = potential
        self.viscosity = viscosity
        self.scheme = scheme
        s_stab = 2.0 * potential.scale
        self.c_bar = float(kernel.mass_field.values.max()) + s_stab
        self._helmholtz = HelmholtzNeumannSolver(grid, self.c_bar, scheme.dt)
        self._poisson = NeumannPoissonSolver(grid)

    # -- tolerances ---------------------------------------------------------

    def _atol(self, b: np.ndarray) -> float:
        # post-condition of the direct phase solve, purely relative so it is
        # scale-free: round-off leaves about 1e-15 max|b|, and the tangent's
        # zero right-hand sides pass with a zero solution
        return 1e-13 * float(np.max(np.abs(b)))

    def check_cfl(self, u: VectorField):
        """Raise ``CFLViolationError`` unless dt meets both stability bounds.

        The advective error names max|u|.  A velocity with a NaN or an
        infinite face has no stable step, and the check is written so that
        it fails too: every comparison with a NaN is False.
        """
        dt, g = self.scheme.dt, self.grid
        h = min(g.dx, g.dy)
        visc_bound = h ** 2 / (8.0 * self.viscosity.nu_max)
        if dt > visc_bound:
            raise CFLViolationError(dt, visc_bound, "viscous")
        # np.maximum, unlike max(), keeps a NaN from either component
        umax = float(np.maximum(np.max(np.abs(u.ux)), np.max(np.abs(u.uy))))
        adv_bound = h / (4.0 * umax + 1e-12)
        if not dt <= adv_bound:
            raise CFLViolationError(dt, adv_bound,
                                    f"advective (velocity max|u| = {umax:.3e})")

    # -- phase step ----------------------------------------------------------

    def step_ch(self, phi: ScalarField, u: VectorField):
        """Advance the order parameter one step; returns (phi_new, mu_new)."""
        dt = self.scheme.dt
        g_expl = (chemical_potential(phi, self.kernel, self.potential).values
                  - self.c_bar * phi.values)
        b = (phi.values - dt * advect_scalar(u, phi).values
             + dt * laplacian_neumann_array(g_expl, self.grid))
        phi_new = self.solve_phase(b)
        mu_new = chemical_potential(phi_new, self.kernel, self.potential)
        return phi_new, mu_new

    def solve_phase(self, b: np.ndarray) -> ScalarField:
        """Implicit phase solve for right-hand side b, shared with the tangent.

        Solves phi_new - c_bar dt Lap_N phi_new = b.  The solver returns
        phi_new in flux form, so its cell sum equals that of b to round-off
        whatever the solve's residual.
        """
        phi_new, _ = self._helmholtz.solve(b, atol=self._atol(b))
        return ScalarField(self.grid, phi_new)

    # -- momentum step -------------------------------------------------------

    def project(self, u: VectorField) -> VectorField:
        """Leray projection of a copy of u: its boundary-normal faces are
        zeroed, then the pressure solve projects it in place.

        The solve's post-condition is the divergence gate, max|div u| <= tol_p
        on the velocity returned; a miss names the predictor's divergence
        too, since the round-off left is relative to it while tol_p is
        absolute.
        """
        u_star = u.copy().enforce_noslip_normal()
        return self._poisson.solve(u_star, atol=self.scheme.tol_p)[0]

    def advance_velocity(self, u: VectorField, rhs: VectorField) -> VectorField:
        """Explicit update u + dt rhs, projected; shared by all three sweeps.

        The predictor is formed in rhs's own arrays, which the caller hands
        over; its no-slip normal faces are zeroed once, and one pressure
        solve projects it in place and checks the divergence it leaves.
        """
        rhs.ux *= self.scheme.dt
        rhs.uy *= self.scheme.dt
        rhs += u
        rhs.enforce_noslip_normal()
        return self._poisson.solve(rhs, atol=self.scheme.tol_p)[0]

    def momentum_rhs(self, u: VectorField, phi_new: ScalarField,
                     mu_new: ScalarField, v: VectorField) -> VectorField:
        """Stress, advection, capillary force and control, summed in place."""
        nu_cc = ScalarField(self.grid, self.viscosity.nu(phi_new.values))
        rhs = stress_minus_advection(nu_cc, u, u)
        rhs += kelvin_force(mu_new, gradient_cc_to_face(phi_new))
        rhs += v
        return rhs

    def step_ns(self, u: VectorField, phi_new: ScalarField, mu_new: ScalarField,
                v: VectorField):
        """Explicit predictor plus projection; returns u_new."""
        return self.advance_velocity(u, self.momentum_rhs(u, phi_new, mu_new, v))

    # -- full run -------------------------------------------------------------

    def run(self, v_traj, init: InitialData) -> StateTrajectory:
        """Integrate nt steps storing every snapshot (needed by the sweeps)."""
        scheme = self.scheme
        if len(v_traj) != scheme.nt:
            raise ValueError(f"control has {len(v_traj)} steps, scheme wants {scheme.nt}")
        init.validate(scheme.tol_p)
        phi = init.phi0.copy()
        u = init.u0.copy()
        mu = chemical_potential(phi, self.kernel, self.potential)
        traj = StateTrajectory(
            self.grid, scheme, scheme.dt * np.arange(scheme.nt + 1),
            u=[u], phi=[phi], mu=[mu])
        for k in range(scheme.nt):
            try:
                # before the implicit phase solve, so a too-large dt fails fast
                self.check_cfl(traj.u[k])
                phi_new, mu_new = self.step_ch(traj.phi[k], traj.u[k])
                u_new = self.step_ns(traj.u[k], phi_new, mu_new, v_traj[k])
            except (CFLViolationError, SolverConvergenceError) as exc:
                raise StepFailureError(str(exc), step=k) from exc
            traj.phi.append(phi_new)
            traj.mu.append(mu_new)
            traj.u.append(u_new)
        return traj
