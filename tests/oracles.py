"""Independent reference implementations used only by the test suite.

Everything here is written as plain loops or direct summation so it shares
no code path with the package's fast implementations.  The hypothesis checks
at the end sample the paper's conditions on a kernel, a potential and a
viscosity profile; the solvers never read them.
"""

from dataclasses import dataclass, field

import numpy as np


def direct_convolution(kernel, phi_values, stencil=None):
    """O(N^2) double sum of a tabulated stencil against a cell field.

    ``stencil`` defaults to the kernel's own; pass ``kernel.gx_stencil`` or
    ``kernel.gy_stencil`` for the components of (grad K * phi).
    """
    nx, ny = phi_values.shape
    out = np.zeros_like(phi_values)
    st = kernel.stencil if stencil is None else stencil
    for i in range(nx):
        for j in range(ny):
            # reversed slice puts K((i-k) dx, (j-l) dy) against phi[k, l]
            sl = st[i:i + nx, j:j + ny][::-1, ::-1]
            out[i, j] = np.sum(sl * phi_values)
    return out * kernel.grid.cell_volume


def direct_grad_dot_convolution(kernel, qx_cc, qy_cc):
    """Direct double sum of grad K (x - y) . grad q(y)."""
    nx, ny = qx_cc.shape
    out = np.zeros_like(qx_cc)
    for i in range(nx):
        for j in range(ny):
            slx = kernel.gx_stencil[i:i + nx, j:j + ny][::-1, ::-1]
            sly = kernel.gy_stencil[i:i + nx, j:j + ny][::-1, ::-1]
            out[i, j] = np.sum(slx * qx_cc) + np.sum(sly * qy_cc)
    return out * kernel.grid.cell_volume


def _edge_faces(tx, ty):
    """Cell-centered components averaged to faces; a boundary face copies its cell."""
    ux = np.concatenate([tx[:1], 0.5 * (tx[1:] + tx[:-1]), tx[-1:]], axis=0)
    uy = np.concatenate([ty[:, :1], 0.5 * (ty[:, 1:] + ty[:, :-1]), ty[:, -1:]],
                        axis=1)
    return ux, uy


def direct_grad_convolution(kernel, phi_values):
    """(grad K * phi) on faces as (ux, uy), by direct sums over the gradient
    stencils at cell centers, averaged to faces by ``_edge_faces``."""
    return _edge_faces(direct_convolution(kernel, phi_values, kernel.gx_stencil),
                       direct_convolution(kernel, phi_values, kernel.gy_stencil))


def direct_neumann_laplacian(v, dx, dy):
    """5-point Laplacian with explicit mirror ghosts v[-1] = v[0], v[n] = v[n-1]."""
    nx, ny = v.shape
    out = np.zeros_like(v)
    for i in range(nx):
        for j in range(ny):
            west = v[i - 1, j] if i > 0 else v[0, j]
            east = v[i + 1, j] if i < nx - 1 else v[nx - 1, j]
            south = v[i, j - 1] if j > 0 else v[i, 0]
            north = v[i, j + 1] if j < ny - 1 else v[i, ny - 1]
            out[i, j] = ((east - 2.0 * v[i, j] + west) / dx ** 2
                         + (north - 2.0 * v[i, j] + south) / dy ** 2)
    return out


def direct_node_average(c):
    """Mean of the four cells around each node, cell indices clamped to the grid."""
    nx, ny = c.shape
    out = np.zeros((nx + 1, ny + 1))
    for i in range(nx + 1):
        for j in range(ny + 1):
            total = 0.0
            for a in (i - 1, i):
                for b in (j - 1, j):
                    total += c[min(max(a, 0), nx - 1), min(max(b, 0), ny - 1)]
            out[i, j] = 0.25 * total
    return out


def _noslip_ghost(a, i, j):
    """a[i, j] with no-slip reflection ghosts outside the array: a[-1] = -a[0]."""
    n, m = a.shape
    sign = 1.0
    if i < 0 or i >= n:
        i, sign = min(max(i, 0), n - 1), -sign
    if j < 0 or j >= m:
        j, sign = min(max(j, 0), m - 1), -sign
    return sign * a[i, j]


def direct_node_shear_rates(ux, uy, dx, dy):
    """(d_y ux, d_x uy) at every grid node, wall nodes included, one node at a
    time: the difference of the two faces on either side of the node, with
    no-slip reflection ghosts outside the domain."""
    nx, ny = uy.shape[0], ux.shape[1]
    duxdy = np.zeros((nx + 1, ny + 1))
    duydx = np.zeros((nx + 1, ny + 1))
    for i in range(nx + 1):
        for j in range(ny + 1):
            duxdy[i, j] = (_noslip_ghost(ux, i, j) - _noslip_ghost(ux, i, j - 1)) / dy
            duydx[i, j] = (_noslip_ghost(uy, i, j) - _noslip_ghost(uy, i - 1, j)) / dx
    return duxdy, duydx


def direct_viscous_stress(nu, ux, uy, dx, dy):
    """2 div(nu D u) on interior faces, one face at a time.

    The normal stresses 2 nu d_x ux and 2 nu d_y uy live at cell centers; the
    shear stress nu (d_y ux + d_x uy) lives at nodes, with the velocity's
    no-slip reflection ghosts and the node viscosity the mean of the four
    surrounding cells (edge-replicated outside).  Boundary faces are zero.
    """
    nx, ny = nu.shape
    node_nu = direct_node_average(nu)

    def txx(i, j):
        return 2.0 * nu[i, j] * (ux[i + 1, j] - ux[i, j]) / dx

    def tyy(i, j):
        return 2.0 * nu[i, j] * (uy[i, j + 1] - uy[i, j]) / dy

    def txy(i, j):
        duxdy = (_noslip_ghost(ux, i, j) - _noslip_ghost(ux, i, j - 1)) / dy
        duydx = (_noslip_ghost(uy, i, j) - _noslip_ghost(uy, i - 1, j)) / dx
        return node_nu[i, j] * (duxdy + duydx)

    out_x = np.zeros((nx + 1, ny))
    out_y = np.zeros((nx, ny + 1))
    for i in range(1, nx):
        for j in range(ny):
            out_x[i, j] = ((txx(i, j) - txx(i - 1, j)) / dx
                           + (txy(i, j + 1) - txy(i, j)) / dy)
    for i in range(nx):
        for j in range(1, ny):
            out_y[i, j] = ((tyy(i, j) - tyy(i, j - 1)) / dy
                           + (txy(i + 1, j) - txy(i, j)) / dx)
    return out_x, out_y


def direct_advect_vector(ux, uy, wx, wy, dx, dy):
    """(u . grad) w on interior faces by centered differences, one face at a time.

    The transverse velocity is the mean of the four faces around each face;
    the transverse difference of w reads no-slip reflection ghosts outside
    the domain.  Boundary faces are zero.
    """
    nx, ny = uy.shape[0], ux.shape[1]
    out_x = np.zeros((nx + 1, ny))
    out_y = np.zeros((nx, ny + 1))
    for i in range(1, nx):
        for j in range(ny):
            v = 0.25 * (uy[i - 1, j] + uy[i, j] + uy[i - 1, j + 1] + uy[i, j + 1])
            out_x[i, j] = (ux[i, j] * (wx[i + 1, j] - wx[i - 1, j]) / (2.0 * dx)
                           + v * (_noslip_ghost(wx, i, j + 1)
                                  - _noslip_ghost(wx, i, j - 1)) / (2.0 * dy))
    for i in range(nx):
        for j in range(1, ny):
            v = 0.25 * (ux[i, j - 1] + ux[i + 1, j - 1] + ux[i, j] + ux[i + 1, j])
            out_y[i, j] = (uy[i, j] * (wy[i, j + 1] - wy[i, j - 1]) / (2.0 * dy)
                           + v * (_noslip_ghost(wy, i + 1, j)
                                  - _noslip_ghost(wy, i - 1, j)) / (2.0 * dx))
    return out_x, out_y


def pairwise_mixing_energy(kernel, phi_values):
    """(1/4) sum_x sum_y K(x-y) (phi(x) - phi(y))^2 dx dy dx dy, literal loops."""
    nx, ny = phi_values.shape
    st = kernel.stencil
    vol = kernel.grid.cell_volume
    total = 0.0
    for i in range(nx):
        for j in range(ny):
            sl = st[i:i + nx, j:j + ny][::-1, ::-1]
            diff = phi_values[i, j] - phi_values
            total += np.sum(sl * diff ** 2)
    return 0.25 * total * vol * vol


def quadrature_cost(traj, v, targets, weights):
    """Re-evaluate the tracking cost with explicit loops over faces/cells."""
    dt = traj.scheme.dt
    vol = traj.grid.cell_volume
    nt = traj.nt

    def vec_sq(a, b):
        wx = np.ones_like(a.ux)
        wx[0, :] = wx[-1, :] = 0.5
        wy = np.ones_like(a.uy)
        wy[:, 0] = wy[:, -1] = 0.5
        return (np.sum(wx * (a.ux - b.ux) ** 2)
                + np.sum(wy * (a.uy - b.uy) ** 2)) * vol

    def sc_sq(a, b):
        return np.sum((a.values - b.values) ** 2) * vol

    J = 0.0
    for k in range(nt):
        J += 0.5 * weights.b1 * dt * vec_sq(traj.u[k], targets.u_running[k])
        J += 0.5 * weights.b2 * dt * sc_sq(traj.phi[k], targets.phi_running[k])
    J += 0.5 * weights.b3 * vec_sq(traj.u[nt], targets.u_terminal)
    J += 0.5 * weights.b4 * sc_sq(traj.phi[nt], targets.phi_terminal)
    for k in range(nt):
        zx = np.zeros_like(v[k].ux)
        zy = np.zeros_like(v[k].uy)

        class _Z:
            ux, uy = zx, zy
        J += 0.5 * weights.gamma * dt * vec_sq(v[k], _Z)
    return J


def fit_slope(xs, ys):
    """Least-squares log-log slope."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


# ---------------------------------------------------------------------------
# hypothesis checks: the paper's conditions on the kernel, the potential and
# the viscosity, sampled and reported rather than raised

@dataclass
class AdmissibilityReport:
    symmetric: bool
    max_asymmetry: float
    mass_nonnegative: bool
    mass_min: float
    smoothing_ratio: float
    ratios: list

    @property
    def passed(self) -> bool:
        return self.symmetric and self.mass_nonnegative


def _edge_gradient_norm(ux, uy, dx, dy, vol):
    """L2 norm of grad w for face components that need not vanish on the walls.

    The diagonal entries difference across cells; the off-diagonal ones
    difference at nodes, replicating the edge faces outside, and are averaged
    to cell centers.
    """
    def nodes_to_cc(n):
        return 0.25 * (n[1:, 1:] + n[1:, :-1] + n[:-1, 1:] + n[:-1, :-1])

    duxdy = np.diff(np.pad(ux, ((0, 0), (1, 1)), mode="edge"), axis=1) / dy
    duydx = np.diff(np.pad(uy, ((1, 1), (0, 0)), mode="edge"), axis=0) / dx
    comps = (np.diff(ux, axis=0) / dx, nodes_to_cc(duxdy), nodes_to_cc(duydx),
             np.diff(uy, axis=1) / dy)
    return float(np.sqrt(sum(np.sum(c ** 2) for c in comps) * vol))


def check_admissibility(kernel, samples=8, rng=None):
    """Empirical check of the admissible-kernel properties.

    Verifies the tabulated symmetry K(z) = K(-z) and a(x) >= 0 exactly, and
    estimates sup ||grad(grad K * psi)||_2 / ||psi||_2 over random unit-norm
    psi at the kernel's grid resolution, with grad K * psi from
    ``direct_grad_convolution``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    flip = kernel.stencil[::-1, ::-1]
    max_asym = float(np.max(np.abs(kernel.stencil - flip)))
    scale = float(np.max(np.abs(kernel.stencil))) or 1.0
    symmetric = max_asym <= 1e-12 * scale
    mass_min = float(kernel.mass_field.values.min())
    mass_ok = mass_min >= -1e-12

    grid = kernel.grid
    X, Y = grid.cell_centers()
    ratios = []
    for _ in range(samples):
        # smooth random probes (fixed physical modes) so the estimated
        # quotient is comparable across grid refinements
        vals = np.zeros((grid.nx, grid.ny))
        for kx in range(4):
            for ky in range(4):
                vals += rng.standard_normal() * np.cos(np.pi * kx * X / grid.lx) \
                    * np.cos(np.pi * ky * Y / grid.ly)
        ux, uy = direct_grad_convolution(kernel, vals)
        gnorm = _edge_gradient_norm(ux, uy, grid.dx, grid.dy, grid.cell_volume)
        ratios.append(gnorm / float(np.sqrt(np.sum(vals ** 2) * grid.cell_volume)))
    return AdmissibilityReport(symmetric, max_asym, mass_ok, mass_min,
                               max(ratios), ratios)


@dataclass
class ConditionResult:
    name: str
    passed: bool
    margin: float
    worst_s: float
    detail: str = ""


@dataclass
class HypothesisReport:
    conditions: list = field(default_factory=list)
    s_interval: tuple = (-10.0, 10.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def lines(self):
        out = [f"validated on s in [{self.s_interval[0]:g}, {self.s_interval[1]:g}]"]
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            out.append(f"  [{status}] {c.name}: margin {c.margin:+.4e} "
                       f"(worst at s = {c.worst_s:+.4f}) {c.detail}")
        return out


def validate_potential_conditions(potential, kernel, constants,
                                  s_range=(-10.0, 10.0), n_samples=10_000):
    """Sample the three conditions on F against the kernel's mass field.

    The conditions are stated for all real s; this checks them densely on a
    finite interval (recorded in the report) using min_x a(x), which is the
    worst case in x for all three.
    """
    s = np.linspace(s_range[0], s_range[1], n_samples)
    a_min = float(kernel.mass_field.values.min())
    c = constants
    report = HypothesisReport(s_interval=tuple(s_range))

    m1 = potential.d2f(s) + a_min - c.c1
    i1 = int(np.argmin(m1))
    report.conditions.append(ConditionResult(
        "coercivity F'' + a >= c1", bool(m1[i1] >= 0), float(m1[i1]), float(s[i1]),
        detail=f"min_x a = {a_min:.4f}"))

    m2 = potential.d2f(s) + a_min - (c.c2 * np.abs(s) ** (c.p - 2.0) - c.c3)
    i2 = int(np.argmin(m2))
    report.conditions.append(ConditionResult(
        "growth F'' + a >= c2|s|^(p-2) - c3", bool(m2[i2] >= 0), float(m2[i2]),
        float(s[i2]), detail=f"p = {c.p:g}"))

    m3 = c.c4 * np.abs(potential.f(s)) + c.c5 - np.abs(potential.df(s)) ** c.r
    i3 = int(np.argmin(m3))
    report.conditions.append(ConditionResult(
        "control |F'|^r <= c4|F| + c5", bool(m3[i3] >= 0), float(m3[i3]),
        float(s[i3]), detail=f"r = {c.r:g}"))
    return report


def validate_viscosity_bounds(viscosity, s_range=(-10.0, 10.0), n_samples=10_000):
    """Analytic range check plus dense sampling of the viscosity profile."""
    report = HypothesisReport(s_interval=tuple(s_range))
    lo = viscosity.mean - abs(viscosity.modulation)
    hi = viscosity.mean + abs(viscosity.modulation)
    report.conditions.append(ConditionResult(
        "analytic bounds nu_min <= nu <= nu_max",
        bool(lo >= viscosity.nu_min and hi <= viscosity.nu_max),
        float(min(lo - viscosity.nu_min, viscosity.nu_max - hi)),
        float("inf"), detail=f"range [{lo:g}, {hi:g}]"))

    s = np.linspace(s_range[0], s_range[1], n_samples)
    nu = viscosity.nu(s)
    m = np.minimum(nu - viscosity.nu_min, viscosity.nu_max - nu)
    i = int(np.argmin(m))
    report.conditions.append(ConditionResult(
        "sampled bounds", bool(m[i] >= 0), float(m[i]), float(s[i])))
    return report
