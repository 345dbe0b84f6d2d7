"""Independent reference implementations and the verification harness.

The reference implementations are written as plain loops or direct
summation so they share no code path with the package's fast
implementations.  The harness builds test fields from analytic functions and
checks what a solve computes: the Taylor test of the cost's derivative, the
complementarity conditions of the optimality system and per-step
diagnostics.  The hypothesis checks at the end sample the paper's
conditions on a kernel, a potential and a viscosity profile.  No solve reads
any of it.
"""

from dataclasses import dataclass, field

import numpy as np

from nchns import (ScalarField, VectorField, directional_derivative_via_tangent,
                   divergence_face_to_cc, evaluate_cost, inner_product_l2,
                   integral, run_tangent, total_energy)
from nchns.grid import laplacian_neumann_array
from nchns.optimize import control_axpy


def stencils(kernel):
    """The 2-D tables (K, d/dx K, d/dy K) of a separable kernel.

    Entry [m, l] is the value at offset ((m - nx + 1) dx, (l - ny + 1) dy),
    formed from ``kernel.factors`` as outer products.
    """
    fx, dfx, fy, dfy = kernel.factors
    return np.outer(fx, fy), np.outer(dfx, fy), np.outer(fx, dfy)


def direct_convolution(kernel, phi_values, stencil=None):
    """O(N^2) double sum of a tabulated stencil against a cell field.

    ``stencil`` defaults to the kernel's own; pass the second or third table
    of ``stencils(kernel)`` for the components of (grad K * phi).
    """
    nx, ny = phi_values.shape
    out = np.zeros_like(phi_values)
    st = stencils(kernel)[0] if stencil is None else stencil
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
    _, gx, gy = stencils(kernel)
    for i in range(nx):
        for j in range(ny):
            slx = gx[i:i + nx, j:j + ny][::-1, ::-1]
            sly = gy[i:i + nx, j:j + ny][::-1, ::-1]
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
    _, gx, gy = stencils(kernel)
    return _edge_faces(direct_convolution(kernel, phi_values, gx),
                       direct_convolution(kernel, phi_values, gy))


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
    st = stencils(kernel)[0]
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
# test fields, norms and the Laplacian of a field

def xface_centers(grid):
    """Meshgrid (X, Y) of x-face centers, shape (nx+1, ny)."""
    x = np.arange(grid.nx + 1) * grid.dx
    y = (np.arange(grid.ny) + 0.5) * grid.dy
    return np.meshgrid(x, y, indexing="ij")


def yface_centers(grid):
    """Meshgrid (X, Y) of y-face centers, shape (nx, ny+1)."""
    x = (np.arange(grid.nx) + 0.5) * grid.dx
    y = np.arange(grid.ny + 1) * grid.dy
    return np.meshgrid(x, y, indexing="ij")


def scalar_from_function(grid, fn):
    """The cell field fn(x, y) sampled at the cell centers."""
    X, Y = grid.cell_centers()
    return ScalarField(grid, np.asarray(fn(X, Y), dtype=np.float64))


def vector_from_functions(grid, fx, fy):
    """The face field (fx, fy) sampled at the x- and y-face centers."""
    return VectorField(grid, np.asarray(fx(*xface_centers(grid)), dtype=np.float64),
                       np.asarray(fy(*yface_centers(grid)), dtype=np.float64))


def norm_l2(f) -> float:
    return float(np.sqrt(max(inner_product_l2(f, f), 0.0)))


def laplacian_neumann(phi):
    """5-point Laplacian with mirror (zero-flux) ghost cells, as a field."""
    return ScalarField(phi.grid, laplacian_neumann_array(phi.values, phi.grid))


# ---------------------------------------------------------------------------
# per-step diagnostics of a stored trajectory

DIAGNOSTIC_COLUMNS = ("step", "time", "mass", "kinetic_energy", "free_energy",
                      "max_div", "max_u", "min_phi", "max_phi")


def diagnostics(traj, kernel, potential):
    """Per-step observables as a list of rows matching DIAGNOSTIC_COLUMNS."""
    rows = []
    for k in range(traj.nt + 1):
        u, phi = traj.u[k], traj.phi[k]
        kin, mixing, bulk = total_energy(u, phi, kernel, potential)
        rows.append({
            "step": k,
            "time": float(traj.times[k]),
            "mass": integral(phi),
            "kinetic_energy": kin,
            "free_energy": mixing + bulk,
            "max_div": float(np.max(np.abs(divergence_face_to_cc(u).values))),
            # np.maximum, unlike max(), keeps a NaN from either component
            "max_u": float(np.maximum(np.max(np.abs(u.ux)), np.max(np.abs(u.uy)))),
            "min_phi": float(phi.values.min()),
            "max_phi": float(phi.values.max()),
        })
    return rows


# ---------------------------------------------------------------------------
# first-order optimality: the complementarity conditions

def complementarity_violation(v, g, bounds) -> float:
    """Worst violation of the active-set sign conditions.

    Strictly interior faces need |g| small; faces at the lower bound need
    g >= 0 up to slack; faces at the upper bound need g <= 0 up to slack.
    Returns the max over all faces and steps of the respective defect, NaN
    if a defect is NaN: np.maximum, unlike max(), keeps a NaN.
    """
    worst = 0.0
    for vk, gk, lo, hi in zip(v, g, bounds.lower, bounds.upper, strict=True):
        for vc, gc, lc, hc in ((vk.ux, gk.ux, lo.ux, hi.ux),
                               (vk.uy, gk.uy, lo.uy, hi.uy)):
            at_lo = vc <= lc
            at_hi = vc >= hc
            defect = np.where(at_lo | at_hi, 0.0, np.abs(gc))
            defect = np.maximum(defect, np.where(at_lo, -gc, 0.0))
            defect = np.maximum(defect, np.where(at_hi, gc, 0.0))
            worst = np.maximum(worst, np.max(defect))
    return float(worst)


# ---------------------------------------------------------------------------
# quadratic-remainder (Taylor) verification of the cost's derivative

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


def taylor_test(problem, v, h, eps_sweep=(1e-1, 1e-2, 1e-3, 1e-4),
                derivative=None) -> TaylorReport:
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
    st = stencils(kernel)[0]
    max_asym = float(np.max(np.abs(st - st[::-1, ::-1])))
    scale = float(np.max(np.abs(st))) or 1.0
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


@dataclass(frozen=True)
class GrowthConstants:
    """The constants of the growth conditions on the potential.

    c2, c3, p: polynomial growth floor F'' + a >= c2 |s|^{p-2} - c3;
    c4, c5, r: |F'|^r <= c4 |F| + c5.  No solve reads them; the coercivity
    constant c1, which the kernel scaling reads, is
    ``nchns.HypothesisConstants``.
    """

    c2: float = 1.0
    c3: float = 1.0
    c4: float = 5.0
    c5: float = 1.0
    p: float = 4.0
    r: float = 4.0 / 3.0

    def __post_init__(self):
        if min(self.c2, self.c3, self.c4) <= 0 or self.c5 < 0:
            raise ValueError("growth constants must be positive (c5 >= 0)")
        if self.p <= 2:
            raise ValueError("growth exponent p must exceed 2")
        if not (1.0 < self.r <= 2.0):
            raise ValueError("exponent r must lie in (1, 2]")


def validate_potential_conditions(potential, kernel, constants,
                                  growth=GrowthConstants(),
                                  s_range=(-10.0, 10.0), n_samples=10_000):
    """Sample the three conditions on F against the kernel's mass field.

    ``constants`` is the package's ``HypothesisConstants`` (c1), ``growth``
    the constants of the two growth conditions.  The conditions are stated
    for all real s; this checks them densely on a finite interval (recorded
    in the report) using min_x a(x), which is the worst case in x for all
    three.
    """
    s = np.linspace(s_range[0], s_range[1], n_samples)
    a_min = float(kernel.mass_field.values.min())
    c = growth
    report = HypothesisReport(s_interval=tuple(s_range))

    m1 = potential.d2f(s) + a_min - constants.c1
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
