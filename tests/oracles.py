"""Independent reference implementations used only by the test suite.

Everything here is written as plain loops or direct summation so it shares
no code path with the package's fast implementations.
"""

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
