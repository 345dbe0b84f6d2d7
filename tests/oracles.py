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
