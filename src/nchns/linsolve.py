"""Solvers for the two Neumann problems in the scheme.

Both operators are built from the mirror-ghost Neumann Laplacian Lap_N:

* the SPD Helmholtz-type system u / c(x) - dt Lap_N u = b of the
  semi-implicit phase steps (forward, tangent and adjoint), with c > 0;
* the singular pressure Poisson problem Lap_N p = b, whose constant null
  space is projected out.

The Poisson problem is solved directly: on the uniform grid the DCT-II
basis diagonalizes Lap_N exactly, so one forward transform, a division by
the eigenvalues and one inverse transform give the mean-zero solution.
The residual is then checked against the requested tolerance.

Only the Helmholtz solve runs conjugate gradients, preconditioned with the
inverse of the operator's own diagonal, d = 1/c + dt (nfx/dx^2 + nfy/dy^2),
where nfx, nfy count the cell's interior faces along each axis.  Every
sweep holds dt to the viscous CFL bound dt <= h^2 / (8 nu_max), so the
diffusive part of d is at most s = 1 / (2 nu_max) on every grid.
Gershgorin then bounds the condition number of D^-1 A by
(1 + rho) / (1 - rho), rho = max s / (1/c + s) < 1.  The bound depends on
max c and nu_max only, not on the grid or on how far min c lies below
max c (the adjoint's a + F''(phi) spans more than an order of magnitude),
so the iteration count stays flat under refinement.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import Grid2D, laplacian_neumann_array


class SolverConvergenceError(RuntimeError):
    """Iterative solve failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def fft_workers() -> int:
    """Worker cap for FFT-backed kernels, from NCHNS_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("NCHNS_THREADS", "1")))
    except ValueError:
        return 1


@dataclass
class SolveInfo:
    """``iterations`` counts applications of the solver's inverse: the CG
    iterations for Helmholtz, 0 or 1 for the direct Poisson solve."""

    iterations: int
    residual: float


def _cg(apply_op, b, precond, atol, maxiter):
    """Preconditioned CG from x = 0, stopping when max|r| <= atol.

    A residual that is not finite (a NaN or inf in ``b`` or the operator)
    fails at once instead of running to ``maxiter``.  ``b`` is left
    unchanged.  The loop updates x, r and p in place and keeps
    one scratch buffer for alpha p and |r|, so an iteration allocates only
    the arrays ``apply_op`` and ``precond`` return; those must be fresh
    arrays, because the loop scales them in place.
    """
    x = np.zeros_like(b)
    r = b.copy()
    buf = np.empty_like(b)
    res = float(np.abs(r, out=buf).max())
    if res <= atol:
        return x, SolveInfo(0, res)
    p = precond(r)
    rz = float(np.vdot(r, p))
    for it in range(1, maxiter + 1):
        ap = apply_op(p)
        denom = float(np.vdot(p, ap))
        if denom <= 0.0:
            raise SolverConvergenceError(
                "CG breakdown: operator not positive definite on the iterate space",
                residual=res, iterations=it)
        alpha = rz / denom
        x += np.multiply(p, alpha, out=buf)
        ap *= alpha
        r -= ap
        res = float(np.abs(r, out=buf).max())
        if res <= atol:
            return x, SolveInfo(it, res)
        if not np.isfinite(res):
            raise SolverConvergenceError(f"CG residual is not finite ({res})",
                                         residual=res, iterations=it)
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverConvergenceError(
        f"CG did not reach residual {atol:.3e} in {maxiter} iterations "
        f"(got {res:.3e})", residual=res, iterations=maxiter)


class NeumannPoissonSolver:
    """Solves Lap_N p = b - mean(b) by DCT-II; p has zero mean.

    The solve is linear in ``b``.  ``atol`` is a post-condition on the
    residual, not a stopping test: a residual above it, or one that is not
    finite, raises ``SolverConvergenceError``.
    """

    def __init__(self, grid: Grid2D):
        self.grid = grid
        kx = np.arange(grid.nx)
        ky = np.arange(grid.ny)
        lam_x = (2.0 * np.cos(np.pi * kx / grid.nx) - 2.0) / grid.dx ** 2
        lam_y = (2.0 * np.cos(np.pi * ky / grid.ny) - 2.0) / grid.dy ** 2
        lam = lam_x[:, None] + lam_y[None, :]
        lam[0, 0] = 1.0
        self._inv_lam = 1.0 / lam
        self._inv_lam[0, 0] = 0.0

    def solve(self, b: np.ndarray, atol: float):
        rhs = b - b.mean()
        if not rhs.any():
            return np.zeros_like(rhs), SolveInfo(0, 0.0)
        w = fft_workers()
        rhat = sfft.dctn(rhs, type=2, norm="ortho", workers=w)
        rhat *= self._inv_lam
        x = sfft.idctn(rhat, type=2, norm="ortho", overwrite_x=True, workers=w)
        res = float(np.max(np.abs(rhs - laplacian_neumann_array(x, self.grid))))
        if not res <= atol:
            raise SolverConvergenceError(
                f"direct Poisson solve missed residual {atol:.3e} (got {res:.3e})",
                residual=res, iterations=1)
        return x, SolveInfo(1, res)


def _interior_faces(n: int) -> np.ndarray:
    """Interior faces of each cell along an axis of n cells (2, 1 at a wall)."""
    faces = np.full(n, 2.0)
    faces[0] -= 1.0
    faces[-1] -= 1.0
    return faces


class HelmholtzNeumannSolver:
    """Solves u / c(x) - dt Lap_N u = b with cellwise c > 0 (SPD system).

    CG is preconditioned with the inverse of the operator's diagonal,
    1/c + dt (nfx/dx^2 + nfy/dy^2), where nfx and nfy count the cell's
    interior faces along x and y (2 inside, 1 at a wall).
    Under the viscous CFL bound the condition number of the preconditioned
    system is bounded independently of the grid (see the module docstring).
    """

    def __init__(self, grid: Grid2D, c: np.ndarray, dt: float, maxiter: int = 4000):
        c = np.asarray(c, dtype=np.float64)
        if np.any(c <= 0.0):
            raise ValueError("Helmholtz coefficient must be positive everywhere")
        self.grid = grid
        self.inv_c = 1.0 / c
        self.dt = dt
        self.maxiter = maxiter
        nfx, nfy = _interior_faces(grid.nx), _interior_faces(grid.ny)
        self.diag = self.inv_c + dt * (nfx[:, None] / grid.dx ** 2
                                       + nfy[None, :] / grid.dy ** 2)
        self._inv_diag = 1.0 / self.diag

    def solve(self, b: np.ndarray, atol: float):
        grid, dt, inv_c, inv_diag = self.grid, self.dt, self.inv_c, self._inv_diag

        def apply_op(v):
            out = laplacian_neumann_array(v, grid)
            out *= -dt
            out += inv_c * v
            return out

        return _cg(apply_op, b, lambda r: r * inv_diag, atol=atol,
                   maxiter=self.maxiter)
