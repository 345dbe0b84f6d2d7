"""Direct solvers for the two Neumann problems in the scheme.

Both operators are built from the mirror-ghost Neumann Laplacian Lap_N:

* the Helmholtz problem u - c dt Lap_N u = b of the semi-implicit phase
  steps (forward, tangent and adjoint), with a constant c > 0;
* the pressure projection of a no-slip predictor u*: Lap_N q = div u*,
  then u = u* - grad q.  Lap_N is singular on the constants, and the
  inverse symbol is zero on that mode, so the solve drops the mean of
  div u* (round-off for a predictor with zero boundary-normal faces).

On the uniform grid the DCT-II basis diagonalizes Lap_N exactly, so each
problem is one forward transform, a multiply by the inverse of the
operator's eigenvalues and one inverse transform.  The eigenvalues, like
the Laplacian's matrix, are tabulated once per grid.  The phase steps keep
c constant by moving the variable part of their coefficient into the
explicit terms (see ``forward`` and ``adjoint``).

The transform takes one of two paths, chosen from max(nx, ny) alone:

* below ``_DENSE_BELOW`` = 96, dense products with the orthonormal DCT-II
  matrices C_x, C_y, tabulated once per axis length: C_x rhs C_y^T, the
  multiply, then C_x^T (.) C_y.  On small grids scipy.fft's per-call
  dispatch outweighs the arithmetic, and four small BLAS products win;
* from 96 up, scipy.fft's ``dctn`` and ``idctn``, whose O(n^2 log n) cost
  wins over the products' O(n^3).

Dense time over transform time on one thread (median of three passes of
best-of-seven timings on a shared 2-vCPU x86_64 VM, OpenBLAS, square
grids); "Helmholtz" is the transform pair alone, "projection" the whole
in-place projection of each path, both divergences included:

    n           16    24    32    48    64    96   112   128   192   256
    Helmholtz  0.22  0.25  0.31  0.42  0.56  0.80  1.21  1.23  1.98  2.75
    projection 0.51  0.50  0.55  0.61  0.74  0.93  1.16  1.26  1.26  1.61

Both ratios pass 1 between 96 and 112; single Helmholtz passes at 96 read
0.7-1.2, a wash, so the crossover is set at 96.  32^2 and 64^2 grids take
the dense path, 128^2 grids the transform path.

The projection works in the predictor's own arrays: it takes b = div u*,
solves for q and subtracts grad q from u*, leaving the boundary-normal
faces as they are.  On the dense path grad q is synthesized from the
spectral solution q^ directly, g_x = G_x q^ C_y and g_y = C_x^T q^ G_y^T,
where G holds the face differences of the cosine modes and has zero
boundary rows; it is not differenced from a q synthesized in cell space,
which rounds twice.  On the transform path the interior face differences
of q are subtracted.  Either way the post-condition is the divergence
gate itself: ``atol`` (the scheme's tol_p) bounds max|div u| of the
velocity returned, and a miss names max|div u*| too, since the round-off
left is relative to the predictor's divergence while tol_p is absolute.
On the 24 x 40 (lx = 2) grid, twenty white-noise predictors of amplitude
100 keep a max|div u| of at most 2.6e-11 after the dense projection and
1.9e-11 after the transform path, against the default tol_p = 1e-10; a
dense pressure synthesized in cell space and then differenced left up to
4.6e-11 when the path was chosen.

The Helmholtz solve returns its solution in flux form, u = b + dt Lap_N psi
with psi = c u from the transform: the cell sum of u is then that of b to
round-off whatever the transform's error, so the phase steps conserve
mass, and the same Laplacian gives the residual u - psi / c.  In both
solves ``atol`` is a post-condition, not a stopping test: a residual above
it, or one that is not finite, raises ``SolverConvergenceError``.

The transforms run on scipy.fft's default of one worker; a caller that
wants more wraps its calls in ``scipy.fft.set_workers``.  The dense
products run on the BLAS library's threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import (Grid2D, VectorField, _laplacian_matrix, divergence_face_to_cc,
                   laplacian_neumann_array)


class SolverConvergenceError(RuntimeError):
    """A direct solve missed its residual post-condition, or met a value
    that is not finite."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolveInfo:
    """``iterations`` counts applications of the solver's inverse, 1 per
    solve.  ``residual`` is max|r| of the returned solution: the Helmholtz
    residual, or the divergence the projection leaves."""

    iterations: int
    residual: float


@functools.cache
def _neumann_eigenvalues(grid: Grid2D) -> np.ndarray:
    """Eigenvalues of -Lap_N in the DCT-II basis; 0 for the constant mode.

    One read-only table per grid value, shared by every solver on it.
    """
    lam_x = (2.0 - 2.0 * np.cos(np.pi * np.arange(grid.nx) / grid.nx)) / grid.dx ** 2
    lam_y = (2.0 - 2.0 * np.cos(np.pi * np.arange(grid.ny) / grid.ny)) / grid.dy ** 2
    lam = lam_x[:, None] + lam_y[None, :]
    lam.flags.writeable = False
    return lam


# the measured crossover of the two paths (see the module docstring)
_DENSE_BELOW = 96


def _dense(shape) -> bool:
    """Whether a grid of this shape takes the dense cosine-basis path."""
    return max(shape) < _DENSE_BELOW


@functools.cache
def _cosine_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C of axis length n, read-only.

    C @ v is ``dct(v, type=2, norm="ortho")`` and C.T inverts it; the
    table is that transform of the identity, so both paths share one basis.
    """
    c = sfft.dct(np.eye(n), type=2, norm="ortho", axis=0)
    c.flags.writeable = False
    return c


@functools.cache
def _cosine_gradient(n: int, h: float) -> np.ndarray:
    """Face differences of the cosine modes, an (n + 1, n) read-only table.

    Row i is the difference quotient of C.T across face i; the two
    boundary rows are zero, so a gradient synthesized with it has exactly
    zero boundary-normal faces.
    """
    gamma = np.zeros((n + 1, n))
    gamma[1:-1] = np.diff(_cosine_basis(n).T, axis=0) / h
    gamma.flags.writeable = False
    return gamma


def _dct_solve(rhs: np.ndarray, inv_symbol: np.ndarray) -> np.ndarray:
    """Scales rhs's DCT-II coefficients by inv_symbol and transforms back:
    scipy.fft at and above the crossover, dense products below it."""
    if not _dense(rhs.shape):
        rhat = sfft.dctn(rhs, type=2, norm="ortho")
        rhat *= inv_symbol
        return sfft.idctn(rhat, type=2, norm="ortho", overwrite_x=True)
    cx, cy = _cosine_basis(rhs.shape[0]), _cosine_basis(rhs.shape[1])
    rhat = cx @ rhs @ cy.T
    rhat *= inv_symbol
    return cx.T @ rhat @ cy


class NeumannPoissonSolver:
    """Projects a no-slip predictor u* onto max|div u| <= atol, in place.

    One solve takes b = div u*, solves Lap_N q = b for the pressure
    increment q and subtracts grad q from u* in its own arrays.  Below the
    crossover grad q is synthesized in the cosine basis (see the module
    docstring); above it q comes from scipy.fft and its interior
    differences are subtracted.  Either way the boundary-normal faces of u*
    are left as they are, zero for a no-slip predictor, and ``atol`` bounds
    max|div u| of the velocity returned; a miss, or a value that is not
    finite, raises and names both max|div u| and max|div u*|.
    """

    def __init__(self, grid: Grid2D):
        self.grid = grid
        lam = _neumann_eigenvalues(grid)
        self._inv_lam = np.divide(-1.0, lam, out=np.zeros_like(lam), where=lam != 0.0)
        if _dense((grid.nx, grid.ny)):
            _cosine_gradient(grid.nx, grid.dx)
            _cosine_gradient(grid.ny, grid.dy)

    def solve(self, u: VectorField, atol: float):
        """Projects u (zero boundary-normal faces) in place; ``(u, SolveInfo)``."""
        grid = self.grid
        b = divergence_face_to_cc(u).values
        if _dense(b.shape):
            cx, cy = _cosine_basis(grid.nx), _cosine_basis(grid.ny)
            qhat = cx @ b @ cy.T
            qhat *= self._inv_lam
            u.ux -= _cosine_gradient(grid.nx, grid.dx) @ (qhat @ cy)
            u.uy -= (cx.T @ qhat) @ _cosine_gradient(grid.ny, grid.dy).T
        else:
            q = _dct_solve(b, self._inv_lam)
            dq = np.subtract(q[1:], q[:-1])
            dq /= grid.dx
            u.ux[1:-1] -= dq
            dq = np.subtract(q[:, 1:], q[:, :-1])
            dq /= grid.dy
            u.uy[:, 1:-1] -= dq
        res = float(np.abs(divergence_face_to_cc(u).values).max())
        if not res <= atol:
            raise SolverConvergenceError(
                f"projection left max|div u| = {res:.3e} > tol_p = {atol:.3e} from "
                f"a predictor with max|div u*| = {float(np.max(np.abs(b))):.3e}",
                residual=res, iterations=1)
        return u, SolveInfo(1, res)


class HelmholtzNeumannSolver:
    """Solves u - c dt Lap_N u = b by DCT-II, for a constant c > 0.

    The transform inverts the equivalent operator psi / c - dt Lap_N psi
    for psi = c u; the solution is rebuilt from psi in flux form,
    u = b + dt Lap_N psi, which keeps the cell sum of b to round-off (see
    the module docstring).  Its residual in the psi equation is u - psi / c.
    """

    def __init__(self, grid: Grid2D, c: float, dt: float):
        c = float(c)
        if not c > 0.0:
            raise ValueError(f"Helmholtz coefficient must be positive, got {c}")
        self.grid = grid
        self.inv_c = 1.0 / c
        self.dt = dt
        self._inv_symbol = 1.0 / (self.inv_c + dt * _neumann_eigenvalues(grid))
        _laplacian_matrix(grid)     # tabulated in set-up, before any solve
        if _dense((grid.nx, grid.ny)):
            _cosine_basis(grid.nx)
            _cosine_basis(grid.ny)

    def solve(self, b: np.ndarray, atol: float):
        psi = _dct_solve(b, self._inv_symbol)
        u = laplacian_neumann_array(psi, self.grid)
        u *= self.dt
        u += b
        psi *= -self.inv_c          # the residual u - psi / c, in psi's buffer
        psi += u
        res = float(np.max(np.abs(psi)))
        if not res <= atol:
            raise SolverConvergenceError(
                f"direct Helmholtz solve missed residual {atol:.3e} (got {res:.3e})",
                residual=res, iterations=1)
        return u, SolveInfo(1, res)
