"""Direct solvers for the two Neumann problems in the scheme.

Both operators are built from the mirror-ghost Neumann Laplacian Lap_N:

* the Helmholtz problem u / c - dt Lap_N u = b of the semi-implicit phase
  steps (forward, tangent and adjoint), with a constant c > 0;
* the singular pressure Poisson problem Lap_N p = b, whose constant null
  space is projected out.

On the uniform grid the DCT-II basis diagonalizes Lap_N exactly, so each
problem is one forward transform, a multiply by the inverse of the
operator's eigenvalues and one inverse transform.  The phase steps keep
c constant by moving the variable part of their coefficient into the
explicit terms (see ``forward`` and ``adjoint``).  ``atol`` is a post-condition on the residual, not a stopping
test: a residual above it, or one that is not finite, raises
``SolverConvergenceError``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import Grid2D, laplacian_neumann_array


class SolverConvergenceError(RuntimeError):
    """A direct solve missed its residual post-condition, or met a value
    that is not finite."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def fft_workers() -> int:
    """Worker cap for the FFTs and DCTs, from NCHNS_THREADS (default 1).

    It caps FFT workers only.  The Toeplitz products of separable kernels
    run on numpy's BLAS, whose thread count its own variables set
    (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``); the benchmark's
    ``perfbench/run.py`` pins those to 1 as well.
    """
    try:
        return max(1, int(os.environ.get("NCHNS_THREADS", "1")))
    except ValueError:
        return 1


@dataclass
class SolveInfo:
    """``iterations`` counts applications of the solver's inverse: 1 per
    solve, 0 for the Poisson solve of a constant right-hand side.
    ``residual`` is max|r| of the returned solution."""

    iterations: int
    residual: float


def _neumann_eigenvalues(grid: Grid2D) -> np.ndarray:
    """Eigenvalues of -Lap_N in the DCT-II basis; 0 for the constant mode."""
    lam_x = (2.0 - 2.0 * np.cos(np.pi * np.arange(grid.nx) / grid.nx)) / grid.dx ** 2
    lam_y = (2.0 - 2.0 * np.cos(np.pi * np.arange(grid.ny) / grid.ny)) / grid.dy ** 2
    return lam_x[:, None] + lam_y[None, :]


def _dct_solve(rhs: np.ndarray, inv_symbol: np.ndarray) -> np.ndarray:
    w = fft_workers()
    rhat = sfft.dctn(rhs, type=2, norm="ortho", workers=w)
    rhat *= inv_symbol
    return sfft.idctn(rhat, type=2, norm="ortho", overwrite_x=True, workers=w)


def _checked(x, r, atol, problem):
    """``(x, SolveInfo)`` if the residual r meets atol; raises otherwise,
    also on a residual that is not finite."""
    res = float(np.max(np.abs(r)))
    if not res <= atol:
        raise SolverConvergenceError(
            f"direct {problem} solve missed residual {atol:.3e} (got {res:.3e})",
            residual=res, iterations=1)
    return x, SolveInfo(1, res)


class NeumannPoissonSolver:
    """Solves Lap_N p = b - mean(b) by DCT-II; p has zero mean."""

    def __init__(self, grid: Grid2D):
        self.grid = grid
        lam = _neumann_eigenvalues(grid)
        lam[0, 0] = 1.0
        self._inv_lam = -1.0 / lam
        self._inv_lam[0, 0] = 0.0

    def solve(self, b: np.ndarray, atol: float):
        rhs = b - b.mean()
        if not rhs.any():
            return np.zeros_like(rhs), SolveInfo(0, 0.0)
        x = _dct_solve(rhs, self._inv_lam)
        return _checked(x, rhs - laplacian_neumann_array(x, self.grid), atol,
                        "Poisson")


class HelmholtzNeumannSolver:
    """Solves u / c - dt Lap_N u = b by DCT-II, for a constant c > 0."""

    def __init__(self, grid: Grid2D, c: float, dt: float):
        c = float(c)
        if not c > 0.0:
            raise ValueError(f"Helmholtz coefficient must be positive, got {c}")
        self.grid = grid
        self.inv_c = 1.0 / c
        self.dt = dt
        self._inv_symbol = 1.0 / (self.inv_c + dt * _neumann_eigenvalues(grid))

    def solve(self, b: np.ndarray, atol: float):
        x = _dct_solve(b, self._inv_symbol)
        r = laplacian_neumann_array(x, self.grid)
        r *= self.dt
        r += b
        r -= self.inv_c * x
        return _checked(x, r, atol, "Helmholtz")
