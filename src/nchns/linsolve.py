"""Direct solvers for the two Neumann problems in the scheme.

Both operators are built from the mirror-ghost Neumann Laplacian Lap_N:

* the Helmholtz problem u - c dt Lap_N u = b of the semi-implicit phase
  steps (forward, tangent and adjoint), with a constant c > 0;
* the singular pressure Poisson problem Lap_N p = b, whose constant null
  space is projected out.

On the uniform grid the DCT-II basis diagonalizes Lap_N exactly, so each
problem is one forward transform, a multiply by the inverse of the
operator's eigenvalues and one inverse transform.  The eigenvalues, like
the Laplacian's matrix, are tabulated once per grid.  The phase steps keep
c constant by moving the variable part of their coefficient into the
explicit terms (see ``forward`` and ``adjoint``).

The Helmholtz solve returns its solution in flux form, u = b + dt Lap_N psi
with psi = c u from the transform: the cell sum of u is then that of b to
round-off whatever the transform's error, so the phase steps conserve
mass, and the same Laplacian gives the residual u - psi / c.  ``atol`` is a
post-condition on the residual, not a stopping test: a residual above it,
or one that is not finite, raises ``SolverConvergenceError``.

The transforms run on scipy.fft's default of one worker; a caller that
wants more wraps its calls in ``scipy.fft.set_workers``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import Grid2D, _laplacian_matrix, laplacian_neumann_array


class SolverConvergenceError(RuntimeError):
    """A direct solve missed its residual post-condition, or met a value
    that is not finite."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolveInfo:
    """``iterations`` counts applications of the solver's inverse: 1 per
    solve, 0 for the Poisson solve of a constant right-hand side.
    ``residual`` is max|r| of the returned solution."""

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


def _dct_solve(rhs: np.ndarray, inv_symbol: np.ndarray) -> np.ndarray:
    rhat = sfft.dctn(rhs, type=2, norm="ortho")
    rhat *= inv_symbol
    return sfft.idctn(rhat, type=2, norm="ortho", overwrite_x=True)


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
        self._inv_lam = np.divide(-1.0, lam, out=np.zeros_like(lam), where=lam != 0.0)
        _laplacian_matrix(grid)     # tabulated in set-up, before any solve

    def solve(self, b: np.ndarray, atol: float):
        rhs = b - b.mean()
        if not rhs.any():
            return np.zeros_like(rhs), SolveInfo(0, 0.0)
        x = _dct_solve(rhs, self._inv_lam)
        return _checked(x, rhs - laplacian_neumann_array(x, self.grid), atol,
                        "Poisson")


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

    def solve(self, b: np.ndarray, atol: float):
        psi = _dct_solve(b, self._inv_symbol)
        u = laplacian_neumann_array(psi, self.grid)
        u *= self.dt
        u += b
        psi *= -self.inv_c          # the residual u - psi / c, in psi's buffer
        psi += u
        return _checked(u, psi, atol, "Helmholtz")
