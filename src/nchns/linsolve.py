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
pressure solve of each path, residual and face gradient included:

    n           16    24    32    48    64    96   112   128   192   256
    Helmholtz  0.22  0.25  0.31  0.42  0.56  0.80  1.21  1.23  1.98  2.75
    projection 0.46  0.59  0.51  0.62  0.75  0.94  0.95  1.38  1.45  1.57

The Helmholtz ratio passes 1 between 96 and 112 and the projection's
between 112 and 128; single passes at 96 read 0.7-1.2 and 0.9-1.5, a wash,
so the crossover is set there.  32^2 and 64^2 grids take the dense path,
128^2 grids the transform path.

The pressure solve returns the face gradient of its solution, the only
thing the projection subtracts.  On the dense path the gradient is
synthesized from the spectral solution p^ directly, g_x = G_x p^ C_y and
g_y = C_x^T p^ G_y^T, where G holds the face differences of the cosine
modes and has zero boundary rows; it is not differenced from a pressure
synthesized in cell space, which rounds twice.  On the 24 x 40 (lx = 2)
grid, twenty white-noise predictors of amplitude 100 keep a max|div u| of
at most 1.7e-11 after the dense projection and 1.9e-11 after the
transform path, but up to 4.6e-11 when the dense pressure is synthesized
in cell space and then differenced, against the default tol_p = 1e-10.
On the transform path the solve differences the pressure with
``gradient_cc_to_face`` and checks the residual rhs - Lap_N p; on the
dense path it checks rhs - div g, the divergence the projection leaves.

The Helmholtz solve returns its solution in flux form, u = b + dt Lap_N psi
with psi = c u from the transform: the cell sum of u is then that of b to
round-off whatever the transform's error, so the phase steps conserve
mass, and the same Laplacian gives the residual u - psi / c.  ``atol`` is a
post-condition on the residual, not a stopping test: a residual above it,
or one that is not finite, raises ``SolverConvergenceError``.

The transforms run on scipy.fft's default of one worker; a caller that
wants more wraps its calls in ``scipy.fft.set_workers``.  The dense
products run on the BLAS library's threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import (Grid2D, ScalarField, VectorField, _laplacian_matrix,
                   divergence_face_to_cc, gradient_cc_to_face,
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
    """Solves Lap_N p = rhs, rhs = b - mean(b), and returns grad p on faces.

    The face gradient g is all the pressure projection reads, so the solve
    returns it in place of p; its boundary-normal faces are zero.  Below
    the crossover g is synthesized in the cosine basis, differenced there
    (see the module docstring), and ``atol`` bounds max|rhs - div g|, the
    divergence that subtracting g leaves; above it p comes from scipy.fft,
    ``atol`` bounds max|rhs - Lap_N p|, and g = ``gradient_cc_to_face(p)``.
    An all-zero rhs returns a zero g with ``SolveInfo(0, 0.0)``.
    """

    def __init__(self, grid: Grid2D):
        self.grid = grid
        lam = _neumann_eigenvalues(grid)
        self._inv_lam = np.divide(-1.0, lam, out=np.zeros_like(lam), where=lam != 0.0)
        _laplacian_matrix(grid)     # tabulated in set-up, before any solve
        if _dense((grid.nx, grid.ny)):
            _cosine_gradient(grid.nx, grid.dx)
            _cosine_gradient(grid.ny, grid.dy)

    def solve(self, b: np.ndarray, atol: float):
        grid = self.grid
        rhs = b - b.mean()
        if not rhs.any():
            return VectorField.zeros(grid), SolveInfo(0, 0.0)
        if not _dense(rhs.shape):
            p = _dct_solve(rhs, self._inv_lam)
            _, info = _checked(p, rhs - laplacian_neumann_array(p, grid), atol,
                               "Poisson")
            return gradient_cc_to_face(ScalarField(grid, p)), info
        cx, cy = _cosine_basis(grid.nx), _cosine_basis(grid.ny)
        phat = cx @ rhs @ cy.T
        phat *= self._inv_lam
        g = VectorField(grid, _cosine_gradient(grid.nx, grid.dx) @ (phat @ cy),
                        (cx.T @ phat) @ _cosine_gradient(grid.ny, grid.dy).T)
        return _checked(g, rhs - divergence_face_to_cc(g).values, atol, "Poisson")


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
        return _checked(u, psi, atol, "Helmholtz")
