"""Interaction-kernel machinery: a separable tabulated kernel and its convolutions.

The kernel enters the model through three derived quantities, all computed
by midpoint quadrature on the cell centers so they are discretely consistent
with the field inner product:

* ``convolve``          -- (K * phi)(x) = sum_y K(x - y) phi(y) dx dy
* ``mass_field``        -- a(x) = (K * 1)(x), cached at construction
* ``grad_dot_convolve`` -- sum_y grad K(x - y) . grad phi(y) dx dy, from the
  face gradient of phi

Each is a linear convolution restricted to the domain, evaluated exactly (to
round-off) by products with Toeplitz matrices.  A ``Kernel`` factors as
K(x, y) = f_x(x) f_y(y), and then grad K = (f_x' f_y, f_x f_y').  It holds
1-D factors of 2n - 1 taps per axis, tap m at offset (m - n + 1) h, so the
first factor runs along x (the first array axis, nx cells) and the second
along y (the second axis, ny cells).  On a cell field ``v`` of shape
(nx, ny) the double sum is then

    K * v = T_x v T_y^T,   T[i, i'] = f[i - i' + n - 1],

with T_x of size nx x nx and T_y of size ny x ny; the cell volume is folded
into the x factors.  The products cost O(n^3) against the O(n^2 log n) of
zero-padded FFTs, but at the model's grid sizes BLAS runs them faster and
they need no (2n - 1)^2 table: one ``convolve`` took 8, 27 and 210 us at
n = 32, 64 and 128 against 103, 191 and 951 us for the padded FFTs (one
thread of an x86_64 Xeon, OpenBLAS).  The 2-D stencils that the tests read
are built from the factors only when asked for.

Both families of ``make_kernel`` factor exactly.  The Gaussian is even and
integrable, and scaled by ``auto_scale_target`` it meets the coercivity
hypothesis a + F'' >= c1 that the adjoint checks at every step; the delta
kernel makes K * phi the identity.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import Grid2D, GridMismatchError, ScalarField, VectorField, vector_to_cc

KERNEL_FAMILIES = ("gaussian", "delta")


def _axis_offsets(n: int, h: float) -> np.ndarray:
    """Offsets between two cell centers along one axis: 2n - 1 taps."""
    return (np.arange(2 * n - 1) - (n - 1)) * h


def _toeplitz(f: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix T[i, i'] = f[i - i' + n - 1] of a 2n - 1 tap factor."""
    i = np.arange(n)
    return f[i[:, None] - i[None, :] + n - 1]


class Kernel:
    """Tabulated separable interaction kernel bound to one grid.

    ``factors = (fx, dfx, fy, dfy)`` are 1-D tables of 2nx - 1, 2nx - 1,
    2ny - 1 and 2ny - 1 taps at the offsets along x and along y, with
    K = fx (x) fy, d/dx K = dfx (x) fy and d/dy K = fx (x) dfy.  The kernel
    convolves by products with the Toeplitz matrices of its factors (see the
    module docstring).  ``stencil[m, l]`` is K at offset
    ((m - nx + 1) dx, (l - ny + 1) dy) and ``gx_stencil``/``gy_stencil`` the
    gradient at the same offsets; each is formed when first read.
    ``mass_field`` caches a(x) = (K * 1)(x).
    """

    def __init__(self, grid: Grid2D, family: str, params: dict, factors: tuple,
                 mass_field: ScalarField = None):
        taps = (2 * grid.nx - 1, 2 * grid.nx - 1, 2 * grid.ny - 1, 2 * grid.ny - 1)
        if len(factors) != 4:
            raise ValueError("a Kernel needs four factors (fx, dfx, fy, dfy), "
                             f"got {len(factors)}")
        for name, f, n in zip(("fx", "dfx", "fy", "dfy"), factors, taps):
            if np.shape(f) != (n,):
                raise ValueError(f"kernel factor {name} must be 1-D with {n} taps "
                                 f"on a {grid.nx} x {grid.ny} grid, got shape "
                                 f"{np.shape(f)}")
        self.grid, self.family, self.params = grid, family, params
        self.factors = factors
        # (tx, dtx), the cell volume folded into the x factors
        vol = grid.cell_volume
        self._x_toeplitz = (_toeplitz(vol * factors[0], grid.nx),
                            _toeplitz(vol * factors[1], grid.nx))
        if mass_field is None:
            tx, _, ty, _ = self._toeplitz
            mass_field = ScalarField(grid, np.outer(tx.sum(axis=1), ty.sum(axis=1)))
        self.mass_field = mass_field

    @cached_property
    def stencil(self):
        fx, _, fy, _ = self.factors
        return np.outer(fx, fy)

    @cached_property
    def gx_stencil(self):
        _, dfx, fy, _ = self.factors
        return np.outer(dfx, fy)

    @cached_property
    def gy_stencil(self):
        fx, _, _, dfy = self.factors
        return np.outer(fx, dfy)

    # -- the y Toeplitz matrices, built when first read; ``rescale`` shares
    #    them with the kernel it builds -------------------------------------

    @cached_property
    def _y_toeplitz(self):
        _, _, fy, dfy = self.factors
        return _toeplitz(fy, self.grid.ny), _toeplitz(dfy, self.grid.ny)

    @cached_property
    def _toeplitz(self):
        """(tx, dtx, ty, dty)."""
        return self._x_toeplitz + self._y_toeplitz

    def rescale(self, factor: float) -> "Kernel":
        mass = ScalarField(self.grid, self.mass_field.values * factor)
        fx, dfx, fy, dfy = self.factors
        out = Kernel(self.grid, self.family, dict(self.params),
                     (fx * factor, dfx * factor, fy, dfy), mass)
        out._y_toeplitz = self._y_toeplitz    # the y factors are unchanged
        return out


def _tabulate(family: str, params: dict, grid: Grid2D) -> Kernel:
    """The family's kernel, tabulated as 1-D factors."""
    ox = _axis_offsets(grid.nx, grid.dx)
    oy = _axis_offsets(grid.ny, grid.dy)
    amp = float(params.get("amplitude", 1.0))
    if family == "gaussian":
        sigma = float(params["width"])
        if sigma <= 0:
            raise ValueError("gaussian kernel width must be positive")
        fx = amp * np.exp(-ox ** 2 / (2.0 * sigma ** 2))
        fy = np.exp(-oy ** 2 / (2.0 * sigma ** 2))
        factors = (fx, -(ox / sigma ** 2) * fx, fy, -(oy / sigma ** 2) * fy)
    elif family == "delta":
        fx = np.zeros_like(ox)
        fx[grid.nx - 1] = amp / grid.cell_volume
        fy = np.zeros_like(oy)
        fy[grid.ny - 1] = 1.0
        factors = (fx, np.zeros_like(ox), fy, np.zeros_like(oy))
    else:
        raise ValueError(f"unknown kernel family {family!r}; "
                         f"expected one of {KERNEL_FAMILIES}")
    return Kernel(grid, family, dict(params), factors)


def make_kernel(grid: Grid2D, family: str, auto_scale_target: float = None,
                **params) -> Kernel:
    """Tabulate a kernel on the grid, optionally rescaling its amplitude.

    With ``auto_scale_target`` the amplitude is multiplied so the minimum of
    a(x) over the domain equals the target (used to guarantee the coercivity
    condition on F'' + a).
    """
    kern = _tabulate(family, params, grid)
    if auto_scale_target is not None:
        amin = float(kern.mass_field.values.min())
        if amin <= 0:
            raise ValueError(
                f"cannot auto-scale kernel with min mass field {amin:.3e} <= 0")
        kern = kern.rescale(auto_scale_target / amin)
        kern.params["amplitude"] = (float(params.get("amplitude", 1.0))
                                    * auto_scale_target / amin)
    return kern


def convolve(kernel: Kernel, phi: ScalarField) -> ScalarField:
    """Domain-restricted convolution (K * phi) at cell centers."""
    if phi.grid != kernel.grid:
        raise GridMismatchError("field grid does not match kernel grid")
    tx, _, ty, _ = kernel._toeplitz
    return ScalarField(phi.grid, tx @ phi.values @ ty.T)


def grad_dot_convolve(kernel: Kernel, grad_q: VectorField) -> ScalarField:
    """sum_y grad K(x - y) . grad q(y) dy at cell centers.

    ``grad_q`` is the face gradient ``gradient_cc_to_face(q)``, so that a
    caller who needs it for another term too computes it once; its
    components are averaged to the cell centers where the kernel's
    quadrature lives.
    """
    if grad_q.grid != kernel.grid:
        raise GridMismatchError("field grid does not match kernel grid")
    qx_cc, qy_cc = vector_to_cc(grad_q)
    tx, dtx, ty, dty = kernel._toeplitz
    out = dtx @ qx_cc @ ty.T
    out += tx @ qy_cc @ dty.T
    return ScalarField(grad_q.grid, out)
