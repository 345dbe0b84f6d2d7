"""Interaction-kernel machinery: a separable tabulated kernel and its convolutions.

The kernel enters the model through three derived quantities, all computed
by midpoint quadrature on the cell centers so they are discretely consistent
with the field inner product:

* ``convolve``          -- (K * phi)(x) = sum_y K(x - y) phi(y) dx dy
* ``mass_field``        -- a(x) = (K * 1)(x), formed at construction
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
thread of an x86_64 Xeon, OpenBLAS).  The same factorization makes a(x) the
outer product of the row sums of T_x and T_y, so a(x) needs no product at
all.

A kernel is built once: ``make_kernel`` tabulates the factors, scales them
if asked to, and hands them to ``Kernel``, which forms its four Toeplitz
matrices and a(x) in its constructor.  The package never forms the 2-D
tables K(z) and grad K(z); the tests that sum against them build them from
``Kernel.factors`` (``tests/oracles.py``).

Both families of ``make_kernel`` factor exactly.  The Gaussian is even and
integrable, and scaled by ``auto_scale_target`` it meets the coercivity
hypothesis a + F'' >= c1 that the adjoint checks at every step; the delta
kernel makes K * phi the identity.
"""

from __future__ import annotations

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


def _row_sums(f: np.ndarray, n: int) -> np.ndarray:
    """``_toeplitz(f, n).sum(axis=1)`` without forming the matrix.

    Row i of the Toeplitz matrix is f[i + n - 1], f[i + n - 2], ..., f[i].
    A view of f that steps one tap up per row and one tap down per column
    reads those rows in place, and summed in that order the result is the
    same to the last bit.
    """
    f = np.ascontiguousarray(f)
    step = f.strides[0]
    rows = np.ndarray((n, n), f.dtype, f, offset=(n - 1) * step,
                      strides=(step, -step))
    return rows.sum(axis=1)


def _mass(grid: Grid2D, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """a(x) = (K * 1)(x) of the kernel with factors fx (x) fy."""
    return np.outer(_row_sums(grid.cell_volume * fx, grid.nx),
                    _row_sums(fy, grid.ny))


class Kernel:
    """Tabulated separable interaction kernel bound to one grid.

    ``factors = (fx, dfx, fy, dfy)`` are 1-D tables of 2nx - 1, 2nx - 1,
    2ny - 1 and 2ny - 1 taps at the offsets along x and along y, with
    K = fx (x) fy, d/dx K = dfx (x) fy and d/dy K = fx (x) dfy.  The
    constructor forms the four Toeplitz matrices the kernel convolves by
    (see the module docstring), once, and ``mass_field``, a(x) = (K * 1)(x),
    as the outer product of the row sums of the x and y matrices.
    """

    def __init__(self, grid: Grid2D, factors: tuple):
        taps = (2 * grid.nx - 1, 2 * grid.nx - 1, 2 * grid.ny - 1, 2 * grid.ny - 1)
        if len(factors) != 4:
            raise ValueError("a Kernel needs four factors (fx, dfx, fy, dfy), "
                             f"got {len(factors)}")
        for name, f, n in zip(("fx", "dfx", "fy", "dfy"), factors, taps):
            if np.shape(f) != (n,):
                raise ValueError(f"kernel factor {name} must be 1-D with {n} taps "
                                 f"on a {grid.nx} x {grid.ny} grid, got shape "
                                 f"{np.shape(f)}")
        self.grid, self.factors = grid, factors
        fx, dfx, fy, dfy = factors
        vol = grid.cell_volume
        # (tx, dtx, ty, dty), the cell volume folded into the x factors
        self._toeplitz = (_toeplitz(vol * fx, grid.nx), _toeplitz(vol * dfx, grid.nx),
                          _toeplitz(fy, grid.ny), _toeplitz(dfy, grid.ny))
        self.mass_field = ScalarField(grid, _mass(grid, fx, fy))


def _factors(family: str, params: dict, grid: Grid2D) -> tuple:
    """The family's kernel, tabulated as 1-D factors (fx, dfx, fy, dfy)."""
    ox = _axis_offsets(grid.nx, grid.dx)
    oy = _axis_offsets(grid.ny, grid.dy)
    amp = float(params.get("amplitude", 1.0))
    if family == "gaussian":
        sigma = float(params["width"])
        if not sigma > 0:
            raise ValueError(f"gaussian kernel width must be positive, got {sigma}")
        fx = amp * np.exp(-ox ** 2 / (2.0 * sigma ** 2))
        fy = np.exp(-oy ** 2 / (2.0 * sigma ** 2))
        return fx, -(ox / sigma ** 2) * fx, fy, -(oy / sigma ** 2) * fy
    if family == "delta":
        fx = np.zeros_like(ox)
        fx[grid.nx - 1] = amp / grid.cell_volume
        fy = np.zeros_like(oy)
        fy[grid.ny - 1] = 1.0
        return fx, np.zeros_like(ox), fy, np.zeros_like(oy)
    raise ValueError(f"unknown kernel family {family!r}; "
                     f"expected one of {KERNEL_FAMILIES}")


def make_kernel(grid: Grid2D, family: str, auto_scale_target: float = None,
                **params) -> Kernel:
    """Tabulate a kernel on the grid, optionally rescaling its amplitude.

    With ``auto_scale_target`` the amplitude is multiplied so the minimum of
    a(x) over the domain equals the target (used to guarantee the coercivity
    condition on F'' + a).  That minimum is read from the unscaled factors
    before the kernel is built: a(x) is the outer product of two row-sum
    vectors, which takes O(n^2) additions and no Toeplitz matrix.  The
    scale multiplies fx and dfx, and the kernel is then built once.
    """
    fx, dfx, fy, dfy = _factors(family, params, grid)
    if auto_scale_target is not None:
        amin = float(_mass(grid, fx, fy).min())
        if amin <= 0:
            raise ValueError(
                f"cannot auto-scale kernel with min mass field {amin:.3e} <= 0")
        scale = auto_scale_target / amin
        fx, dfx = fx * scale, dfx * scale
    return Kernel(grid, (fx, dfx, fy, dfy))


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
