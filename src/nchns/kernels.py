"""Interaction-kernel machinery: tabulated kernels and fast convolutions.

The kernel enters the model through four derived quantities, all computed by
midpoint quadrature on the cell centers so they are discretely consistent
with the field inner product:

* ``convolve``          -- (K * phi)(x) = sum_y K(x - y) phi(y) dx dy
* ``mass_field``        -- a(x) = (K * 1)(x), cached at construction
* ``grad_convolve``     -- (grad K * phi)(x), interpolated to faces
* ``grad_dot_convolve`` -- sum_y grad K(x - y) . grad phi(y) dx dy

Each is a linear convolution restricted to the domain, evaluated exactly (to
round-off) by one of two paths.  A ``Kernel`` takes its path at construction
from what it is built from; nothing else selects it.

Separable kernels (Toeplitz path).  The gaussian and delta families factor
exactly as K(x, y) = f_x(x) f_y(y), and then grad K = (f_x' f_y, f_x f_y').
``make_kernel`` tabulates them as 1-D factors of 2n - 1 taps per axis, tap
m at offset (m - n + 1) h, so the first factor runs along x (the first array
axis, nx cells) and the second along y (the second axis, ny cells).  On a
cell field ``v`` of shape (nx, ny) the double sum is then

    K * v = T_x v T_y^T,   T[i, i'] = f[i - i' + n - 1],

with T_x of size nx x nx and T_y of size ny x ny; the cell volume is folded
into the x factors.  The products cost O(n^3) against the transforms'
O(n^2 log n), but at the model's grid sizes BLAS runs them faster and they
need no (2n - 1)^2 table: one ``convolve`` took 8, 27 and 210 us at n = 32,
64 and 128 against 103, 191 and 951 us for the padded FFTs (one thread of an
x86_64 Xeon, OpenBLAS).  The 2-D stencils that tests and
``check_admissibility`` read are built from the factors only when asked for.

Other kernels (circulant FFT path).  The mollified Newtonian is not
separable (its stencil has numerical rank 20-26 at n = 32-128), and a kernel
built directly from 2-D stencils may be anything, so these convolve through
zero-padded real FFTs with the stencil transforms cached.  Along an axis
with n cells the stencil has 2n - 1 entries and the field n, so their linear
convolution has 3n - 2 entries, of which only the n in the middle (indices
n - 1 .. 2n - 2) are wanted.  A cyclic convolution of length N >= 2n - 1
folds entry k onto k mod N: the wanted indices are below N and their
aliases k + N lie past 3n - 3, so they come out exact.  This is the
circulant embedding of a Toeplitz matrix (Chan & Jin, An Introduction to
Iterative Toeplitz Solvers, 2007), and the padding is
``next_fast_len(2n - 1)`` per axis.  The transform is applied one axis at a
time, so the real transform along y runs only on the n rows that hold data
and the inverse one only on the n rows that are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .grid import (Grid2D, GridMismatchError, ScalarField, VectorField,
                   cc_components_to_faces, full_gradient_cc,
                   gradient_cc_to_face, norm_l2, vector_to_cc)
from .linsolve import fft_workers

KERNEL_FAMILIES = ("gaussian", "mollified_newtonian", "delta")


def _axis_offsets(n: int, h: float) -> np.ndarray:
    """Offsets between two cell centers along one axis: 2n - 1 taps."""
    return (np.arange(2 * n - 1) - (n - 1)) * h


def _toeplitz(f: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix T[i, i'] = f[i - i' + n - 1] of a 2n - 1 tap factor."""
    i = np.arange(n)
    return f[i[:, None] - i[None, :] + n - 1]


class Kernel:
    """Tabulated interaction kernel bound to one grid.

    ``stencil[m, l]`` holds K at offset ((m - nx + 1) dx, (l - ny + 1) dy);
    ``gx_stencil``/``gy_stencil`` hold the analytic gradient at the same
    offsets.  ``mass_field`` caches a(x) = (K * 1)(x).

    A kernel is built either from those three stencils, and then convolves
    through padded FFTs, or from ``factors = (fx, dfx, fy, dfy)``: 1-D
    tables of 2nx - 1 and 2ny - 1 taps at the offsets along x and along y,
    with K = fx (x) fy, d/dx K = dfx (x) fy and d/dy K = fx (x) dfy.  A
    factored kernel convolves by products with the Toeplitz matrices of its
    factors (see the module docstring) and forms a stencil only when one is
    read.
    """

    def __init__(self, grid: Grid2D, family: str, params: dict,
                 stencil: np.ndarray = None, gx_stencil: np.ndarray = None,
                 gy_stencil: np.ndarray = None, mass_field: ScalarField = None,
                 *, factors: tuple = None):
        if (stencil is None) == (factors is None):
            raise ValueError("a Kernel is built from either stencils or factors")
        self.grid, self.family, self.params = grid, family, params
        self.factors = factors
        if factors is None:
            self.stencil, self.gx_stencil, self.gy_stencil = \
                stencil, gx_stencil, gy_stencil
            self._fshape = (sfft.next_fast_len(2 * grid.nx - 1),
                            sfft.next_fast_len(2 * grid.ny - 1))
        else:
            # (tx, dtx, ty, dty), the cell volume folded into the x factors
            fx, dfx, fy, dfy = factors
            vol = grid.cell_volume
            self._toeplitz = (_toeplitz(vol * fx, grid.nx),
                              _toeplitz(vol * dfx, grid.nx),
                              _toeplitz(fy, grid.ny), _toeplitz(dfy, grid.ny))
        if mass_field is None:
            if factors is None:
                hat = self._fwd(np.ones((grid.nx, grid.ny)))
                hat *= self._khat
                mass = self._inv(hat)
            else:
                tx, _, ty, _ = self._toeplitz
                mass = np.outer(tx.sum(axis=1), ty.sum(axis=1))
            mass_field = ScalarField(grid, mass)
        self.mass_field = mass_field

    # -- stencils of a factored kernel, formed when read; a kernel built
    #    from stencils holds them as instance attributes, which take
    #    precedence over these ---------------------------------------------

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

    # -- fast transform plumbing ------------------------------------------

    def _fwd(self, values: np.ndarray) -> np.ndarray:
        """Zero-padded real 2D transform of a cell field or a stencil."""
        w = fft_workers()
        hat = sfft.rfft(values, n=self._fshape[1], axis=1, workers=w)
        return sfft.fft(hat, n=self._fshape[0], axis=0, overwrite_x=True, workers=w)

    def _inv(self, hat: np.ndarray) -> np.ndarray:
        """Inverse of ``_fwd`` restricted to the domain, times the cell volume.

        Overwrites ``hat``.
        """
        w = fft_workers()
        nx, ny = self.grid.nx, self.grid.ny
        rows = sfft.ifft(hat, axis=0, overwrite_x=True, workers=w)[nx - 1:2 * nx - 1]
        full = sfft.irfft(rows, n=self._fshape[1], axis=1, workers=w)
        return full[:, ny - 1:2 * ny - 1] * self.grid.cell_volume

    @cached_property
    def _khat(self):
        return self._fwd(self.stencil)

    @cached_property
    def _gxhat(self):
        return self._fwd(self.gx_stencil)

    @cached_property
    def _gyhat(self):
        return self._fwd(self.gy_stencil)

    # -- public surface ----------------------------------------------------

    def rescale(self, factor: float) -> "Kernel":
        mass = ScalarField(self.grid, self.mass_field.values * factor)
        if self.factors is None:
            return Kernel(self.grid, self.family, dict(self.params),
                          self.stencil * factor, self.gx_stencil * factor,
                          self.gy_stencil * factor, mass)
        fx, dfx, fy, dfy = self.factors
        return Kernel(self.grid, self.family, dict(self.params), mass_field=mass,
                      factors=(fx * factor, dfx * factor, fy, dfy))


def _tabulate(family: str, params: dict, grid: Grid2D) -> Kernel:
    """The family's kernel: factored when it is separable, else as stencils."""
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
    elif family == "mollified_newtonian":
        eps = float(params["core_radius"])
        if eps <= 0:
            raise ValueError("newtonian core radius must be positive")
        X, Y = np.meshgrid(ox, oy, indexing="ij")
        r2 = X ** 2 + Y ** 2
        k = -(amp / (4.0 * np.pi)) * np.log(r2 + eps ** 2)
        gx = -(amp / (2.0 * np.pi)) * X / (r2 + eps ** 2)
        gy = -(amp / (2.0 * np.pi)) * Y / (r2 + eps ** 2)
        return Kernel(grid, family, dict(params), k, gx, gy)
    elif family == "delta":
        fx = np.zeros_like(ox)
        fx[grid.nx - 1] = amp / grid.cell_volume
        fy = np.zeros_like(oy)
        fy[grid.ny - 1] = 1.0
        factors = (fx, np.zeros_like(ox), fy, np.zeros_like(oy))
    else:
        raise ValueError(f"unknown kernel family {family!r}; "
                         f"expected one of {KERNEL_FAMILIES}")
    return Kernel(grid, family, dict(params), factors=factors)


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
    if kernel.factors is not None:
        tx, _, ty, _ = kernel._toeplitz
        return ScalarField(phi.grid, tx @ phi.values @ ty.T)
    hat = kernel._fwd(phi.values)
    hat *= kernel._khat
    return ScalarField(phi.grid, kernel._inv(hat))


def grad_convolve(kernel: Kernel, phi: ScalarField) -> VectorField:
    """(grad K * phi) via the tabulated gradient, interpolated to faces."""
    if phi.grid != kernel.grid:
        raise GridMismatchError("field grid does not match kernel grid")
    if kernel.factors is not None:
        tx, dtx, ty, dty = kernel._toeplitz
        gx = dtx @ phi.values @ ty.T
        gy = tx @ phi.values @ dty.T
    else:
        hat = kernel._fwd(phi.values)
        gx = kernel._inv(hat * kernel._gxhat)
        hat *= kernel._gyhat
        gy = kernel._inv(hat)
    return cc_components_to_faces(kernel.grid, gx, gy, boundary="edge")


def grad_dot_convolve(kernel: Kernel, q: ScalarField) -> ScalarField:
    """sum_y grad K(x - y) . grad q(y) dy with grad q from the face gradient."""
    if q.grid != kernel.grid:
        raise GridMismatchError("field grid does not match kernel grid")
    qx_cc, qy_cc = vector_to_cc(gradient_cc_to_face(q))
    if kernel.factors is not None:
        tx, dtx, ty, dty = kernel._toeplitz
        out = dtx @ qx_cc @ ty.T
        out += tx @ qy_cc @ dty.T
        return ScalarField(q.grid, out)
    hat = kernel._fwd(qx_cc)
    hat *= kernel._gxhat
    hy = kernel._fwd(qy_cc)
    hy *= kernel._gyhat
    hat += hy
    return ScalarField(q.grid, kernel._inv(hat))


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


def check_admissibility(kernel: Kernel, samples: int = 8,
                        rng: np.random.Generator = None) -> AdmissibilityReport:
    """Empirical check of the admissible-kernel properties.

    Verifies the tabulated symmetry K(z) = K(-z) and a(x) >= 0 exactly, and
    estimates sup ||grad(grad K * psi)||_2 / ||psi||_2 over random unit-norm
    psi at the kernel's grid resolution.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    flip = kernel.stencil[::-1, ::-1]
    max_asym = float(np.max(np.abs(kernel.stencil - flip)))
    scale = float(np.max(np.abs(kernel.stencil))) or 1.0
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
        psi = ScalarField(grid, vals)
        w = grad_convolve(kernel, psi)
        comps = full_gradient_cc(w, noslip=False)
        gnorm = float(np.sqrt(sum(np.sum(c ** 2) for c in comps) * grid.cell_volume))
        ratios.append(gnorm / norm_l2(psi))
    return AdmissibilityReport(symmetric, max_asym, mass_ok, mass_min,
                               max(ratios), ratios)
