"""Interaction-kernel machinery: tabulated stencils and fast convolutions.

The kernel enters the model through four derived quantities, all computed by
midpoint quadrature on the cell centers so they are discretely consistent
with the field inner product:

* ``convolve``          -- (K * phi)(x) = sum_y K(x - y) phi(y) dx dy
* ``mass_field``        -- a(x) = (K * 1)(x), cached at construction
* ``grad_convolve``     -- (grad K * phi)(x), interpolated to faces
* ``grad_dot_convolve`` -- sum_y grad K(x - y) . grad phi(y) dx dy

Convolutions run through zero-padded real FFTs with the kernel transforms
cached; this matches the direct double sum to round-off because the discrete
sum is exactly a linear convolution.  Along an axis with n cells the stencil
has 2n - 1 entries and the field n, so their linear convolution has 3n - 2
entries, of which only the n in the middle (indices n - 1 .. 2n - 2) are
wanted.  A cyclic convolution of length N >= 2n - 1 folds entry k onto
k mod N: the wanted indices are below N and their aliases k + N lie past
3n - 3, so they come out exact.  This is the circulant embedding of a
Toeplitz matrix (Chan & Jin, An Introduction to Iterative Toeplitz Solvers,
2007), and the padding is ``next_fast_len(2n - 1)`` per axis.  The transform
is applied one axis at a time, so the real transform along y runs only on
the n rows that hold data and the inverse one only on the n rows that are
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .grid import (Grid2D, GridMismatchError, ScalarField, VectorField,
                   cc_components_to_faces, full_gradient_cc,
                   gradient_cc_to_face, norm_l2, vector_to_cc)
from .linsolve import fft_workers

KERNEL_FAMILIES = ("gaussian", "mollified_newtonian", "delta")


def _offsets(grid: Grid2D):
    """Coordinate offsets between any two cell centers, shape (2nx-1, 2ny-1)."""
    ox = (np.arange(2 * grid.nx - 1) - (grid.nx - 1)) * grid.dx
    oy = (np.arange(2 * grid.ny - 1) - (grid.ny - 1)) * grid.dy
    return np.meshgrid(ox, oy, indexing="ij")


@dataclass
class Kernel:
    """Tabulated interaction kernel bound to one grid.

    ``stencil[m, l]`` holds K at offset ((m - nx + 1) dx, (l - ny + 1) dy);
    ``gx_stencil``/``gy_stencil`` hold the analytic gradient at the same
    offsets.  ``mass_field`` caches a(x) = (K * 1)(x).
    """

    grid: Grid2D
    family: str
    params: dict
    stencil: np.ndarray
    gx_stencil: np.ndarray
    gy_stencil: np.ndarray
    mass_field: ScalarField = field(default=None)

    def __post_init__(self):
        self._fshape = (sfft.next_fast_len(2 * self.grid.nx - 1),
                        sfft.next_fast_len(2 * self.grid.ny - 1))
        if self.mass_field is None:
            hat = self._fwd(np.ones((self.grid.nx, self.grid.ny)))
            hat *= self._khat
            self.mass_field = ScalarField(self.grid, self._inv(hat))

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
        return Kernel(self.grid, self.family, dict(self.params),
                      self.stencil * factor, self.gx_stencil * factor,
                      self.gy_stencil * factor,
                      ScalarField(self.grid, self.mass_field.values * factor))


def _evaluate_family(family: str, params: dict, grid: Grid2D):
    X, Y = _offsets(grid)
    r2 = X ** 2 + Y ** 2
    amp = float(params.get("amplitude", 1.0))
    if family == "gaussian":
        sigma = float(params["width"])
        if sigma <= 0:
            raise ValueError("gaussian kernel width must be positive")
        k = amp * np.exp(-r2 / (2.0 * sigma ** 2))
        gx = -(X / sigma ** 2) * k
        gy = -(Y / sigma ** 2) * k
    elif family == "mollified_newtonian":
        eps = float(params["core_radius"])
        if eps <= 0:
            raise ValueError("newtonian core radius must be positive")
        k = -(amp / (4.0 * np.pi)) * np.log(r2 + eps ** 2)
        gx = -(amp / (2.0 * np.pi)) * X / (r2 + eps ** 2)
        gy = -(amp / (2.0 * np.pi)) * Y / (r2 + eps ** 2)
    elif family == "delta":
        k = np.zeros_like(r2)
        k[grid.nx - 1, grid.ny - 1] = amp / grid.cell_volume
        gx = np.zeros_like(r2)
        gy = np.zeros_like(r2)
    else:
        raise ValueError(f"unknown kernel family {family!r}; "
                         f"expected one of {KERNEL_FAMILIES}")
    return k, gx, gy


def make_kernel(grid: Grid2D, family: str, auto_scale_target: float = None,
                **params) -> Kernel:
    """Tabulate a kernel on the grid, optionally rescaling its amplitude.

    With ``auto_scale_target`` the amplitude is multiplied so the minimum of
    a(x) over the domain equals the target (used to guarantee the coercivity
    condition on F'' + a).
    """
    stencil, gx, gy = _evaluate_family(family, params, grid)
    kern = Kernel(grid, family, dict(params), stencil, gx, gy)
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
    hat = kernel._fwd(phi.values)
    hat *= kernel._khat
    return ScalarField(phi.grid, kernel._inv(hat))


def grad_convolve(kernel: Kernel, phi: ScalarField) -> VectorField:
    """(grad K * phi) via the tabulated gradient, interpolated to faces."""
    if phi.grid != kernel.grid:
        raise GridMismatchError("field grid does not match kernel grid")
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
