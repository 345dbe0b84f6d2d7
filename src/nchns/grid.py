"""Staggered (MAC) grid and the local finite-difference operators.

Scalars (order parameter, chemical potential, pressure, ...) live at cell
centers, velocity-like fields on cell faces.  All stencils are second order
in the interior; boundary closures implement the two boundary conditions the
solvers need: zero-flux mirror ghosts for cell-centered scalars and no-slip
reflection ghosts for face-centered velocities.

The tangential differences of a no-slip velocity w are taken once, by
``node_shear_rates(w)``: d_y wx and d_x wy at the grid nodes, each the
one-sided difference of the two faces on either side of a node, with the
reflection ghost w[-1] = -w[0] giving 2 w[0] / h at the walls.  The four
velocity operators read that record (``rates``) next to the velocity it
belongs to: ``div_viscous_stress`` forms its node shear stress from it,
``advect_vector`` its tangential centered differences, and
``sym_gradient`` and ``full_gradient_cc`` their off-diagonal entries.  A
centered difference across a face row is the mean of the one-sided
differences at the two nodes beside it, (w[j+1] - w[j-1]) / 2h =
((w[j+1] - w[j]) / h + (w[j] - w[j-1]) / h) / 2, ghosts included, so the
advection needs no wall code of its own.  Each operator keeps the normal
differences (along its own faces) inside.  A solver step builds one record
per velocity and hands it to every operator that reads that velocity.

Array layout: a scalar field is an ``(nx, ny)`` array indexed ``[i, j]`` with
``i`` the x index; the x component of a vector field is ``(nx+1, ny)`` on
x-faces, the y component ``(nx, ny+1)`` on y-faces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse


class GridMismatchError(ValueError):
    """Raised when fields on different grids are combined."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid on [0, lx] x [0, ly] with nx*ny cells."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain edge lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy

    def cell_centers(self):
        """Meshgrid (X, Y) of cell-center coordinates, shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def xface_centers(self):
        x = np.arange(self.nx + 1) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def yface_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = np.arange(self.ny + 1) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def nodes(self):
        x = np.arange(self.nx + 1) * self.dx
        y = np.arange(self.ny + 1) * self.dy
        return np.meshgrid(x, y, indexing="ij")


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


@dataclass
class ScalarField:
    """Cell-centered scalar, values shape (nx, ny)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"scalar values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros((grid.nx, grid.ny)))

    @classmethod
    def full(cls, grid: Grid2D, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField":
        X, Y = grid.cell_centers()
        return cls(grid, np.asarray(fn(X, Y), dtype=np.float64))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def __add__(self, other):
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float):
        return ScalarField(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass
class VectorField:
    """Face-centered vector: ux on x-faces (nx+1, ny), uy on y-faces (nx, ny+1)."""

    grid: Grid2D
    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self):
        self.ux = np.asarray(self.ux, dtype=np.float64)
        self.uy = np.asarray(self.uy, dtype=np.float64)
        nx, ny = self.grid.nx, self.grid.ny
        if self.ux.shape != (nx + 1, ny) or self.uy.shape != (nx, ny + 1):
            raise ValueError(
                f"vector component shapes {self.ux.shape}, {self.uy.shape} do not "
                f"match grid ({nx + 1}, {ny}) / ({nx}, {ny + 1})"
            )

    @classmethod
    def zeros(cls, grid: Grid2D) -> "VectorField":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

    @classmethod
    def from_functions(cls, grid: Grid2D, fx, fy) -> "VectorField":
        XF, YF = grid.xface_centers()
        XG, YG = grid.yface_centers()
        return cls(grid, np.asarray(fx(XF, YF), dtype=np.float64),
                   np.asarray(fy(XG, YG), dtype=np.float64))

    @classmethod
    def from_stream_function(cls, grid: Grid2D, psi_nodes: np.ndarray) -> "VectorField":
        """Exactly divergence-free field (d_y psi, -d_x psi) from node values.

        If ``psi_nodes`` is constant along the boundary the result is no-slip
        in the normal direction; if it vanishes on the whole boundary the
        tangential boundary faces are zero as well.
        """
        psi = np.asarray(psi_nodes, dtype=np.float64)
        if psi.shape != (grid.nx + 1, grid.ny + 1):
            raise ValueError("stream function must be given on grid nodes")
        ux = (psi[:, 1:] - psi[:, :-1]) / grid.dy
        uy = -(psi[1:, :] - psi[:-1, :]) / grid.dx
        return cls(grid, ux, uy)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.ux.copy(), self.uy.copy())

    def enforce_noslip_normal(self) -> "VectorField":
        """Zero the boundary-normal faces in place; returns self."""
        self.ux[0, :] = 0.0
        self.ux[-1, :] = 0.0
        self.uy[:, 0] = 0.0
        self.uy[:, -1] = 0.0
        return self

    def __add__(self, other):
        _require_same_grid(self, other)
        return VectorField(self.grid, self.ux + other.ux, self.uy + other.uy)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return VectorField(self.grid, self.ux - other.ux, self.uy - other.uy)

    def __iadd__(self, other):
        _require_same_grid(self, other)
        self.ux += other.ux
        self.uy += other.uy
        return self

    def __isub__(self, other):
        _require_same_grid(self, other)
        self.ux -= other.ux
        self.uy -= other.uy
        return self

    def __mul__(self, scalar: float):
        return VectorField(self.grid, self.ux * scalar, self.uy * scalar)

    __rmul__ = __mul__


@dataclass
class TensorField:
    """Cell-centered symmetric 2x2 tensor; xy holds both off-diagonals."""

    grid: Grid2D
    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray


def read_only(field):
    """Make a scalar or vector field's arrays read-only; returns the field.

    A level shared by many time steps is marked so: a write into it raises
    ``ValueError`` rather than changing every step that holds it.
    """
    arrays = (field.values,) if isinstance(field, ScalarField) else (field.ux, field.uy)
    for a in arrays:
        a.flags.writeable = False
    return field


# ---------------------------------------------------------------------------
# first-order building blocks

def gradient_cc_to_face(phi: ScalarField) -> VectorField:
    """Cell-center to face gradient with zero gradient at boundary faces.

    Interior faces get the two-point centered difference; boundary faces are
    zero, consistent with the homogeneous Neumann conditions every scalar in
    the model carries.
    """
    g = phi.grid
    v = phi.values
    ux = np.zeros((g.nx + 1, g.ny))
    uy = np.zeros((g.nx, g.ny + 1))
    ux[1:-1, :] = (v[1:, :] - v[:-1, :]) / g.dx
    uy[:, 1:-1] = (v[:, 1:] - v[:, :-1]) / g.dy
    return VectorField(g, ux, uy)


def divergence_face_to_cc(w: VectorField) -> ScalarField:
    """Conservative per-cell flux difference.

    (ux[i+1] - ux[i]) / dx + (uy[j+1] - uy[j]) / dy in that order of
    operations, written into the output and one work array.
    """
    g = w.grid
    out = np.subtract(w.ux[1:], w.ux[:-1])
    out /= g.dx
    dy_part = np.subtract(w.uy[:, 1:], w.uy[:, :-1])
    dy_part /= g.dy
    out += dy_part
    return ScalarField(g, out)


def laplacian_neumann(phi: ScalarField) -> ScalarField:
    """5-point Laplacian with mirror (zero-flux) ghost cells."""
    g = phi.grid
    return ScalarField(g, laplacian_neumann_array(phi.values, g))


def laplacian_neumann_array(v: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Array-level Neumann Laplacian (phase steps and solver residual checks).

    One product of the raveled field with the five-diagonal matrix of the
    mirror-ghost stencil (ghosts v[-1] = v[0], v[n] = v[n-1], so boundary
    faces carry no flux).  The matrix is symmetric with zero row sums, so
    its columns sum to zero too and the cell sum of the output vanishes to
    round-off: the operator keeps mass.  The five-product sum rounds at
    about eps max|v| / h^2, not relative to the output; the phase steps
    scale it by dt <= h^2 / (8 nu_max), and the solvers compare it with
    the residual tolerance of their solve.
    """
    return (_laplacian_matrix(grid) @ v.ravel()).reshape(v.shape)


@functools.cache
def _laplacian_matrix(grid: Grid2D) -> sparse.dia_matrix:
    """The Neumann Laplacian on C-ordered (nx * ny) vectors, one per grid.

    Built once per grid value; the solvers' constructors call it so that
    the table exists before the first step.  ``data[k, col]`` holds the
    weight of cell ``col`` in the row ``offsets[k]`` cells before it.
    """
    nx, ny = grid.nx, grid.ny
    offsets = np.array([0, 1, -1, ny, -ny])
    data = np.zeros((5, nx, ny))
    data[1, :, 1:] = 1.0 / grid.dy ** 2     # row (i, j-1) reads v[i, j]
    data[2, :, :-1] = 1.0 / grid.dy ** 2    # row (i, j+1)
    data[3, 1:, :] = 1.0 / grid.dx ** 2     # row (i-1, j)
    data[4, :-1, :] = 1.0 / grid.dx ** 2    # row (i+1, j)
    # by symmetry a column's neighbour weights are its row's
    np.sum(data[1:], axis=0, out=data[0])
    np.negative(data[0], out=data[0])
    lap = sparse.dia_matrix((data.reshape(5, nx * ny), offsets),
                            shape=(nx * ny, nx * ny))
    lap.data.flags.writeable = False
    return lap


# ---------------------------------------------------------------------------
# interpolation between staggered locations

def scalar_to_xfaces(phi: ScalarField) -> np.ndarray:
    """Average a cell scalar to x-faces; boundary faces copy the edge cell."""
    v = phi.values
    out = np.empty((phi.grid.nx + 1, phi.grid.ny))
    out[1:-1, :] = 0.5 * (v[1:, :] + v[:-1, :])
    out[0, :] = v[0, :]
    out[-1, :] = v[-1, :]
    return out


def scalar_to_yfaces(phi: ScalarField) -> np.ndarray:
    v = phi.values
    out = np.empty((phi.grid.nx, phi.grid.ny + 1))
    out[:, 1:-1] = 0.5 * (v[:, 1:] + v[:, :-1])
    out[:, 0] = v[:, 0]
    out[:, -1] = v[:, -1]
    return out


def vector_to_cc(w: VectorField):
    """Per-component face-to-center average; returns (wx_cc, wy_cc) arrays."""
    wx = 0.5 * (w.ux[1:, :] + w.ux[:-1, :])
    wy = 0.5 * (w.uy[:, 1:] + w.uy[:, :-1])
    return wx, wy


def cc_components_to_faces(grid: Grid2D, tx: np.ndarray,
                           ty: np.ndarray) -> VectorField:
    """Interpolate cell-centered vector components onto interior faces.

    The boundary-normal faces are zero, as for a no-slip field.
    """
    ux = np.zeros((grid.nx + 1, grid.ny))
    uy = np.zeros((grid.nx, grid.ny + 1))
    ux[1:-1, :] = 0.5 * (tx[1:, :] + tx[:-1, :])
    uy[:, 1:-1] = 0.5 * (ty[:, 1:] + ty[:, :-1])
    return VectorField(grid, ux, uy)


# ---------------------------------------------------------------------------
# derived operators

def node_shear_rates(u: VectorField):
    """(d_y ux, d_x uy) of a no-slip face velocity at the grid nodes.

    Each is the one-sided difference of the two faces on either side of a
    node, two (nx+1, ny+1) arrays.  At a wall node the reflection ghost
    w[-1] = -w[0] turns the difference into 2 w[0] / h (and -2 w[n-1] / h
    at the far wall), written straight into the node array.  This is the
    record the velocity operators below take as ``rates``; they read it
    and never write it.
    """
    g = u.grid
    duxdy = np.empty((g.nx + 1, g.ny + 1))
    np.subtract(u.ux[:, 1:], u.ux[:, :-1], out=duxdy[:, 1:-1])
    np.multiply(u.ux[:, 0], 2.0, out=duxdy[:, 0])
    np.multiply(u.ux[:, -1], -2.0, out=duxdy[:, -1])
    duxdy /= g.dy
    duydx = np.empty((g.nx + 1, g.ny + 1))
    np.subtract(u.uy[1:, :], u.uy[:-1, :], out=duydx[1:-1, :])
    np.multiply(u.uy[0, :], 2.0, out=duydx[0, :])
    np.multiply(u.uy[-1, :], -2.0, out=duydx[-1, :])
    duydx /= g.dx
    return duxdy, duydx


def _nodes_to_cc(n: np.ndarray) -> np.ndarray:
    return 0.25 * (n[1:, 1:] + n[1:, :-1] + n[:-1, 1:] + n[:-1, :-1])


def full_gradient_cc(u: VectorField, rates):
    """All four entries of grad u at cell centers, for a no-slip field.

    Returns (dux_dx, dux_dy, duy_dx, duy_dy).  ``rates`` is
    ``node_shear_rates(u)``: the off-diagonal entries are the cell means of
    its two arrays at the four corner nodes, so the velocity interpolates
    to zero on the walls.  The diagonal entries difference ``u`` across
    each cell.
    """
    g = u.grid
    dxx = (u.ux[1:, :] - u.ux[:-1, :]) / g.dx
    dyy = (u.uy[:, 1:] - u.uy[:, :-1]) / g.dy
    return dxx, _nodes_to_cc(rates[0]), _nodes_to_cc(rates[1]), dyy


def sym_gradient(u: VectorField, rates) -> TensorField:
    """Symmetric gradient (grad u + grad u^T)/2 at cell centers.

    The entries of ``full_gradient_cc(u, rates)``, the off-diagonal ones
    averaged.
    """
    dxx, dxy, dyx, dyy = full_gradient_cc(u, rates)
    return TensorField(u.grid, dxx, 0.5 * (dxy + dyx), dyy)


class HypothesisViolationError(ValueError):
    """Raised when an input violates one of the model hypotheses."""


def div_viscous_stress(nu_cc: ScalarField, u: VectorField, rates,
                       require_positive: bool = True) -> VectorField:
    """Conservative discretization of 2 div(nu D u) on faces.

    ``rates`` is ``node_shear_rates(u)``: the shear stress
    2 nu_node (d_y ux + d_x uy) / 2 lives at the nodes, with the viscosity
    given at cell centers and averaged arithmetically to them.  The normal
    stresses 2 nu d_n u difference ``u`` across each cell here.
    ``require_positive`` applies to the physical viscosity; linearized
    solvers pass products like nu'(phi)*eta that may change sign.

    Allocates the two output face arrays, one cell-shaped work array, the
    node shear stress and the two arrays of ``_nodes_from_cc``; every
    other intermediate is written into those.
    """
    _require_same_grid(nu_cc, u)
    if require_positive and np.any(nu_cc.values <= 0.0):
        raise HypothesisViolationError("viscosity must be positive everywhere")
    g = u.grid
    nu = nu_cc.values
    txy = np.add(*rates)
    txy *= _nodes_from_cc(nu)
    ux = np.empty((g.nx + 1, g.ny))
    uy = np.empty((g.nx, g.ny + 1))
    work = np.empty((g.nx, g.ny))
    _stress_divergence_into(ux, u.ux, nu, txy, g.dx, g.dy, work)
    _stress_divergence_into(uy.T, u.uy.T, nu.T, txy.T, g.dy, g.dx, work.T)
    return VectorField(g, ux, uy)


def _stress_divergence_into(out, v, nu, txy, h, h_t, work):
    """Write d_n(2 nu d_n v) + d_t txy on the faces normal to axis 0 into out.

    ``v`` is the face component normal to axis 0, ``nu`` the cell
    viscosity, ``txy`` the node shear stress, ``h``/``h_t`` the spacings
    along/across axis 0 and ``work`` a cell-shaped scratch array.  Boundary
    faces get zero.  The y component is the same call on transposed views.
    """
    np.subtract(v[1:], v[:-1], out=work)
    work /= h
    work *= nu                      # half the normal stress
    inner = out[1:-1]
    np.subtract(work[1:], work[:-1], out=inner)
    inner /= 0.5 * h                # the factor 2 of the stress, exactly
    shear = work[:-1]
    np.subtract(txy[1:-1, 1:], txy[1:-1, :-1], out=shear)
    shear /= h_t
    inner += shear
    out[0] = 0.0
    out[-1] = 0.0


def _nodes_from_cc(c: np.ndarray) -> np.ndarray:
    """4-point average of a cell field to nodes (edge replication outside).

    Pairwise sums along x, then along y; a boundary node doubles its one
    neighbour in place of the replicated ghost.
    """
    nx, ny = c.shape
    sx = np.empty((nx + 1, ny))
    np.add(c[1:, :], c[:-1, :], out=sx[1:-1, :])
    np.multiply(c[0, :], 2.0, out=sx[0, :])
    np.multiply(c[-1, :], 2.0, out=sx[-1, :])
    out = np.empty((nx + 1, ny + 1))
    np.add(sx[:, 1:], sx[:, :-1], out=out[:, 1:-1])
    np.multiply(sx[:, 0], 2.0, out=out[:, 0])
    np.multiply(sx[:, -1], 2.0, out=out[:, -1])
    out *= 0.25
    return out


def advect_scalar(u: VectorField, phi: ScalarField) -> ScalarField:
    """div(u phi) in conservative flux form with centered face interpolation.

    For discretely divergence-free u this equals u . grad phi; the cell sum of
    the output vanishes to round-off because the boundary fluxes are zero.
    """
    _require_same_grid(u, phi)
    g = phi.grid
    v = phi.values
    fx = np.zeros((g.nx + 1, g.ny))
    fy = np.zeros((g.nx, g.ny + 1))
    fx[1:-1, :] = u.ux[1:-1, :] * 0.5 * (v[1:, :] + v[:-1, :])
    fy[:, 1:-1] = u.uy[:, 1:-1] * 0.5 * (v[:, 1:] + v[:, :-1])
    return divergence_face_to_cc(VectorField(g, fx, fy))


def advect_vector(u: VectorField, w: VectorField, rates) -> VectorField:
    """(u . grad) w per component with centered differences on faces.

    ``rates`` is ``node_shear_rates(w)`` of the advected no-slip field.
    The centered difference of w along its own faces is taken here; the one
    across them is the mean of the two node shear rates beside each face,
    which carries the reflection ghost at the walls.  Allocates the two
    output face arrays and two face-shaped work arrays per component;
    every other intermediate is written into those.
    """
    _require_same_grid(u, w)
    g = u.grid
    out_x = np.empty((g.nx + 1, g.ny))
    out_y = np.empty((g.nx, g.ny + 1))
    _advect_component_into(out_x, u.ux, u.uy, w.ux, rates[0], g.dx)
    _advect_component_into(out_y.T, u.uy.T, u.ux.T, w.uy.T, rates[1].T, g.dy)
    return VectorField(g, out_x, out_y)


def _advect_component_into(out, un, ut, w, dw_t, h):
    """Write un d_n w + <ut> d_t w on the faces normal to axis 0 into out.

    ``un`` and ``w`` live on those faces, ``ut`` on the faces normal to
    axis 1 and enters as the mean of the four around each face; ``dw_t``
    is the node shear rate of w across axis 1, and d_t w on a face is the
    mean of the two at its ends.  Both means are folded into one factor
    1/8, exact in binary.  Boundary faces get zero.  The y component is
    the same call on transposed views.
    """
    inner = out[1:-1]
    np.subtract(w[2:], w[:-2], out=inner)
    inner /= 2.0 * h
    inner *= un[1:-1]
    ut_mean = np.add(ut[1:, :-1], ut[1:, 1:])
    ut_mean += ut[:-1, :-1]
    ut_mean += ut[:-1, 1:]
    ut_mean *= 0.125
    dw = np.add(dw_t[1:-1, :-1], dw_t[1:-1, 1:])
    dw *= ut_mean
    inner += dw
    out[0] = 0.0
    out[-1] = 0.0


# ---------------------------------------------------------------------------
# inner products / norms

def inner_product_l2(f, g) -> float:
    """Midpoint-quadrature L2 inner product for matching field types.

    Face values are weighted by the volume of their dual cell (half cells at
    the boundary), so the measure of the domain is reproduced exactly: the
    full dot products less half those of the boundary faces.
    """
    _require_same_grid(f, g)
    vol = f.grid.cell_volume
    if isinstance(f, ScalarField) and isinstance(g, ScalarField):
        return float(np.vdot(f.values, g.values) * vol)
    if isinstance(f, VectorField) and isinstance(g, VectorField):
        boundary = (np.vdot(f.ux[0], g.ux[0]) + np.vdot(f.ux[-1], g.ux[-1])
                    + np.vdot(f.uy[:, 0], g.uy[:, 0])
                    + np.vdot(f.uy[:, -1], g.uy[:, -1]))
        inner = np.vdot(f.ux, g.ux) + np.vdot(f.uy, g.uy)
        return float((inner - 0.5 * boundary) * vol)
    raise TypeError("inner_product_l2 requires two fields of the same kind")


def norm_l2(f) -> float:
    return float(np.sqrt(max(inner_product_l2(f, f), 0.0)))


def integral(phi: ScalarField) -> float:
    return float(np.sum(phi.values) * phi.grid.cell_volume)
