import numpy as np
import pytest
import sympy as sp

from nchns import (Grid2D, ScalarField, VectorField, advect_scalar,
                   advect_vector, divergence_face_to_cc, div_viscous_stress,
                   gradient_cc_to_face, inner_product_l2, node_shear_rates)
from nchns.grid import (GridMismatchError, _nodes_from_cc, full_gradient_cc,
                        laplacian_neumann_array)

from conftest import solenoidal
from oracles import (direct_advect_vector, direct_neumann_laplacian,
                     direct_node_average, direct_node_shear_rates,
                     direct_viscous_stress, fit_slope, laplacian_neumann,
                     norm_l2, scalar_from_function, vector_from_functions,
                     xface_centers, yface_centers)


# ---------------------------------------------------------------------------
# gradient

def test_gradient_of_constant_is_zero(grid32):
    g = gradient_cc_to_face(ScalarField.full(grid32, 3.7))
    assert np.all(g.ux == 0.0) and np.all(g.uy == 0.0)


def test_gradient_of_linear_field(grid32):
    phi = scalar_from_function(grid32, lambda x, y: x)
    g = gradient_cc_to_face(phi)
    np.testing.assert_allclose(g.ux[1:-1, :], 1.0, atol=1e-13)
    np.testing.assert_allclose(g.uy, 0.0, atol=1e-13)


def test_gradient_second_order_convergence():
    errs = []
    hs = []
    for n in (16, 32, 64):
        grid = Grid2D(n, n, 1.0, 1.0)
        phi = scalar_from_function(grid, lambda x, y: np.sin(2 * np.pi * x))
        g = gradient_cc_to_face(phi)
        X, _ = xface_centers(grid)
        exact = 2 * np.pi * np.cos(2 * np.pi * X)
        errs.append(np.max(np.abs(g.ux[1:-1, :] - exact[1:-1, :])))
        hs.append(grid.dx)
    slope = fit_slope(hs, errs)
    assert 1.8 <= slope <= 2.2


def test_gradient_grid_mismatch(grid16, grid32):
    phi = ScalarField.zeros(grid16)
    other = ScalarField.zeros(grid32)
    with pytest.raises(GridMismatchError):
        inner_product_l2(phi, other)


# ---------------------------------------------------------------------------
# divergence

def test_divergence_matches_the_two_difference_expression(rng):
    # the same operations in the same order as the plain array expression
    grid = Grid2D(24, 40, 2.0, 1.0)
    w = VectorField(grid, rng.standard_normal((25, 40)), rng.standard_normal((24, 41)))
    expected = ((w.ux[1:, :] - w.ux[:-1, :]) / grid.dx
                + (w.uy[:, 1:] - w.uy[:, :-1]) / grid.dy)
    assert np.array_equal(divergence_face_to_cc(w).values, expected)


def test_divergence_of_interior_constant(grid32):
    w = VectorField.zeros(grid32)
    w.ux[1:-1, :] = 2.0
    w.uy[:, 1:-1] = -1.5
    d = divergence_face_to_cc(w)
    np.testing.assert_allclose(d.values[1:-1, 1:-1], 0.0, atol=1e-13)


def test_divergence_of_quadratic_gradient(grid32):
    phi = scalar_from_function(grid32, lambda x, y: x ** 2 + y ** 2)
    d = divergence_face_to_cc(gradient_cc_to_face(phi))
    # centered differences are exact on quadratics away from the boundary
    np.testing.assert_allclose(d.values[1:-1, 1:-1], 4.0, rtol=1e-12)


def test_divergence_of_stream_function_field(grid32, rng):
    u = solenoidal(grid32, rng)
    d = divergence_face_to_cc(u)
    assert np.max(np.abs(d.values)) < 1e-12


# ---------------------------------------------------------------------------
# Neumann Laplacian

def test_laplacian_of_constant(grid32):
    out = laplacian_neumann(ScalarField.full(grid32, -2.0))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-12)


def test_laplacian_integrates_to_zero(grid32, rng):
    phi = ScalarField(grid32, rng.standard_normal((32, 32)))
    total = np.sum(laplacian_neumann(phi).values) * grid32.cell_volume
    assert abs(total) < 1e-12 * np.max(np.abs(phi.values)) / grid32.dx ** 2 * 10


def test_laplacian_convergence_against_analytic():
    errs, hs = [], []
    for n in (16, 32, 64):
        grid = Grid2D(n, n, 1.0, 1.0)
        phi = scalar_from_function(grid, lambda x, y: np.cos(np.pi * x))
        out = laplacian_neumann(phi)
        X, _ = grid.cell_centers()
        exact = -np.pi ** 2 * np.cos(np.pi * X)
        errs.append(np.max(np.abs(out.values - exact)))
        hs.append(grid.dx)
    slope = fit_slope(hs, errs)
    assert 1.8 <= slope <= 2.2


def test_laplacian_self_adjoint(grid32, rng):
    phi = ScalarField(grid32, rng.standard_normal((32, 32)))
    psi = ScalarField(grid32, rng.standard_normal((32, 32)))
    a = inner_product_l2(laplacian_neumann(phi), psi)
    b = inner_product_l2(phi, laplacian_neumann(psi))
    assert abs(a - b) <= 1e-11 * max(abs(a), abs(b), 1.0)


def test_laplacian_matches_ghost_cell_loops(rng):
    for grid in (Grid2D(11, 17, 1.3, 0.7), Grid2D(24, 40, 2.0, 1.0)):
        v = rng.standard_normal((grid.nx, grid.ny))
        direct = direct_neumann_laplacian(v, grid.dx, grid.dy)
        err = np.max(np.abs(laplacian_neumann_array(v, grid) - direct))
        assert err <= 1e-13 * np.max(np.abs(direct))
    # a smooth field with an offset: the stencil's five products round on
    # the scale max|v| (2/dx^2 + 2/dy^2), here about 5e3 times max|Lap v|
    grid = Grid2D(128, 128)
    X, Y = grid.cell_centers()
    v = 3.0 + np.cos(np.pi * X) * np.cos(2 * np.pi * Y)
    direct = direct_neumann_laplacian(v, grid.dx, grid.dy)
    err = np.max(np.abs(laplacian_neumann_array(v, grid) - direct))
    assert err <= 1e-14 * np.max(np.abs(v)) * (2 / grid.dx ** 2 + 2 / grid.dy ** 2)


def test_node_average_matches_clamped_loops(rng):
    # the edge-replicated cell-to-node average div_viscous_stress applies to nu
    c = rng.standard_normal((11, 17))
    direct = direct_node_average(c)
    assert np.max(np.abs(_nodes_from_cc(c) - direct)) <= 1e-13 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# node shear rates

def test_node_shear_rates_match_ghost_cell_loops(rng):
    grid = Grid2D(24, 40, 2.0, 1.0)
    u = _random_noslip(grid, rng)
    for fast, direct in zip(node_shear_rates(u),
                            direct_node_shear_rates(u.ux, u.uy, grid.dx, grid.dy),
                            strict=True):
        assert fast.shape == (25, 41)
        assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# symmetric gradient

def _sym_gradient(u):
    """(xx, xy, yy) of (grad u + grad u^T)/2, from ``full_gradient_cc``."""
    dxx, dxy, dyx, dyy = full_gradient_cc(u, node_shear_rates(u))
    return dxx, 0.5 * (dxy + dyx), dyy


def test_sym_gradient_of_zero(grid32):
    xx, xy, yy = _sym_gradient(VectorField.zeros(grid32))
    assert np.all(xx == 0) and np.all(xy == 0) and np.all(yy == 0)


def test_sym_gradient_rigid_rotation(grid32):
    u = vector_from_functions(grid32, lambda x, y: -(y - 0.5),
                              lambda x, y: x - 0.5)
    xx, xy, yy = _sym_gradient(u)
    np.testing.assert_allclose(xx, 0.0, atol=1e-12)
    np.testing.assert_allclose(yy, 0.0, atol=1e-12)
    np.testing.assert_allclose(xy[1:-1, 1:-1], 0.0, atol=1e-12)


def test_sym_gradient_shear():
    errs, hs = [], []
    for n in (16, 32, 64):
        grid = Grid2D(n, n, 1.0, 1.0)
        u = vector_from_functions(grid, lambda x, y: y, lambda x, y: 0.0 * x)
        _, xy, _ = _sym_gradient(u)
        errs.append(np.max(np.abs(xy[1:-1, 1:-1] - 0.5)))
        hs.append(grid.dx)
    assert errs[0] < 1e-12  # linear profile: exact, not just O(dx^2)


# ---------------------------------------------------------------------------
# viscous stress divergence

def _vector_laplacian_interior(u):
    """5-point Laplacian of each component with no-slip reflection ghosts."""
    g = u.grid
    uxp = np.concatenate([-u.ux[:, :1], u.ux, -u.ux[:, -1:]], axis=1)
    lap_x = ((u.ux[2:, :] - 2 * u.ux[1:-1, :] + u.ux[:-2, :]) / g.dx ** 2
             + (uxp[1:-1, 2:] - 2 * uxp[1:-1, 1:-1] + uxp[1:-1, :-2]) / g.dy ** 2)
    uyp = np.concatenate([-u.uy[:1, :], u.uy, -u.uy[-1:, :]], axis=0)
    lap_y = ((uyp[2:, 1:-1] - 2 * uyp[1:-1, 1:-1] + uyp[:-2, 1:-1]) / g.dx ** 2
             + (u.uy[:, 2:] - 2 * u.uy[:, 1:-1] + u.uy[:, :-2]) / g.dy ** 2)
    return lap_x, lap_y


def test_viscous_stress_constant_viscosity_reduction(grid32, rng):
    u = solenoidal(grid32, rng)          # discretely divergence-free
    nu0 = 0.7
    out = div_viscous_stress(ScalarField.full(grid32, nu0), u, node_shear_rates(u))
    lap_x, lap_y = _vector_laplacian_interior(u)
    np.testing.assert_allclose(out.ux[1:-1, :], nu0 * lap_x, atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(out.uy[:, 1:-1], nu0 * lap_y, atol=1e-12, rtol=1e-12)


def test_viscous_stress_manufactured_convergence():
    x, y = sp.symbols("x y")
    psi = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
    ux_s = sp.diff(psi, y)
    uy_s = -sp.diff(psi, x)
    nu_s = 1 + sp.Rational(1, 4) * sp.sin(2 * sp.pi * x) * sp.cos(2 * sp.pi * y)
    dxx = sp.diff(ux_s, x)
    dyy = sp.diff(uy_s, y)
    dxy = (sp.diff(ux_s, y) + sp.diff(uy_s, x)) / 2
    fx_s = sp.diff(2 * nu_s * dxx, x) + sp.diff(2 * nu_s * dxy, y)
    fy_s = sp.diff(2 * nu_s * dxy, x) + sp.diff(2 * nu_s * dyy, y)
    ux_f = sp.lambdify((x, y), ux_s, "numpy")
    uy_f = sp.lambdify((x, y), uy_s, "numpy")
    nu_f = sp.lambdify((x, y), nu_s, "numpy")
    fx_f = sp.lambdify((x, y), fx_s, "numpy")
    fy_f = sp.lambdify((x, y), fy_s, "numpy")

    errs, hs = [], []
    for n in (16, 32, 64):
        grid = Grid2D(n, n, 1.0, 1.0)
        u = vector_from_functions(grid, ux_f, uy_f)
        nu = scalar_from_function(grid, nu_f)
        out = div_viscous_stress(nu, u, node_shear_rates(u))
        XF, YF = xface_centers(grid)
        XG, YG = yface_centers(grid)
        m = 2  # interior band; boundary closure is exercised elsewhere
        ex = np.max(np.abs(out.ux[m:-m, m:-m] - fx_f(XF, YF)[m:-m, m:-m]))
        ey = np.max(np.abs(out.uy[m:-m, m:-m] - fy_f(XG, YG)[m:-m, m:-m]))
        errs.append(max(ex, ey))
        hs.append(grid.dx)
    slope = fit_slope(hs, errs)
    assert 1.8 <= slope <= 2.2


def _random_noslip(grid, rng) -> VectorField:
    """Random face field, not divergence-free, with zero boundary-normal faces."""
    return VectorField(grid, rng.standard_normal((grid.nx + 1, grid.ny)),
                       rng.standard_normal((grid.nx, grid.ny + 1))).enforce_noslip_normal()


def _assert_matches_loops(out, direct_x, direct_y):
    scale = max(np.max(np.abs(direct_x)), np.max(np.abs(direct_y)))
    assert np.max(np.abs(out.ux - direct_x)) <= 1e-13 * scale
    assert np.max(np.abs(out.uy - direct_y)) <= 1e-13 * scale


def test_viscous_stress_matches_ghost_cell_loops(rng):
    grid = Grid2D(24, 40, 2.0, 1.0)
    nu = rng.uniform(0.4, 1.6, (24, 40))
    u = _random_noslip(grid, rng)
    out = div_viscous_stress(ScalarField(grid, nu), u, node_shear_rates(u))
    _assert_matches_loops(out, *direct_viscous_stress(nu, u.ux, u.uy, grid.dx, grid.dy))


def test_velocity_operators_leave_inputs_unchanged(rng):
    # the operators write their intermediates into work arrays; a write
    # through a slice view of an input would show here
    grid = Grid2D(24, 40, 2.0, 1.0)
    nu = ScalarField(grid, rng.uniform(0.4, 1.6, (24, 40)))
    signed_nu = ScalarField(grid, rng.standard_normal((24, 40)))
    u = _random_noslip(grid, rng)
    w = _random_noslip(grid, rng)
    # the shear rates are inputs too: a step hands one record to several operators
    ru, rw = node_shear_rates(u), node_shear_rates(w)
    inputs = (nu.values, signed_nu.values, u.ux, u.uy, w.ux, w.uy, *ru, *rw)
    kept = [a.copy() for a in inputs]
    div_viscous_stress(nu, u, ru)
    div_viscous_stress(signed_nu, w, rw)
    advect_vector(u, w, rw)
    advect_vector(w, w, rw)
    full_gradient_cc(w, rw)
    full_gradient_cc(u, ru)
    for a, b in zip(inputs, kept, strict=True):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# advection

def test_advect_scalar_zero_velocity(grid32, rng):
    phi = ScalarField(grid32, rng.standard_normal((32, 32)))
    out = advect_scalar(VectorField.zeros(grid32), phi)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-14)


def test_advect_scalar_constant_field(grid32, rng):
    u = solenoidal(grid32, rng)
    out = advect_scalar(u, ScalarField.full(grid32, 4.2))
    assert np.max(np.abs(out.values)) < 1e-12


def test_advect_scalar_conserves_mass(grid32, rng):
    u = solenoidal(grid32, rng)
    phi = ScalarField(grid32, rng.standard_normal((32, 32)))
    total = np.sum(advect_scalar(u, phi).values) * grid32.cell_volume
    assert abs(total) < 1e-12


def test_advect_scalar_skew_adjoint(grid32, rng):
    u = solenoidal(grid32, rng)
    phi = ScalarField(grid32, rng.standard_normal((32, 32)))
    val = inner_product_l2(advect_scalar(u, phi), phi)
    assert abs(val) <= 1e-10 * norm_l2(phi) ** 2


def test_advect_vector_zero_velocity(grid32, rng):
    w = solenoidal(grid32, rng)
    out = advect_vector(VectorField.zeros(grid32), w, node_shear_rates(w))
    assert np.max(np.abs(out.ux)) == 0.0 and np.max(np.abs(out.uy)) == 0.0


def test_advect_vector_constant_w(grid32, rng):
    u = solenoidal(grid32, rng)
    w = VectorField.zeros(grid32)
    w.ux[:] = 1.3
    w.uy[:] = -0.4
    out = advect_vector(u, w, node_shear_rates(w))
    np.testing.assert_allclose(out.ux[2:-2, 2:-2], 0.0, atol=1e-12)
    np.testing.assert_allclose(out.uy[2:-2, 2:-2], 0.0, atol=1e-12)


def test_advect_vector_uniform_stream_matches_dx():
    errs, hs = [], []
    c = 0.8
    for n in (16, 32, 64):
        grid = Grid2D(n, n, 1.0, 1.0)
        u = VectorField.zeros(grid)
        u.ux[:] = c
        w = vector_from_functions(
            grid, lambda x, y: np.sin(2 * np.pi * x) * np.sin(np.pi * y),
            lambda x, y: np.cos(2 * np.pi * x) * np.sin(np.pi * y))
        out = advect_vector(u, w, node_shear_rates(w))
        XF, YF = xface_centers(grid)
        exact = c * 2 * np.pi * np.cos(2 * np.pi * XF) * np.sin(np.pi * YF)
        m = 2
        errs.append(np.max(np.abs(out.ux[m:-m, m:-m] - exact[m:-m, m:-m])))
        hs.append(grid.dx)
    slope = fit_slope(hs, errs)
    assert 1.8 <= slope <= 2.2


def test_advect_vector_matches_ghost_cell_loops(rng):
    grid = Grid2D(24, 40, 2.0, 1.0)
    u = _random_noslip(grid, rng)
    w = _random_noslip(grid, rng)
    out = advect_vector(u, w, node_shear_rates(w))
    _assert_matches_loops(out, *direct_advect_vector(u.ux, u.uy, w.ux, w.uy,
                                                     grid.dx, grid.dy))


# ---------------------------------------------------------------------------
# inner products

def test_inner_product_positive_definite(grid32, rng):
    phi = ScalarField(grid32, rng.standard_normal((32, 32)))
    assert inner_product_l2(phi, phi) > 0
    zero = ScalarField.zeros(grid32)
    assert inner_product_l2(zero, zero) == 0.0


def test_inner_product_measures_domain(grid32):
    one = ScalarField.full(grid32, 1.0)
    assert abs(inner_product_l2(one, one) - 1.0) < 1e-12
    ones_vec = VectorField(grid32, np.ones((33, 32)), np.ones((32, 33)))
    # face weighting reproduces the domain measure per component
    assert abs(inner_product_l2(ones_vec, ones_vec) - 2.0) < 1e-12


def test_face_inner_product_halves_boundary_faces(rng):
    # against the explicitly weighted sum, with nonzero boundary faces
    grid = Grid2D(24, 40, 2.0, 1.0)
    f = VectorField(grid, rng.standard_normal((25, 40)), rng.standard_normal((24, 41)))
    g = VectorField(grid, rng.standard_normal((25, 40)), rng.standard_normal((24, 41)))
    wx = np.ones((25, 40))
    wx[[0, -1], :] = 0.5
    wy = np.ones((24, 41))
    wy[:, [0, -1]] = 0.5
    weighted = np.sum(wx * f.ux * g.ux) + np.sum(wy * f.uy * g.uy)
    scale = np.sum(wx * np.abs(f.ux * g.ux)) + np.sum(wy * np.abs(f.uy * g.uy))
    err = abs(inner_product_l2(f, g) - weighted * grid.cell_volume)
    assert err <= 1e-14 * scale * grid.cell_volume


def test_inner_product_sine_integral():
    grid = Grid2D(64, 64, 1.0, 1.0)
    s = scalar_from_function(grid, lambda x, y: np.sin(2 * np.pi * x))
    assert abs(inner_product_l2(s, s) - 0.5) < 1e-3
