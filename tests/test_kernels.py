import numpy as np
import pytest

from scipy import fft as sfft

from nchns import (Grid2D, ScalarField, check_admissibility, convolve,
                   grad_convolve, grad_dot_convolve, gradient_cc_to_face,
                   inner_product_l2, make_kernel, norm_l2)
from nchns.grid import GridMismatchError, cc_components_to_faces, vector_to_cc
from nchns.kernels import Kernel

from oracles import direct_convolution, direct_grad_dot_convolution


@pytest.fixture
def gauss16():
    return make_kernel(Grid2D(16, 16), "gaussian", width=0.15)


def test_constant_kernel_convolution(grid16, rng):
    # constant stencil: (K * phi)(x) = c * integral(phi) for every x
    c = 0.8
    st = np.full((31, 31), c)
    kern = Kernel(grid16, "gaussian", {}, st, np.zeros_like(st), np.zeros_like(st))
    phi = ScalarField(grid16, rng.standard_normal((16, 16)))
    out = convolve(kern, phi)
    expected = c * np.sum(phi.values) * grid16.cell_volume
    np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-13)


def test_delta_kernel_is_identity(grid16, rng):
    kern = make_kernel(grid16, "delta")
    phi = ScalarField(grid16, rng.standard_normal((16, 16)))
    np.testing.assert_allclose(convolve(kern, phi).values, phi.values,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(kern.mass_field.values, 1.0, rtol=1e-12)


def test_fast_convolution_matches_direct_sum(rng):
    grid = Grid2D(32, 32)
    kern = make_kernel(grid, "gaussian", width=0.2)
    phi = ScalarField(grid, rng.standard_normal((32, 32)))
    fast = convolve(kern, phi).values
    direct = direct_convolution(kern, phi.values)
    rel = np.max(np.abs(fast - direct)) / np.max(np.abs(direct))
    assert rel <= 1e-12


def test_convolution_self_adjoint(gauss16, rng):
    grid = gauss16.grid
    eta = ScalarField(grid, rng.standard_normal((16, 16)))
    om = ScalarField(grid, rng.standard_normal((16, 16)))
    a = inner_product_l2(convolve(gauss16, eta), om)
    b = inner_product_l2(convolve(gauss16, om), eta)
    assert abs(a - b) <= 1e-11 * max(abs(a), abs(b))


def test_convolution_grid_mismatch(gauss16):
    with pytest.raises(GridMismatchError):
        convolve(gauss16, ScalarField.zeros(Grid2D(8, 8)))


def test_mass_field_constant_kernel(grid16):
    c = 2.0
    st = np.full((31, 31), c)
    kern = Kernel(grid16, "gaussian", {}, st, np.zeros_like(st), np.zeros_like(st))
    np.testing.assert_allclose(kern.mass_field.values, c * grid16.lx * grid16.ly,
                               rtol=1e-12)


def test_mass_field_interior_plateau():
    # narrow gaussian: interior mass ~ amp * 2 pi sigma^2, boundary strictly less
    grid = Grid2D(32, 32)
    sigma = 0.05
    kern = make_kernel(grid, "gaussian", width=sigma, amplitude=1.0)
    a = kern.mass_field.values
    analytic = 2.0 * np.pi * sigma ** 2
    assert abs(a[16, 16] - analytic) / analytic < 2e-3
    assert a[0, 0] < a[16, 16]
    assert a.min() >= 0.0


def test_mass_field_positive_for_log_kernel():
    grid = Grid2D(32, 32)
    kern = make_kernel(grid, "mollified_newtonian", core_radius=0.05)
    assert kern.mass_field.values.min() > 0.0
    center = kern.mass_field.values[16, 16]
    corner = kern.mass_field.values[0, 0]
    assert center > corner


def test_auto_scale_hits_target():
    grid = Grid2D(32, 32)
    kern = make_kernel(grid, "gaussian", width=0.2, auto_scale_target=1.1)
    assert abs(kern.mass_field.values.min() - 1.1) < 1e-12


def test_grad_convolve_zero_cases(gauss16, grid16, rng):
    zero = ScalarField.zeros(grid16)
    out = grad_convolve(gauss16, zero)
    assert np.max(np.abs(out.ux)) == 0.0 and np.max(np.abs(out.uy)) == 0.0
    st = np.full((31, 31), 1.0)
    const = Kernel(grid16, "gaussian", {}, st, np.zeros_like(st), np.zeros_like(st))
    phi = ScalarField(grid16, rng.standard_normal((16, 16)))
    out = grad_convolve(const, phi)
    assert np.max(np.abs(out.ux)) == 0.0 and np.max(np.abs(out.uy)) == 0.0


def test_grad_convolve_commutes_with_gradient():
    # grad(K * phi) ~ (grad K) * phi in the interior, O(dx^2)
    errs = []
    for n in (16, 32, 64):
        grid = Grid2D(n, n)
        kern = make_kernel(grid, "gaussian", width=0.2)
        phi = ScalarField.from_function(
            grid, lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y))
        lhs = grad_convolve(kern, phi)
        rhs = gradient_cc_to_face(convolve(kern, phi))
        m = 2
        errs.append(max(np.max(np.abs(lhs.ux[m:-m, m:-m] - rhs.ux[m:-m, m:-m])),
                        np.max(np.abs(lhs.uy[m:-m, m:-m] - rhs.uy[m:-m, m:-m]))))
    assert errs[2] < errs[0]
    assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.15)


def test_grad_dot_convolve_trivial_cases(gauss16, grid16, rng):
    const = ScalarField.full(grid16, 5.0)
    np.testing.assert_allclose(grad_dot_convolve(gauss16, const).values, 0.0,
                               atol=1e-13)
    st = np.full((31, 31), 1.0)
    constk = Kernel(grid16, "gaussian", {}, st, np.zeros_like(st), np.zeros_like(st))
    q = ScalarField(grid16, rng.standard_normal((16, 16)))
    np.testing.assert_allclose(grad_dot_convolve(constk, q).values, 0.0, atol=1e-13)


def test_grad_dot_convolve_matches_direct_sum():
    grid = Grid2D(32, 32)
    kern = make_kernel(grid, "gaussian", width=0.2)
    q = ScalarField.from_function(grid, lambda x, y: np.sin(2 * np.pi * x))
    fast = grad_dot_convolve(kern, q).values
    qx_cc, qy_cc = vector_to_cc(gradient_cc_to_face(q))
    direct = direct_grad_dot_convolution(kern, qx_cc, qy_cc)
    rel = np.max(np.abs(fast - direct)) / np.max(np.abs(direct))
    assert rel <= 1e-12


def _rel_err(fast, direct):
    return np.max(np.abs(fast - direct)) / np.max(np.abs(direct))


def _assert_matches_direct_sums(kern, phi, rtol=1e-12):
    """convolve, mass_field, grad_convolve and grad_dot_convolve against the
    double sums over the kernel's stencils.  Each error is relative to the
    largest direct value; an all-zero direct sum must be met exactly."""
    grid = kern.grid

    def close(fast, direct):
        assert np.max(np.abs(fast - direct)) <= rtol * np.max(np.abs(direct))

    close(convolve(kern, ScalarField(grid, phi)).values,
          direct_convolution(kern, phi))
    close(kern.mass_field.values,
          direct_convolution(kern, np.ones((grid.nx, grid.ny))))

    fast = grad_convolve(kern, ScalarField(grid, phi))
    direct = cc_components_to_faces(
        grid, direct_convolution(kern, phi, kern.gx_stencil),
        direct_convolution(kern, phi, kern.gy_stencil), boundary="edge")
    close(fast.ux, direct.ux)
    close(fast.uy, direct.uy)

    q = ScalarField(grid, phi)
    qx_cc, qy_cc = vector_to_cc(gradient_cc_to_face(q))
    close(grad_dot_convolve(kern, q).values,
          direct_grad_dot_convolution(kern, qx_cc, qy_cc))


@pytest.mark.parametrize("nx,ny", [(8, 13), (13, 8)])
def test_tight_padding_matches_direct_sums(nx, ny, rng):
    # 2n - 1 = 15 and 25 are fast lengths, so the transforms run at exactly
    # the minimal circulant size: any under-padding would alias into the
    # kept block.  A random non-symmetric stencil catches a flipped or
    # shifted stencil.
    assert sfft.next_fast_len(2 * nx - 1) == 2 * nx - 1
    assert sfft.next_fast_len(2 * ny - 1) == 2 * ny - 1
    grid = Grid2D(nx, ny, 1.0, 1.7)
    shape = (2 * nx - 1, 2 * ny - 1)
    kern = Kernel(grid, "gaussian", {}, rng.standard_normal(shape),
                  rng.standard_normal(shape), rng.standard_normal(shape))
    _assert_matches_direct_sums(kern, rng.standard_normal((nx, ny)))


@pytest.mark.parametrize("family,params,factored", [
    ("gaussian", {"width": 0.3, "amplitude": 1.3}, True),
    ("delta", {"amplitude": 1.3}, True),
    ("mollified_newtonian", {"core_radius": 0.05}, False),
])
@pytest.mark.parametrize("nx,ny", [(8, 13), (13, 8)])
def test_make_kernel_matches_direct_sums(nx, ny, family, params, factored, rng):
    # the separable families take the Toeplitz path, the Newtonian the FFT
    # path; with nx != ny a transposed or swapped factor changes the result
    kern = make_kernel(Grid2D(nx, ny, 1.0, 1.7), family, **params)
    assert (kern.factors is not None) == factored
    _assert_matches_direct_sums(kern, rng.standard_normal((nx, ny)))


def test_toeplitz_and_fft_paths_agree(rng):
    # the same gaussian tabulated from its closed form in 2-D (FFT path)
    # and by make_kernel from 1-D factors (Toeplitz path)
    grid = Grid2D(24, 40, 1.0, 1.7)
    sigma, amp = 0.2, 1.3
    ox = (np.arange(2 * grid.nx - 1) - (grid.nx - 1)) * grid.dx
    oy = (np.arange(2 * grid.ny - 1) - (grid.ny - 1)) * grid.dy
    X, Y = np.meshgrid(ox, oy, indexing="ij")
    k = amp * np.exp(-(X ** 2 + Y ** 2) / (2 * sigma ** 2))
    fft_kern = Kernel(grid, "gaussian", {}, k, -(X / sigma ** 2) * k,
                      -(Y / sigma ** 2) * k)
    sep_kern = make_kernel(grid, "gaussian", width=sigma, amplitude=amp)
    assert fft_kern.factors is None and sep_kern.factors is not None
    phi = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))

    def outputs(kern):
        g = grad_convolve(kern, phi)
        return (convolve(kern, phi).values, kern.mass_field.values, g.ux, g.uy,
                grad_dot_convolve(kern, phi).values)

    for a, b in zip(outputs(fft_kern), outputs(sep_kern), strict=True):
        assert _rel_err(a, b) <= 1e-13

    f = 0.37
    for kern in (fft_kern, sep_kern):
        scaled = kern.rescale(f)
        assert (scaled.factors is None) == (kern.factors is None)
        for a, b in zip(outputs(scaled), outputs(kern), strict=True):
            assert _rel_err(a, f * b) <= 1e-13


def test_kernel_needs_stencils_or_factors(grid16):
    st = np.zeros((31, 31))
    with pytest.raises(ValueError):
        Kernel(grid16, "gaussian", {})
    with pytest.raises(ValueError):
        Kernel(grid16, "gaussian", {}, st, st, st,
               factors=(np.zeros(31), np.zeros(31), np.zeros(31), np.zeros(31)))


def test_admissibility_delta_kernel(grid16):
    report = check_admissibility(make_kernel(grid16, "delta"), samples=2)
    assert report.symmetric
    assert report.mass_nonnegative
    assert abs(report.mass_min - 1.0) < 1e-12


def test_admissibility_gaussian_stable_under_refinement(rng):
    ratios = []
    for n in (16, 32, 64):
        kern = make_kernel(Grid2D(n, n), "gaussian", width=0.2)
        rep = check_admissibility(kern, samples=4, rng=np.random.default_rng(7))
        assert rep.passed
        ratios.append(rep.smoothing_ratio)
    spread = max(ratios) / min(ratios)
    assert spread < 1.1  # bounded smoothing constant, stable within 10%


def test_admissibility_flags_asymmetric_stencil(grid16):
    st = np.zeros((31, 31))
    st[10, 15] = 1.0  # no mirror partner
    kern = Kernel(grid16, "gaussian", {}, st, np.zeros_like(st), np.zeros_like(st))
    report = check_admissibility(kern, samples=1)
    assert not report.symmetric
    assert not report.passed


def test_admissibility_rejects_bad_sample_count(gauss16):
    with pytest.raises(ValueError):
        check_admissibility(gauss16, samples=0)
