import numpy as np
import pytest

from nchns import (Grid2D, ScalarField, convolve, grad_dot_convolve,
                   gradient_cc_to_face, inner_product_l2, make_kernel)
from nchns.grid import GridMismatchError, vector_to_cc
from nchns.kernels import Kernel

from oracles import (check_admissibility, direct_convolution,
                     direct_grad_convolution, direct_grad_dot_convolution)


@pytest.fixture
def gauss16():
    return make_kernel(Grid2D(16, 16), "gaussian", width=0.15)


def _rel_err(fast, direct):
    return np.max(np.abs(fast - direct)) / np.max(np.abs(direct))


def _constant_kernel(grid, c):
    """K = c everywhere, grad K = 0: constant x factor, unit y factor."""
    nx, ny = 2 * grid.nx - 1, 2 * grid.ny - 1
    return Kernel(grid, "constant", {}, (np.full(nx, c), np.zeros(nx),
                                         np.ones(ny), np.zeros(ny)))


def test_constant_kernel_convolution(grid16, rng):
    # constant kernel: (K * phi)(x) = c * integral(phi) for every x
    c = 0.8
    kern = _constant_kernel(grid16, c)
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
    kern = _constant_kernel(grid16, c)
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


def test_auto_scale_hits_target(rng):
    grid = Grid2D(32, 32)
    kern = make_kernel(grid, "gaussian", width=0.2, auto_scale_target=1.1)
    assert abs(kern.mass_field.values.min() - 1.1) < 1e-12

    # rescale, which auto-scaling calls, scales every output by f
    grid = Grid2D(24, 40, 1.0, 1.7)
    kern = make_kernel(grid, "gaussian", width=0.2, amplitude=1.3)
    phi = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))

    def outputs(k):
        return (convolve(k, phi).values, k.mass_field.values,
                grad_dot_convolve(k, gradient_cc_to_face(phi)).values)

    f = 0.37
    scaled = kern.rescale(f)
    for a, b in zip(outputs(scaled), outputs(kern), strict=True):
        assert _rel_err(a, f * b) <= 1e-13
    # rescaling changes only the x factors: the y matrices are shared
    assert scaled._toeplitz[2] is kern._toeplitz[2]
    assert scaled._toeplitz[3] is kern._toeplitz[3]


def test_grad_convolve_commutes_with_gradient():
    # grad(K * phi) ~ (grad K) * phi in the interior, O(dx^2): the tabulated
    # gradient factors are the derivative of K
    errs = []
    for n in (16, 32, 64):
        grid = Grid2D(n, n)
        kern = make_kernel(grid, "gaussian", width=0.2)
        phi = ScalarField.from_function(
            grid, lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y))
        ux, uy = direct_grad_convolution(kern, phi.values)
        rhs = gradient_cc_to_face(convolve(kern, phi))
        m = 2
        errs.append(max(np.max(np.abs(ux[m:-m, m:-m] - rhs.ux[m:-m, m:-m])),
                        np.max(np.abs(uy[m:-m, m:-m] - rhs.uy[m:-m, m:-m]))))
    assert errs[2] < errs[0]
    assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.15)


def test_grad_dot_convolve_trivial_cases(gauss16, grid16, rng):
    const = gradient_cc_to_face(ScalarField.full(grid16, 5.0))
    np.testing.assert_allclose(grad_dot_convolve(gauss16, const).values, 0.0,
                               atol=1e-13)
    constk = _constant_kernel(grid16, 1.0)
    q = gradient_cc_to_face(ScalarField(grid16, rng.standard_normal((16, 16))))
    np.testing.assert_allclose(grad_dot_convolve(constk, q).values, 0.0, atol=1e-13)


def test_grad_dot_convolve_matches_direct_sum():
    grid = Grid2D(32, 32)
    kern = make_kernel(grid, "gaussian", width=0.2)
    q = ScalarField.from_function(grid, lambda x, y: np.sin(2 * np.pi * x))
    gq = gradient_cc_to_face(q)
    fast = grad_dot_convolve(kern, gq).values
    qx_cc, qy_cc = vector_to_cc(gq)
    direct = direct_grad_dot_convolution(kern, qx_cc, qy_cc)
    rel = np.max(np.abs(fast - direct)) / np.max(np.abs(direct))
    assert rel <= 1e-12


def _assert_matches_direct_sums(kern, phi, rtol=1e-12):
    """convolve, mass_field and grad_dot_convolve against the double sums
    over the kernel's stencils.  Each error is relative to the largest direct
    value; an all-zero direct sum must be met exactly."""
    grid = kern.grid

    def close(fast, direct):
        assert np.max(np.abs(fast - direct)) <= rtol * np.max(np.abs(direct))

    close(convolve(kern, ScalarField(grid, phi)).values,
          direct_convolution(kern, phi))
    close(kern.mass_field.values,
          direct_convolution(kern, np.ones((grid.nx, grid.ny))))

    gq = gradient_cc_to_face(ScalarField(grid, phi))
    qx_cc, qy_cc = vector_to_cc(gq)
    close(grad_dot_convolve(kern, gq).values,
          direct_grad_dot_convolution(kern, qx_cc, qy_cc))


@pytest.mark.parametrize("family,params,symmetric", [
    ("gaussian", {"width": 0.3, "amplitude": 1.3}, True),
    ("delta", {"amplitude": 1.3}, True),
    ("random", {}, False),
])
@pytest.mark.parametrize("nx,ny", [(8, 13), (13, 8)])
def test_make_kernel_matches_direct_sums(nx, ny, family, params, symmetric, rng):
    # with nx != ny a transposed or swapped factor changes the result, and
    # random non-symmetric factors catch a flipped or shifted factor
    grid = Grid2D(nx, ny, 1.0, 1.7)
    if family == "random":
        kern = Kernel(grid, family, params, tuple(
            rng.standard_normal(2 * n - 1) for n in (nx, nx, ny, ny)))
    else:
        kern = make_kernel(grid, family, **params)
    st = kern.stencil
    assert np.array_equal(st, st[::-1, ::-1]) == symmetric
    _assert_matches_direct_sums(kern, rng.standard_normal((nx, ny)))


def test_kernel_checks_factor_lengths():
    grid = Grid2D(8, 13)
    taps = (15, 15, 25, 25)
    good = tuple(np.zeros(n) for n in taps)
    Kernel(grid, "gaussian", {}, good)
    # a 17-tap factor on 8 cells would shift the kernel off its centre tap
    for i, n in enumerate(taps):
        bad = list(good)
        bad[i] = np.zeros(n + 2)
        with pytest.raises(ValueError, match=f"{n} taps"):
            Kernel(grid, "gaussian", {}, tuple(bad))
    with pytest.raises(ValueError, match="15 taps"):
        Kernel(grid, "gaussian", {}, (np.zeros((15, 1)),) + good[1:])
    with pytest.raises(ValueError, match="four factors"):
        Kernel(grid, "gaussian", {}, good[:3])


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
    fx = np.zeros(31)
    fx[10] = 1.0  # no mirror partner
    fy = np.zeros(31)
    fy[15] = 1.0
    kern = Kernel(grid16, "gaussian", {}, (fx, np.zeros(31), fy, np.zeros(31)))
    report = check_admissibility(kern, samples=1)
    assert not report.symmetric
    assert not report.passed


def test_admissibility_rejects_bad_sample_count(gauss16):
    with pytest.raises(ValueError):
        check_admissibility(gauss16, samples=0)
