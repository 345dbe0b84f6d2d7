import numpy as np
import pytest

from nchns import Grid2D, Viscosity
from nchns.grid import laplacian_neumann_array
from nchns.linsolve import (HelmholtzNeumannSolver, NeumannPoissonSolver,
                            SolverConvergenceError)


def test_poisson_solves_to_requested_residual(rng):
    grid = Grid2D(32, 32, 1.0, 1.0)
    b = rng.standard_normal((32, 32))
    b -= b.mean()
    solver = NeumannPoissonSolver(grid)
    x, info = solver.solve(b, atol=1e-12)
    res = b - laplacian_neumann_array(x, grid)
    assert np.max(np.abs(res - res.mean())) <= 1e-12
    assert abs(x.mean()) < 1e-12


def test_poisson_nonsquare_grid(rng):
    grid = Grid2D(24, 40, 2.0, 1.0)
    b = rng.standard_normal((24, 40))
    b -= b.mean()
    x, _ = NeumannPoissonSolver(grid).solve(b, atol=1e-11)
    res = b - laplacian_neumann_array(x, grid)
    assert np.max(np.abs(res)) <= 1e-11


def test_poisson_zero_rhs_returns_zero():
    grid = Grid2D(16, 16)
    x, info = NeumannPoissonSolver(grid).solve(np.zeros((16, 16)), atol=1e-13)
    assert np.all(x == 0.0)
    assert info.iterations == 0


def test_poisson_is_linear_below_atol(rng):
    # a right-hand side already inside atol is still solved, so the
    # projection stays linear on small divergences
    grid = Grid2D(24, 40, 2.0, 1.0)
    b = rng.standard_normal((24, 40))
    solver = NeumannPoissonSolver(grid)
    x, _ = solver.solve(b, atol=1e-10)
    scale = 2.0 ** -40
    x_small, info = solver.solve(scale * b, atol=1e-10)
    assert info.iterations == 1
    assert np.max(np.abs(x_small - scale * x)) <= 1e-14 * scale * np.max(np.abs(x))


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_helmholtz_direct_solve_at_cfl_dt(n, rng):
    # one DCT pair solves the constant-coefficient operator to round-off at
    # the viscous CFL step, on every grid
    grid = Grid2D(n, n, 1.0, 1.0)
    dt = grid.dx ** 2 / (8.0 * Viscosity().nu_max)
    c = 3.1
    b = rng.standard_normal((n, n))
    atol = 1e-13 * np.max(np.abs(b))
    u, info = HelmholtzNeumannSolver(grid, c, dt).solve(b, atol=atol)
    assert info.iterations == 1
    res = b - (u - c * dt * laplacian_neumann_array(u, grid))
    assert np.max(np.abs(res)) <= atol


def test_helmholtz_rejects_nonpositive_coefficient():
    grid = Grid2D(16, 16)
    with pytest.raises(ValueError):
        HelmholtzNeumannSolver(grid, 0.0, 1e-3)


def test_helmholtz_unreachable_atol_raises_after_one_solve(rng):
    grid = Grid2D(16, 16)
    solver = HelmholtzNeumannSolver(grid, 1.5, 1e-3)
    with pytest.raises(SolverConvergenceError) as err:
        solver.solve(rng.standard_normal((16, 16)), atol=1e-30)
    assert err.value.iterations == 1


def test_solves_leave_rhs_unchanged(rng):
    # the Helmholtz solve rebuilds its solution from b after the transform,
    # so a transform that wrote into b would break mass conservation
    grid = Grid2D(24, 40, 2.0, 1.0)
    b = rng.standard_normal((24, 40)) + 0.3     # not mean-zero
    for solver in (HelmholtzNeumannSolver(grid, 1.5, 1e-2), NeumannPoissonSolver(grid)):
        kept = b.copy()
        _, info = solver.solve(b, atol=1e-12)
        assert info.iterations >= 1
        assert np.array_equal(b, kept)


def test_non_finite_rhs_fails_fast(rng):
    grid = Grid2D(32, 32, 1.0, 1.0)
    b = rng.standard_normal((32, 32))
    b[7, 11] = np.nan
    for solver in (HelmholtzNeumannSolver(grid, 1.5, 1e-3), NeumannPoissonSolver(grid)):
        with pytest.raises(SolverConvergenceError) as err:
            solver.solve(b, atol=1e-12)
        assert err.value.iterations <= 1


def test_poisson_unreachable_atol_raises_after_one_solve(rng):
    # the direct solve checks its residual once; it never iterates
    grid = Grid2D(16, 16)
    with pytest.raises(SolverConvergenceError) as err:
        NeumannPoissonSolver(grid).solve(rng.standard_normal((16, 16)), atol=1e-30)
    assert err.value.iterations == 1
