import numpy as np
import pytest

from nchns import Grid2D, Viscosity
from nchns.grid import divergence_face_to_cc, laplacian_neumann_array
from nchns.linsolve import (HelmholtzNeumannSolver, NeumannPoissonSolver,
                            SolverConvergenceError)

from conftest import SOLVER_PATHS, force_solver_path


def boundary_normal_faces_are_zero(g):
    return (np.all(g.ux[0, :] == 0.0) and np.all(g.ux[-1, :] == 0.0)
            and np.all(g.uy[:, 0] == 0.0) and np.all(g.uy[:, -1] == 0.0))


def test_poisson_solves_to_requested_residual(rng):
    grid = Grid2D(32, 32, 1.0, 1.0)
    b = rng.standard_normal((32, 32))
    b -= b.mean()
    solver = NeumannPoissonSolver(grid)
    g, info = solver.solve(b, atol=1e-12)
    res = b - divergence_face_to_cc(g).values
    assert np.max(np.abs(res - res.mean())) <= 1e-12
    assert boundary_normal_faces_are_zero(g)


def test_poisson_nonsquare_grid(rng):
    grid = Grid2D(24, 40, 2.0, 1.0)
    b = rng.standard_normal((24, 40))
    b -= b.mean()
    g, _ = NeumannPoissonSolver(grid).solve(b, atol=1e-11)
    res = b - divergence_face_to_cc(g).values
    assert np.max(np.abs(res)) <= 1e-11


def test_poisson_zero_rhs_returns_zero():
    grid = Grid2D(16, 16)
    g, info = NeumannPoissonSolver(grid).solve(np.zeros((16, 16)), atol=1e-13)
    assert np.all(g.ux == 0.0) and np.all(g.uy == 0.0)
    assert info.iterations == 0


def test_poisson_is_linear_below_atol(rng):
    # a right-hand side already inside atol is still solved, so the
    # projection stays linear on small divergences
    grid = Grid2D(24, 40, 2.0, 1.0)
    b = rng.standard_normal((24, 40))
    solver = NeumannPoissonSolver(grid)
    g, _ = solver.solve(b, atol=1e-10)
    scale = 2.0 ** -40
    g_small, info = solver.solve(scale * b, atol=1e-10)
    assert info.iterations == 1
    for small, full in ((g_small.ux, g.ux), (g_small.uy, g.uy)):
        assert np.max(np.abs(small - scale * full)) <= 1e-14 * scale * np.max(np.abs(full))


@pytest.mark.parametrize("nx, ny, lx", [(24, 40, 2.0), (33, 17, 1.0)])
def test_dense_and_transform_paths_agree(nx, ny, lx, rng, monkeypatch):
    grid = Grid2D(nx, ny, lx, 1.0)
    b = rng.standard_normal((nx, ny))
    solved = {}
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        u, _ = HelmholtzNeumannSolver(grid, 1.5, 1e-2).solve(b, atol=1e-12)
        g, _ = NeumannPoissonSolver(grid).solve(b, atol=1e-11)
        solved[path] = (u, g.ux, g.uy)
    for dense, transform in zip(solved["dense"], solved["transform"]):
        assert np.max(np.abs(dense - transform)) <= 1e-13 * np.max(np.abs(transform))


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


def test_helmholtz_unreachable_atol_raises_after_one_solve(rng, monkeypatch):
    grid = Grid2D(16, 16)
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        solver = HelmholtzNeumannSolver(grid, 1.5, 1e-3)
        with pytest.raises(SolverConvergenceError) as err:
            solver.solve(rng.standard_normal((16, 16)), atol=1e-30)
        assert err.value.iterations == 1


def test_solves_leave_rhs_unchanged(rng, monkeypatch):
    # the Helmholtz solve rebuilds its solution from b after the transform,
    # so a transform that wrote into b would break mass conservation
    grid = Grid2D(24, 40, 2.0, 1.0)
    b = rng.standard_normal((24, 40)) + 0.3     # not mean-zero
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        for solver in (HelmholtzNeumannSolver(grid, 1.5, 1e-2),
                       NeumannPoissonSolver(grid)):
            kept = b.copy()
            _, info = solver.solve(b, atol=1e-12)
            assert info.iterations >= 1
            assert np.array_equal(b, kept)


def test_non_finite_rhs_fails_fast(rng, monkeypatch):
    grid = Grid2D(32, 32, 1.0, 1.0)
    b = rng.standard_normal((32, 32))
    b[7, 11] = np.nan
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        for solver in (HelmholtzNeumannSolver(grid, 1.5, 1e-3),
                       NeumannPoissonSolver(grid)):
            with pytest.raises(SolverConvergenceError) as err:
                solver.solve(b, atol=1e-12)
            assert err.value.iterations <= 1


def test_poisson_unreachable_atol_raises_after_one_solve(rng):
    # the direct solve checks its residual once; it never iterates
    grid = Grid2D(16, 16)
    with pytest.raises(SolverConvergenceError) as err:
        NeumannPoissonSolver(grid).solve(rng.standard_normal((16, 16)), atol=1e-30)
    assert err.value.iterations == 1
