import numpy as np
import pytest

from nchns import (DoubleWell, ForwardSolver, Grid2D, TimeScheme, VectorField,
                   Viscosity, make_kernel)
from nchns.grid import divergence_face_to_cc, laplacian_neumann_array
from nchns.linsolve import (HelmholtzNeumannSolver, NeumannPoissonSolver,
                            SolverConvergenceError)

from conftest import SOLVER_PATHS, force_solver_path


def boundary_normal_faces_are_zero(g):
    return (np.all(g.ux[0, :] == 0.0) and np.all(g.ux[-1, :] == 0.0)
            and np.all(g.uy[:, 0] == 0.0) and np.all(g.uy[:, -1] == 0.0))


def predictor(grid, rng):
    """White-noise face velocity with zero boundary-normal faces."""
    u = VectorField(grid, rng.standard_normal((grid.nx + 1, grid.ny)),
                    rng.standard_normal((grid.nx, grid.ny + 1)))
    return u.enforce_noslip_normal()


def max_div(u):
    return np.max(np.abs(divergence_face_to_cc(u).values))


def test_poisson_solves_to_requested_residual(rng):
    grid = Grid2D(32, 32, 1.0, 1.0)
    u = predictor(grid, rng)
    pu, info = NeumannPoissonSolver(grid).solve(u, atol=1e-12)
    assert pu is u                      # projected in the predictor's arrays
    assert info.iterations == 1
    assert info.residual == max_div(pu) <= 1e-12
    assert boundary_normal_faces_are_zero(pu)


def test_poisson_nonsquare_grid(rng):
    grid = Grid2D(24, 40, 2.0, 1.0)
    pu, _ = NeumannPoissonSolver(grid).solve(predictor(grid, rng), atol=1e-11)
    assert max_div(pu) <= 1e-11
    assert boundary_normal_faces_are_zero(pu)


def test_poisson_zero_rhs_returns_zero(monkeypatch):
    # a zero predictor takes the one application like any other
    grid = Grid2D(16, 16)
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        pu, info = NeumannPoissonSolver(grid).solve(VectorField.zeros(grid), atol=1e-13)
        assert np.all(pu.ux == 0.0) and np.all(pu.uy == 0.0)
        assert info.iterations == 1


def test_poisson_is_linear_below_atol(rng):
    # a predictor whose divergence is already inside atol is still
    # projected, so the projection stays linear on small divergences
    grid = Grid2D(24, 40, 2.0, 1.0)
    u = predictor(grid, rng)
    solver = NeumannPoissonSolver(grid)
    scale = 2.0 ** -44        # max|div u*| about 200, so 1.1e-11 after scaling
    g = u - solver.solve(u.copy(), atol=1e-10)[0]
    small = scale * u
    assert max_div(small) <= 1e-10
    pu_small, info = solver.solve(small.copy(), atol=1e-10)
    assert info.iterations == 1
    g_small = small - pu_small
    for gs, gf in ((g_small.ux, g.ux), (g_small.uy, g.uy)):
        assert np.max(np.abs(gs - scale * gf)) <= 1e-14 * scale * np.max(np.abs(gf))


@pytest.mark.parametrize("nx, ny, lx", [(24, 40, 2.0), (33, 17, 1.0)])
def test_dense_and_transform_paths_agree(nx, ny, lx, rng, monkeypatch):
    # the Helmholtz solutions, and the gradients u* - P u* the projection
    # subtracts
    grid = Grid2D(nx, ny, lx, 1.0)
    b = rng.standard_normal((nx, ny))
    u = predictor(grid, rng)
    solved = {}
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        w, _ = HelmholtzNeumannSolver(grid, 1.5, 1e-2).solve(b, atol=1e-12)
        g = u - NeumannPoissonSolver(grid).solve(u.copy(), atol=1e-11)[0]
        solved[path] = (w, g.ux, g.uy)
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
    # so a transform that wrote into b would break mass conservation; the
    # pressure solve projects in place, so ``project`` works on a copy
    grid = Grid2D(24, 40, 2.0, 1.0)
    b = rng.standard_normal((24, 40)) + 0.3     # not mean-zero
    u = VectorField(grid, rng.standard_normal((25, 40)),    # walls not zeroed
                    rng.standard_normal((24, 41)))
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        kept = b.copy()
        _, info = HelmholtzNeumannSolver(grid, 1.5, 1e-2).solve(b, atol=1e-12)
        assert info.iterations == 1
        assert np.array_equal(b, kept)
        fwd = ForwardSolver(grid, make_kernel(grid, "delta"), DoubleWell(),
                            Viscosity(), TimeScheme(dt=1e-5, nt=1))
        kept = u.copy()
        pu = fwd.project(u)
        assert max_div(pu) <= fwd.scheme.tol_p and pu.ux is not u.ux
        assert np.array_equal(u.ux, kept.ux) and np.array_equal(u.uy, kept.uy)


def test_non_finite_rhs_fails_fast(rng, monkeypatch):
    grid = Grid2D(32, 32, 1.0, 1.0)
    b = rng.standard_normal((32, 32))
    b[7, 11] = np.nan
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        u = predictor(grid, rng)
        u.uy[7, 11] = np.nan
        for solve, arg in ((HelmholtzNeumannSolver(grid, 1.5, 1e-3).solve, b),
                           (NeumannPoissonSolver(grid).solve, u)):
            with pytest.raises(SolverConvergenceError) as err:
                solve(arg, atol=1e-12)
            assert err.value.iterations <= 1


def test_poisson_unreachable_atol_raises_after_one_solve(rng, monkeypatch):
    # the direct solve checks the divergence it leaves once; it never iterates
    grid = Grid2D(16, 16)
    for path in SOLVER_PATHS:
        force_solver_path(monkeypatch, path)
        with pytest.raises(SolverConvergenceError) as err:
            NeumannPoissonSolver(grid).solve(predictor(grid, rng), atol=1e-30)
        assert err.value.iterations == 1
