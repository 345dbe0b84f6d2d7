import numpy as np
import pytest

from nchns import Grid2D, VectorField, linsolve
from nchns.presets import random_solenoidal

# the two ways the Neumann solvers can run; the grid's size picks one
SOLVER_PATHS = ("dense", "transform")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid16():
    return Grid2D(16, 16, 1.0, 1.0)


@pytest.fixture
def grid32():
    return Grid2D(32, 32, 1.0, 1.0)


def solenoidal(grid, rng, amplitude=1.0) -> VectorField:
    return random_solenoidal(grid, amplitude, rng)


def force_solver_path(monkeypatch, path):
    """Make the Neumann solvers take ``path`` on every grid, whatever its size."""
    monkeypatch.setattr(linsolve, "_dense", lambda shape: path == "dense")
