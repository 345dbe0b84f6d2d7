"""Optimal distributed control of a nonlocal phase-field / flow system.

The package couples a convective nonlocal Cahn-Hilliard equation to the
incompressible Navier-Stokes equations on a 2D MAC grid, provides the
linearized (tangent) and adjoint solvers around stored trajectories, and
minimizes tracking costs over box-constrained body-force controls by
projected gradient descent.  The interaction kernel is separable and
convolves by Toeplitz products (``kernels``).

The package holds only what a solve runs.  The checks that a kernel and the
material laws meet the paper's hypotheses (kernel symmetry and smoothing,
the growth conditions on the potential, the viscosity bounds) sample them
from outside and live with the tests, in ``tests/oracles.py``.
"""

from .grid import (Grid2D, ScalarField, TensorField, VectorField,
                   advect_scalar, advect_vector, divergence_face_to_cc,
                   div_viscous_stress, gradient_cc_to_face, inner_product_l2,
                   integral, laplacian_neumann, node_shear_rates, norm_l2,
                   sym_gradient)
from .kernels import Kernel, convolve, grad_dot_convolve, make_kernel
from .physics import DoubleWell, HypothesisConstants, Viscosity, chemical_potential
from .forward import (CFLViolationError, ForwardSolver, InitialData,
                      StateTrajectory, StepFailureError, TimeScheme,
                      diagnostics, kelvin_force, total_energy, zero_control)
from .tangent import TangentSolver, TangentTrajectory, run_tangent
from .adjoint import AdjointSolver, AdjointTrajectory, run_adjoint
from .problem import ControlBounds, ControlProblem, CostWeights, Targets
from .optimize import (OptimizerState, TaylorReport, complementarity_violation,
                       control_inner, control_norm, directional_derivative_via_tangent,
                       evaluate_cost, kkt_residual, project_box,
                       projected_gradient_descent, reduced_gradient, taylor_test)

__version__ = "0.1.0"
