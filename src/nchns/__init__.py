"""Optimal distributed control of a nonlocal phase-field / flow system.

The package couples a convective nonlocal Cahn-Hilliard equation to the
incompressible Navier-Stokes equations on a 2D MAC grid, provides the
linearized (tangent) and adjoint solvers around stored trajectories, and
minimizes tracking costs over box-constrained body-force controls by
projected gradient descent.  The interaction kernel is separable and
convolves by Toeplitz products (``kernels``).

The package holds what a solve runs, with one way to do each thing; its
inputs are checked once, where they are built.  The verification harness
lives with the tests, in ``tests/oracles.py``: the checks that a kernel and
the material laws meet the paper's hypotheses (kernel symmetry and
smoothing, the growth conditions on the potential, the viscosity bounds),
the Taylor test of the cost's derivative, the complementarity check of the
optimality system, and the per-step diagnostics.  ``config.py`` is the one
module no solve reads; it goes with the benchmark's pin on it.
"""

from .grid import (Grid2D, ScalarField, VectorField, advect_scalar,
                   advect_vector, divergence_face_to_cc, div_viscous_stress,
                   gradient_cc_to_face, inner_product_l2, integral,
                   node_shear_rates)
from .kernels import Kernel, convolve, grad_dot_convolve, make_kernel
from .physics import DoubleWell, HypothesisConstants, Viscosity, chemical_potential
from .forward import (CFLViolationError, ForwardSolver, InitialData,
                      StateTrajectory, StepFailureError, TimeScheme,
                      kelvin_force, total_energy, zero_control)
from .tangent import TangentSolver, TangentTrajectory, run_tangent
from .adjoint import AdjointSolver, AdjointTrajectory, run_adjoint
from .problem import ControlBounds, ControlProblem, CostWeights, Targets
from .optimize import (OptimizerState, control_inner, control_norm,
                       directional_derivative_via_tangent, evaluate_cost,
                       kkt_residual, project_box, projected_gradient_descent,
                       reduced_gradient)

__version__ = "0.1.0"
