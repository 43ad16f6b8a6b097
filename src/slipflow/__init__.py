"""Steady 2D Stokes/Navier-Stokes flows with Navier slip boundary conditions
on multiply-connected domains, plus numeric audits of the solvability
conditions (friction vs curvature, outflow, small-flux/Korn, symmetry)."""

from .geometry import Circle, DomainSpec, SplineCurve, classify_symmetry
from .meshing import Mesh, import_mesh, mesh_annulus, mesh_disk_with_holes, refine_nested, write_mesh

__version__ = "0.1.0"

from .analysis import audit, bernoulli_audit, head_pressure_residual, stream_function, weingarten_identity_check  # noqa: E402
from .assembly import ProblemData  # noqa: E402
from .extensions import harmonic_basis, harmonic_part, solenoidal_extension  # noqa: E402
from .linear_solvers import (FlowState, korn_constant, sobolev_constant,  # noqa: E402
                             solve_laplace_neumann)
from .navier_stokes import (IterationTrace, SolverConfig, continuation_sweep,  # noqa: E402
                            solve_navier_stokes, solve_stokes)
from .validation import convergence_study, hamel, mms_generate, slip_couette  # noqa: E402
