"""Galerkin and Monte Carlo solvers for obstacle problems with random data."""

from .fem import (SpatialFunction, assemble_load, assemble_mass,
                  assemble_weighted_stiffness, evaluate_p1, interpolate_nodal,
                  norm_error)
from .fields import AffineField, AffineMode, FieldBounds, bounds_check
from .lcp import (SolverConfig, SolveReport, SparseObstacleSystem,
                  active_set_solve, brute_force_solve, complementarity_residual,
                  psor_solve, solve_lcp)
from .mc import MCAccumulator, MCResult, mc_run
from .mesh import (Mesh, TriQuadRule, build_uniform_mesh, triangle_quadrature,
                   write_vtk)
from .param import (Density1D, Gramians, ParamGrid, assemble_gramians,
                    build_param_grid, deterministic_grid, multilinear_evaluate)
from .problems import Problem, example1, example2, get_problem
from .runner import (ConfigError, ErrorTable, ExperimentConfig,
                     SolverNotConverged, convergence_errors, load_config,
                     run_convergence, run_mc, run_single, validate_config)
from .stats import (ParametricFunction, StatField, exact_statistic, sg_mean,
                    sg_second_moment, sg_variance, tensor_quadrature,
                    write_stat_csv, write_stat_vtk)
from .system import SGSystem, assemble_sg, dump_matrix

__version__ = "0.1.0"
