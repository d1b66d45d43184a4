"""Bregman coordinate-descent solvers for sparse and constrained
optimization, with an experiment CLI producing convergence trace CSVs."""

__version__ = "0.1.0"

from .bregman import (BregmanError, BregmanSpec, PrimalDualState,
                      ScalarBregman, bregman_distance, shrink)
from .inclusion import (ConvergenceError, DivergenceError, InclusionError,
                        InclusionProblem, InclusionSolution, solve_inclusion)
from .metrics import (TraceRecord, clarke_dist, dissipation_slack,
                      relative_objective, support_stats)
from .objectives import (CoordinateObjective, L1QuadraticObjective,
                         ObjectiveError, QuadraticObjective,
                         StudentTObjective, add_noise, gaussian_system,
                         impulse_noise, itoh_abe_discrete_gradient,
                         make_test_image)
from .solvers import (InvariantViolation, SolverConfig, SolverError,
                      SweepResult, bia_sweep, blcd_sweep, bsor_sweep,
                      gauss_seidel_sweep, ia_sweep, l1_bsor_sweep, run,
                      sor_sweep, stationarity_residual)

__all__ = [
    "BregmanError", "BregmanSpec", "PrimalDualState", "ScalarBregman",
    "bregman_distance", "shrink",
    "ConvergenceError", "DivergenceError", "InclusionError",
    "InclusionProblem", "InclusionSolution", "solve_inclusion",
    "TraceRecord", "clarke_dist", "dissipation_slack", "relative_objective",
    "support_stats",
    "CoordinateObjective", "L1QuadraticObjective", "ObjectiveError",
    "QuadraticObjective", "StudentTObjective", "add_noise",
    "gaussian_system", "impulse_noise", "itoh_abe_discrete_gradient",
    "make_test_image",
    "InvariantViolation", "SolverConfig", "SolverError", "SweepResult",
    "bia_sweep", "blcd_sweep", "bsor_sweep", "gauss_seidel_sweep",
    "ia_sweep", "l1_bsor_sweep", "run", "sor_sweep",
    "stationarity_residual",
]
