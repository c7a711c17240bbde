"""Block-decomposition solver for sparse least squares and quadratics.

The package minimizes F(x) = f(x) + h(x) where f is a convex quadratic and
h enforces sparsity (a hard cardinality cap or a count penalty), plus the
standard relaxations, baselines, and stationarity checkers used to study
such problems at desk scale.
"""

from .baselines import apgm, cvx_l1_sweep, omp, pgm
from .bench import benchmark, run_solver, write_trace
from .data import (corrupt, gen_random, load_dense_instance, load_instance,
                   load_point, load_sparse_text, save_instance, save_point,
                   save_sparse_text)
from .dec import (DecConfig, IterationRecord, SolveTrace, init_solution,
                  relative_drop, run_dec, stopping_rule)
from .errors import (BlockdecError, BudgetExceededError, DataFormatError,
                     DegenerateSystemError, DimensionMismatchError,
                     InvalidParameterError, NumericalError)
from .problem import (INFEASIBLE, Cardinality, CompositeProblem, HalfPenalty,
                      L0Penalty, L1Penalty, QuadraticObjective,
                      composite_value)
from .prox import (half_threshold, hard_threshold_topk, prox_l0_penalty,
                   proximal_step, soft_threshold)
from .stationarity import (LandscapeCounts, enumerate_basic_points, is_basic,
                           is_block_k, is_l_stationary, landscape_table,
                           table1_problem)
from .subproblem import BlockSolveResult, solve_block
from .working_set import greedy_scores, random_set, select_working_set

__version__ = "0.1.0"

__all__ = [
    "INFEASIBLE", "BlockdecError", "BlockSolveResult", "BudgetExceededError",
    "Cardinality", "CompositeProblem", "DataFormatError", "DecConfig",
    "DegenerateSystemError", "DimensionMismatchError", "HalfPenalty",
    "InvalidParameterError", "IterationRecord", "L0Penalty", "L1Penalty",
    "LandscapeCounts", "NumericalError", "QuadraticObjective", "SolveTrace",
    "apgm", "benchmark", "composite_value", "corrupt", "cvx_l1_sweep",
    "enumerate_basic_points", "gen_random", "greedy_scores", "half_threshold",
    "hard_threshold_topk", "init_solution", "is_basic", "is_block_k",
    "is_l_stationary", "landscape_table", "load_dense_instance",
    "load_instance", "load_point", "load_sparse_text", "omp", "pgm",
    "prox_l0_penalty", "proximal_step", "random_set", "relative_drop",
    "run_dec", "run_solver", "save_instance", "save_point", "save_sparse_text",
    "select_working_set", "soft_threshold", "solve_block", "stopping_rule",
    "table1_problem", "write_trace",
]
