"""Outer decomposition loop: repeatedly solve exact block subproblems.

Each iteration selects a working set, solves the block subproblem globally
(with a proximal anchor at the current point), and applies the update.  The
objective sequence is nonincreasing by construction, and the strengthened
descent property

    F(x_{t+1}) + (theta/2) ||x_{t+1} - x_t||^2  <=  F(x_t)

holds exactly for the recorded trace, because objectives are accumulated
from the subproblem's own improvement deltas rather than recomputed.  One
gradient per point feeds both working-set selection and the block solve.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .problem import INFEASIBLE, Cardinality, composite_value, require_l0_term
from .prox import hard_threshold_topk
from .subproblem import solve_block
from .working_set import select_working_set


@dataclass
class DecConfig:
    """Knobs for the decomposition loop.

    ``n_random``/``n_greedy`` set the mixed working-set strategy; their sum
    is the block size.  ``window`` is the length of the trailing average
    used by the stopping rule.
    """

    n_random: int = 4
    n_greedy: int = 2
    theta: float = 1e-3
    epsilon: float = 1e-5
    window: int = 50
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n_random < 0 or self.n_greedy < 0:
            raise InvalidParameterError("working-set sizes must be nonnegative")
        if self.n_random + self.n_greedy < 1:
            raise InvalidParameterError("working-set must contain at least one coordinate")
        if not self.theta > 0:
            raise InvalidParameterError(f"theta must be positive, got {self.theta}")
        if not self.epsilon > 0:
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {self.window}")
        if self.max_iters < 1:
            raise InvalidParameterError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class IterationRecord:
    iteration: int
    objective: float  # F at the START of the iteration
    step_norm: float
    working_set: tuple
    elapsed: float


@dataclass
class SolveTrace:
    """Per-iteration history of a solver run."""

    records: list = field(default_factory=list)
    final_objective: float = np.nan
    status: str = "running"

    def objectives(self):
        return np.array([r.objective for r in self.records])

    def __len__(self):
        return len(self.records)


def stopping_rule(relative_drops, window, epsilon):
    """True when the trailing-window average of relative drops falls to epsilon.

    The rule waits for a full window before it can fire.  A block method
    changes at most k of n coordinates per iteration, so its first relative
    drops are structurally tiny; testing a partial window would stop the
    solver before its first effective move.
    """
    t = len(relative_drops)
    if t < window:
        return False
    return float(np.mean(relative_drops[-window:])) <= epsilon


def relative_drop(f_old, f_new):
    """(F_t - F_{t+1}) / |F_t|, with a zero denominator mapped to 0.

    The magnitude in the denominator keeps the ratio nonnegative for
    descent methods even when the objective passes through negative values.
    """
    if f_old == 0.0:
        return 0.0
    return (f_old - f_new) / abs(f_old)


def init_solution(n, term, seed):
    """Small random start: 1e-7 * standard normal, projected if constrained."""
    rng = np.random.default_rng(seed)
    x = 1e-7 * rng.standard_normal(n)
    if isinstance(term, Cardinality):
        x = hard_threshold_topk(x, term.s)
    return x


def run_dec(prob, x0, config):
    """Run the decomposition solver; returns (x, trace).

    A cardinality-infeasible start is rejected.  Once a full-size working
    set leaves x unchanged the point is a global minimizer of the anchored
    problem over every block, so later iterations skip the subproblem solve
    and only advance the trace until the stopping rule fires.
    """
    term = prob.term
    require_l0_term(term, "decomposition")
    x = np.array(x0, dtype=float)
    if x.shape != (prob.n,):
        raise InvalidParameterError(
            f"x0 has shape {x.shape}, expected ({prob.n},)")
    f = composite_value(prob, x)
    if f is INFEASIBLE:
        raise InvalidParameterError(
            f"infeasible start: {np.count_nonzero(x)} nonzeros exceed budget {term.s}")

    g = prob.objective.gradient(x)  # the gradient at x, renewed only when x moves
    rng = np.random.default_rng(config.seed)
    trace = SolveTrace()
    drops = []
    settled = False  # full block solved exactly; nothing left to improve
    for t in range(config.max_iters):
        tic = time.perf_counter()
        B = select_working_set(prob, x, g, config.n_random, config.n_greedy, rng)
        if settled:
            step = 0.0
            f_next = f
        else:
            result = solve_block(prob, x, g, B, config.theta)
            step = float(np.linalg.norm(result.x_next - x))
            f_next = f + result.composite_delta
            # a move of entries below ~1e-162 has step 0.0 but is still a move
            if not np.array_equal(result.x_next, x):
                g = prob.objective.gradient(result.x_next)
            elif len(B) == prob.n:
                settled = True
            x = result.x_next
        trace.records.append(IterationRecord(
            iteration=t, objective=f, step_norm=step, working_set=tuple(B.tolist()),
            elapsed=time.perf_counter() - tic))
        drops.append(relative_drop(f, f_next))
        f = f_next
        if stopping_rule(drops, config.window, config.epsilon):
            trace.status = "converged"
            break
    else:
        trace.status = "max_iters"
    trace.final_objective = f
    return x, trace
