"""Outer decomposition loop: repeatedly solve exact block subproblems.

Each iteration selects a working set, solves the block subproblem globally
(with a proximal anchor at the current point), and applies the update.  The
objective sequence is nonincreasing by construction, and the strengthened
descent property

    F(x_{t+1}) + (theta/2) ||x_{t+1} - x_t||^2  <=  F(x_t)

holds exactly for the recorded trace, because objectives are accumulated
from the subproblem's own improvement deltas rather than recomputed.  One
gradient per point feeds both working-set selection and the block solve.
An iteration pays only for the work it does:

* the greedy picks and the pool of the random part are built once per point
  (``point_picks``), so an iteration draws, gathers and sorts;
* under a cap at s, a point with nnz(x) = s pins every block on which x is
  zero (``is_pinned``): z_B = x_B = 0 is its only admissible pattern, so the
  block solve is skipped and the iteration yields x itself;
* a step that leaves x unchanged yields the same x object, and ``iterate``
  records its step norm as 0.0 without forming x_next - x.

The residual r = Ax - b is formed once, at x0, and carried across moves: a
move by d on block B costs r + A[:, B] d, and the gradient A'r.

``iterate`` is the one loop of every iterative solver: it checks x0, times and
records the steps a solver's generator yields, and applies the stopping rule.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .data import check_seed
from .errors import DimensionMismatchError, InvalidParameterError, NumericalError
from .problem import INFEASIBLE, Cardinality, composite_value, require_l0_term
from .prox import hard_threshold_topk
from .subproblem import is_pinned, solve_block
from .working_set import point_picks, select_working_set


@dataclass
class DecConfig:
    """The settings of any solver run, and the home of their defaults.

    ``dec`` reads all of them: ``n_random``/``n_greedy`` set the mixed
    working-set strategy, and their sum is the block size; ``theta`` is the
    proximal anchor; ``epsilon``, ``window`` (the length of the trailing
    average) and ``max_iters`` set the stopping rule; ``seed`` draws the
    random picks and, in ``run_solver``, the start point.  ``pgm``, ``apgm``
    and ``cvx-l1`` read the stopping fields, and ``pgm`` and ``apgm`` the
    seed.  Every field is checked here, whichever solver will read it.
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
        if not 0 < self.theta < np.inf:
            raise InvalidParameterError(f"theta must be positive and finite, got {self.theta}")
        check_stopping(self.epsilon, self.window, self.max_iters)
        check_seed(self.seed)


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


def check_stopping(epsilon, window, max_iters):
    """Reject stopping settings under which no solver run is meaningful.

    Shared by the decomposition loop and the proximal-gradient baselines:
    epsilon must be positive (NaN is not), window and max_iters at least 1.
    """
    if not epsilon > 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    if max_iters < 1:
        raise InvalidParameterError(f"max_iters must be >= 1, got {max_iters}")


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
    # np.mean's own sum and division, without its dispatch
    return float(np.add.reduce(relative_drops[-window:])) / window <= epsilon


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


def iterate(prob, x0, steps, max_iters, epsilon, window):
    """Run a solver from x0 until the stopping rule fires; returns (x, trace).

    The one start check of every iterative solver: x0 must have shape (n,)
    and be feasible, and F(x0) finite (``NumericalError`` if it overflows);
    its residual r and F(x0) = f are formed once.  The generator
    ``steps(x, r, f)`` yields ``(x_next, F(x_next), working_set)`` at most
    ``max_iters`` times.  A record holds F at the start, the step
    norm ||x_next - x||, the working set and the time the step took.  A
    generator that yields x itself (the same object) has not moved, and its
    step is recorded as 0.0 without forming x_next - x.
    """
    check_stopping(epsilon, window, max_iters)
    x = np.array(x0, dtype=float)
    if x.shape != (prob.n,):
        raise DimensionMismatchError(f"x0 has shape {x.shape}, expected ({prob.n},)")
    with np.errstate(over="ignore", invalid="ignore"):
        r = prob.objective.residual(x)
        f = composite_value(prob, x, r=r)
    if f is INFEASIBLE:
        raise InvalidParameterError(
            f"infeasible start: {np.count_nonzero(x)} nonzeros exceed budget {prob.term.s}")
    if not np.isfinite(f):
        raise NumericalError(f"objective at the start is not finite: F(x0) = {f}")
    moves = steps(x, r, f)
    trace = SolveTrace()
    # one float64 buffer, doubled when full: the window mean converts nothing
    drops = np.empty(min(max_iters, 1024))
    for t in range(max_iters):
        tic = time.perf_counter()
        x_next, f_next, working_set = next(moves)
        step = 0.0 if x_next is x else float(np.linalg.norm(x_next - x))
        trace.records.append(IterationRecord(
            iteration=t, objective=f, step_norm=step,
            working_set=working_set, elapsed=time.perf_counter() - tic))
        if t == drops.size:
            drops = np.concatenate((drops, np.empty(drops.size)))
        drops[t] = relative_drop(f, f_next)
        x, f = x_next, f_next
        if stopping_rule(drops[:t + 1], window, epsilon):
            trace.status = "converged"
            break
    else:
        trace.status = "max_iters"
    trace.final_objective = f
    return x, trace


def run_dec(prob, x0, config):
    """Run the decomposition solver; returns (x, trace).

    ``iterate`` rejects an over-budget start, and its residual at x0 feeds
    the first gradient.  Each move carries that residual, r + A[:, B] d
    (``moved_residual``), and renews g = A'r.  The carried r drifts from Ax - b by rounding only: to first
    order in eps, after t moves on blocks of k coordinates each entry is
    within (n + 1 + 3 (k + 1) t) eps S of the exact residual, with S the
    largest entry of |A| |x| + |b| over the run's points.  F is accumulated
    from the block changes, so the drift touches only g.

    Every iteration selects its working set, and g, the picks and pool of
    ``point_picks`` and nnz(x) are renewed only when x moves.  Two cases
    skip the subproblem solve and yield x unchanged.  A block that
    ``is_pinned`` (a cap at s, nnz(x) = s and x_B = 0) has z_B = x_B as its
    only admissible pattern; the solve would return a copy of x.  And once a
    full-size working set leaves x unchanged, the point is a global
    minimizer of the anchored problem over every block, so later iterations
    only advance the trace until the stopping rule fires.
    """
    require_l0_term(prob.term, "decomposition")
    objective, term = prob.objective, prob.term
    # the picks depend only on x and g, so they are built once per point
    partial = config.n_random + config.n_greedy < prob.n

    def renew(x, r):
        g = objective.gradient(x, r=r)
        picks = point_picks(prob, x, g, config.n_greedy) if partial else None
        return g, picks, np.count_nonzero(x)

    def dec_steps(x, r, f):
        g, picks, nnz = renew(x, r)  # renewed only when x moves
        rng = np.random.default_rng(config.seed)
        settled = False  # full block solved exactly; nothing left to improve
        while True:
            B = select_working_set(prob, x, g, config.n_random, config.n_greedy, rng,
                                   picks=picks)
            if not settled and not is_pinned(term, nnz, np.count_nonzero(x[B]), B.size):
                result = solve_block(prob, x, g, B, config.theta)
                f = f + result.composite_delta
                # a move of entries below ~1e-162 has step 0.0 but is still a move
                if not np.array_equal(result.x_next, x):
                    r = objective.moved_residual(r, B, result.x_next[B] - x[B])
                    x = result.x_next
                    g, picks, nnz = renew(x, r)
                elif B.size == prob.n:
                    settled = True
            yield x, f, tuple(B.tolist())

    return iterate(prob, x0, dec_steps, config.max_iters, config.epsilon, config.window)
