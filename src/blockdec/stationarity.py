"""Stationarity checkers and exhaustive landscape census for small problems.

Three nested notions are covered, from weakest to strongest:

* basic point: the gradient vanishes on the support (and the point is
  feasible in the constrained case);
* L-stationary point: fixed point of the proximal-gradient map at step 1/L;
* block-k optimal point: no working set of size k admits any improving
  update, verified against the exact subproblem solver.

For problems small enough to enumerate, ``landscape_table`` counts the
points in each class.  Support classification treats entries below
``ZERO_TOL`` as zeros so that solver round-off cannot flip a verdict.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import BudgetExceededError, InvalidParameterError
from .problem import (INFEASIBLE, Cardinality, CompositeProblem, QuadraticObjective,
                      composite_value, make_term, require_l0_term)
from .subproblem import solve_block
from .working_set import random_set

ZERO_TOL = 1e-12
ENUM_BUDGET = 10 ** 6
BLOCK_BUDGET = 10 ** 8


def _support(x):
    return np.flatnonzero(np.abs(x) > ZERO_TOL)


def is_basic(prob, x, tol=1e-8):
    """Gradient vanishes on the support; constrained case also feasible."""
    x = np.asarray(x, dtype=float)
    supp = _support(x)
    if isinstance(prob.term, Cardinality) and supp.size > prob.term.s:
        return False
    if supp.size == 0:
        return True
    g = prob.objective.gradient(x)
    return bool(np.max(np.abs(g[supp])) <= tol)


def is_l_stationary(prob, x, l_const=None, tol=1e-8):
    """Fixed point of the proximal-gradient map at step size 1/L.

    L defaults to the largest eigenvalue of the quadratic's matrix.  The
    check is split by coordinate so that each condition carries its own
    tolerance; in particular the top-s selection in the constrained case is
    tested through the order statistics of |x - g/L| rather than by
    re-running the projection, which keeps ties well defined.
    """
    require_l0_term(prob.term, "L-stationarity")
    x = np.asarray(x, dtype=float)
    L = prob.objective.lipschitz_global() if l_const is None else float(l_const)
    return _l_stationary_at(prob, x, prob.objective.gradient(x), L, tol)


def _l_stationary_at(prob, x, g, L, tol):
    """is_l_stationary at x, given g = grad f(x)."""
    if not L > 0:
        raise InvalidParameterError(f"L must be positive, got {L}")
    term = prob.term
    supp = _support(x)
    on = np.zeros(prob.n, dtype=bool)
    on[supp] = True

    if isinstance(term, Cardinality):
        if supp.size > term.s:
            return False
        u = np.abs(x - g / L)
        if supp.size and np.max(np.abs(g[supp])) / L > tol:
            return False
        off_max = np.max(u[~on]) if (~on).any() else 0.0
        if supp.size < term.s:
            return off_max <= tol
        return off_max <= np.min(u[on]) + tol

    # count penalty: on the support g_i = 0 and x_i^2 >= thresh; off it (g_i/L)^2 <= thresh
    thresh = 2.0 * term.lam / L
    x_on, g_on, g_off = x[on], g[on], g[~on] / L
    return not (np.any(np.abs(g_on) > tol) or np.any(x_on * x_on < thresh - tol)
                or np.any(g_off * g_off > thresh + tol))


def is_block_k(prob, x, k, tol=1e-9, mode="exhaustive", trials=1000, seed=0):
    """No size-k working set admits an improving exact update.

    Improvement is measured against composite_value(x) with relative slack
    tol * (1 + |F(x)|).  Exhaustive mode visits all C(n, k) sets; sampled
    mode draws ``trials`` sets uniformly and can only certify "no violation
    found".  The constrained problem refuses k = 1: single-coordinate
    updates cannot alter a full support, so the notion starts at pairs.
    """
    term = prob.term
    require_l0_term(term, "block stationarity")
    if isinstance(term, Cardinality) and k < 2:
        raise InvalidParameterError(
            "block size 1 is degenerate under a cardinality constraint; use k >= 2")
    if not 1 <= k <= prob.n:
        raise InvalidParameterError(f"block size {k} outside [1, {prob.n}]")
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameterError(f"unknown mode {mode!r}")

    x = np.asarray(x, dtype=float)
    f_x = composite_value(prob, x)
    if f_x is INFEASIBLE:
        return False
    if mode == "exhaustive":
        blocks = _all_blocks(prob.n, k)
    else:
        rng = np.random.default_rng(seed)
        blocks = (random_set(prob.n, k, rng) for _ in range(trials))
    return _no_improving_block(prob, x, prob.objective.gradient(x), f_x, blocks, tol)


def _all_blocks(n, k):
    """Every size-k working set, after the exhaustive-mode budget check."""
    cost = math.comb(n, k) * (2 ** k)
    if cost > BLOCK_BUDGET:
        raise BudgetExceededError(
            f"landscape too large: C({n},{k}) * 2^{k} = {cost} patterns "
            f"exceeds the {BLOCK_BUDGET} budget; use sampled mode")
    return itertools.combinations(range(n), k)


def _no_improving_block(prob, x, g, f_x, blocks, tol):
    """is_block_k's verdict over ``blocks``, given g = grad f(x) and f_x = F(x)."""
    slack = tol * (1.0 + abs(f_x))
    for B in blocks:
        result = solve_block(prob, x, g, B, theta=0.0)
        if result.composite_delta < -slack:
            return False
    return True


def _admissible_supports(n, term):
    if isinstance(term, Cardinality):
        sizes = range(term.s + 1)
    else:
        sizes = range(n + 1)
    for r in sizes:
        yield from itertools.combinations(range(n), r)


def enumerate_basic_points(prob):
    """All basic points, one per admissible support.

    Each support S contributes the solution of Q_SS z = -p_S (minimum-norm
    when the restriction is singular).  Distinct supports occasionally
    yield the same vector; callers that want geometric counts should
    deduplicate, e.g. as landscape_table does.
    """
    term = prob.term
    require_l0_term(term, "enumeration")
    n = prob.n
    if isinstance(term, Cardinality):
        total = sum(math.comb(n, r) for r in range(term.s + 1))
    else:
        total = 2 ** n
    if total > ENUM_BUDGET:
        raise BudgetExceededError(
            f"landscape too large: {total} supports exceeds the {ENUM_BUDGET} budget")

    points = []
    for S in _admissible_supports(n, term):
        x = np.zeros(n)
        if S:
            idx = np.asarray(S, dtype=int)
            Q_SS = prob.objective.gram_submatrix(idx)
            rhs = -prob.objective.linear_term(idx)
            try:
                z = cho_solve(cho_factor(Q_SS), rhs)
            except np.linalg.LinAlgError:
                z = np.linalg.lstsq(Q_SS, rhs, rcond=None)[0]
            x[idx] = z
        points.append((tuple(S), x))
    return points


@dataclass
class LandscapeCounts:
    """Census of a small problem's stationary-point classes.

    ``basic`` counts one candidate per admissible support; the remaining
    fields count geometrically distinct points (coordinates rounded to
    8 decimals before comparison).
    """

    basic: int
    l_stationary: int
    block: dict  # k -> count of block-k optimal points

    def row(self, k_range=None):
        ks = sorted(self.block) if k_range is None else list(k_range)
        return [self.basic, self.l_stationary] + [self.block.get(k, 0) for k in ks]


def landscape_table(prob, k_max=None, tol_grad=1e-8, tol_block=1e-9):
    """Count basic / L-stationary / block-k optimal points by enumeration.

    Exploits the containment chain (block-(k+1) optimal implies block-k
    optimal) to stop probing larger blocks once a point fails at some k;
    the hierarchy itself is exercised independently by the test suite.
    """
    n = prob.n
    if k_max is None:
        k_max = n
    entries = enumerate_basic_points(prob)
    seen = set()
    reps = []
    for _, x in entries:
        key = tuple(np.round(x, 8))
        if key not in seen:
            seen.add(key)
            reps.append(x)

    L = prob.objective.lipschitz_global()
    k_min = 2 if isinstance(prob.term, Cardinality) else 1
    if k_max > n:
        raise InvalidParameterError(f"block size {k_max} outside [1, {n}]")
    l_count = 0
    block_counts = {k: 0 for k in range(k_min, k_max + 1)}
    for x in reps:
        # one gradient and one F per point, shared by every check on it
        g = prob.objective.gradient(x)
        if _l_stationary_at(prob, x, g, L, tol_grad):
            l_count += 1
        f_x = composite_value(prob, x)
        for k in range(k_min, k_max + 1):
            if f_x is not INFEASIBLE and _no_improving_block(
                    prob, x, g, f_x, _all_blocks(n, k), tol_block):
                block_counts[k] += 1
            else:
                break
    return LandscapeCounts(basic=len(entries), l_stationary=l_count,
                           block=block_counts)


def table1_problem(mode):
    """The six-variable rank-one-plus-identity demo problem.

    Q = cc^T + I with c = (1, ..., 6), p = (1, ..., 1); "cons" pairs it
    with a 4-sparsity constraint, "regu" with a 0.01 count penalty.
    """
    c = np.arange(1.0, 7.0)
    Q = np.outer(c, c) + np.eye(6)
    p = np.ones(6)
    obj = QuadraticObjective(Q=Q, p=p)
    return CompositeProblem(obj, make_term(mode, 4 if mode == "cons" else 0.01))
