"""Stationarity checkers and exhaustive landscape census for small problems.

Three nested notions are covered, from weakest to strongest:

* basic point: the gradient vanishes on the support (and the point is
  feasible in the constrained case);
* L-stationary point: fixed point of the proximal-gradient map at step 1/L;
* block-k optimal point: no working set of size k admits any improving
  update, verified against the exact subproblem solver.

Block-k certificates are batched over points, blocks and patterns.  At
theta = 0 the system of pattern T in block B is Q[T, T] whatever the point,
so ``_certify`` runs ``pattern_deltas``, the engine of ``solve_block``, on a
stack of blocks and points: each (block, pattern) system is factored once
and every point's right-hand side is solved against it.  The objective
change of every (point, block, pattern) comes out as one array, pruned by
the cardinality budget of each (point, block); a point fails at its first
block, in visiting order, whose change is below -slack.  The batches hold a
bounded number of systems (``CERT_CHUNK``).  A block the batch cannot decide
as surely as a block-by-block ``solve_block`` loop would -- a change within
rounding and ``TIE_TOL`` of -slack, or a system the engine flags because it
does not factor (which ``solve_block`` ridges), factors with a tiny pivot or
has a residual near the solver's bound -- is handed to ``solve_block``, so
the verdicts and the errors are that loop's.

For problems small enough to enumerate, ``landscape_table`` counts the
points in each class, deciding L-stationarity for every point in one
stacked check and certifying block size k for all the points that passed
k - 1 at once.  Support classification treats entries below
``ZERO_TOL`` as zeros so that solver round-off cannot flip a verdict.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import BlockdecError, BudgetExceededError, InvalidParameterError
from .problem import (INFEASIBLE, Cardinality, CompositeProblem, QuadraticObjective,
                      composite_value, make_term, require_l0_term)
from .subproblem import (PATTERN_CHUNK, TIE_TOL, _cho_solve, _cholesky, _pattern_chunks,
                         _tiny_pivots, pattern_deltas, solve_block)
from .working_set import random_set

ZERO_TOL = 1e-12
ENUM_BUDGET = 10 ** 6
BLOCK_BUDGET = 10 ** 8

# systems solved per batch of the block-k certificate (fewer for blocks
# wider than the number of points), so that its working arrays are
# O(CERT_CHUNK * k) whatever the number of points, blocks and patterns;
# basic points are enumerated CERT_CHUNK // r supports of size r at a time
CERT_CHUNK = 1 << 15

# A batched objective change may differ from solve_block's by rounding,
# bounded by ROUND_REL times the magnitude of its terms.  A system that
# pattern_deltas marks WEAK (see RESIDUAL_MARGIN and PIVOT_FLOOR there) or
# failing leaves the block to solve_block.
ROUND_REL = 2.0 ** -40

# outcome of one (point, block) in a batch
PASS, GAIN, UNSURE = 0, 1, 2


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
    verdict, = _l_stationary_at(prob, x[None], prob.objective.gradient(x)[None], L, tol)
    return bool(verdict)


def _l_stationary_at(prob, X, G, L, tol):
    """is_l_stationary at every row of X (R, n), given G[i] = grad f(X[i])."""
    if not L > 0:
        raise InvalidParameterError(f"L must be positive, got {L}")
    term = prob.term
    on = np.abs(X) > ZERO_TOL
    nnz = np.count_nonzero(on, axis=1)

    if isinstance(term, Cardinality):
        # g_i = 0 on the support, and |x_i - g_i/L| is no larger off it than
        # its least on it (than tol while the support has room)
        U = np.abs(X - G / L)
        off_max = np.where(on, 0.0, U).max(axis=1)
        least = np.where(nnz < term.s, 0.0, np.where(on, U, np.inf).min(axis=1))
        return ((nnz <= term.s) & (np.where(on, np.abs(G), 0.0).max(axis=1) / L <= tol)
                & (off_max <= least + tol))

    # count penalty: on the support g_i = 0 and x_i^2 >= thresh; off it (g_i/L)^2 <= thresh
    thresh = 2.0 * term.lam / L
    G_L = G / L
    return ~(np.any(on & ((np.abs(G) > tol) | (X * X < thresh - tol)), axis=1)
             | np.any(~on & (G_L * G_L > thresh + tol), axis=1))


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
    g = prob.objective.gradient(x)
    verdict, = _certify(prob, x[None], g[None], np.array([f_x]), k, blocks, tol)
    if isinstance(verdict, Exception):
        raise verdict
    return verdict


def _all_blocks(n, k):
    """Every size-k working set, after the exhaustive-mode budget check."""
    cost = math.comb(n, k) * (2 ** k)
    if cost > BLOCK_BUDGET:
        raise BudgetExceededError(
            f"landscape too large: C({n},{k}) * 2^{k} = {cost} patterns "
            f"exceeds the {BLOCK_BUDGET} budget; use sampled mode")
    return itertools.combinations(range(n), k)


def _certify(prob, X, G, F, k, blocks, tol):
    """Block-k verdicts of the points X[i], given G[i] = grad f(X[i]) and F[i] = F(X[i]).

    ``blocks`` yields the size-k working sets to check, in visiting order.
    Entry i of the result is True when no block improves X[i] by more than
    tol * (1 + |F[i]|), False when one does, or the exception solve_block
    raises at X[i]'s first block that is not passed, as a loop calling it
    block by block would.
    """
    slack = tol * (1.0 + np.abs(F))
    verdicts = [True] * len(X)
    active = np.arange(len(X))
    per_block = min(1 << k, PATTERN_CHUNK)  # patterns of one block in one batch
    # the first batch holds at most 64 blocks and each next one twice as
    # many, so a point that fails at an early block costs about what the
    # block-by-block loop did
    grow = 64
    while active.size:
        want = max(1, min(grow, CERT_CHUNK // (per_block * max(active.size, k))))
        grow *= 2
        chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(blocks, want)),
                            dtype=np.intp).reshape(-1, k)
        if not chunk.size:
            break
        step = max(1, CERT_CHUNK // (per_block * len(chunk)))  # points per batch
        for lo in range(0, active.size, step):
            rows = active[lo:lo + step]
            outcomes = _block_outcomes(prob, X[rows], G[rows], slack[rows], chunk)
            # a point fails at a GAIN before any UNSURE block without a call
            first = outcomes[np.arange(len(rows)), (outcomes != PASS).argmax(axis=1)]
            for i in rows[first == GAIN]:
                verdicts[i] = False
            for i, outcome in zip(rows[first == UNSURE], outcomes[first == UNSURE]):
                verdicts[i] = _first_decision(prob, X[i], G[i], slack[i], chunk, outcome)
        active = active[[verdicts[i] is True for i in active]]
    return verdicts


def _first_decision(prob, x, g, slack, blocks, outcome):
    """x's verdict over ``blocks``, given their batched outcomes at x.

    False at the first GAIN block; an UNSURE block is decided by solve_block,
    whose error is returned.  True when every block passes.
    """
    for j in np.flatnonzero(outcome != PASS):
        if outcome[j] == GAIN:
            return False
        try:
            delta = solve_block(prob, x, g, blocks[j], theta=0.0).composite_delta
        except BlockdecError as exc:
            return exc
        if delta < -slack:
            return False
    return True


def _block_outcomes(prob, X, G, slack, blocks):
    """PASS, GAIN or UNSURE for every point of X (R, n) and block of blocks (N, k).

    GAIN: a block-by-block solve_block loop would find the block improving;
    PASS: it would not; UNSURE: leave the block to solve_block, as when
    ``pattern_deltas`` does not mark every system of the block OK.
    """
    k = blocks.shape[1]
    Q_B = prob.objective.gram_blocks(blocks)              # (N, k, k)
    x_B = X[:, blocks].swapaxes(0, 1).copy()              # (N, R, k), C order
    g_B = G[:, blocks].swapaxes(0, 1).copy()
    ones = np.ones(k)  # sums over the short coordinate axis run as products
    nnz_B = (x_B != 0) @ ones                             # (N, R)
    if isinstance(prob.term, Cardinality):
        lam = 0.0
        budget = prob.term.s - np.count_nonzero(X, axis=1) + nnz_B
    else:
        lam = prob.term.lam
        budget = np.full(nnz_B.shape, k)
    # |D g_B| + |D'Q_BB D|/2 <= |D| |g_B| + |D|^2 |Q_BB|_F / 2 bounds the terms
    g_norm = np.sqrt(np.square(g_B) @ ones)[:, None]      # (N, 1, R)
    q_norm = np.sqrt(np.einsum("nij,nij->n", Q_B, Q_B))[:, None, None]

    unsure = np.zeros(budget.shape, dtype=bool)
    gain = np.zeros(budget.shape, dtype=bool)
    clear = np.ones(budget.shape, dtype=bool)
    for masks, groups in _pattern_chunks(k, int(budget.max())):
        Z, delta, status = pattern_deltas(Q_B, x_B, g_B, 0.0, lam, masks, groups, certify=True)
        unsure |= status.any(axis=1)
        size = (masks[:, None] >> np.arange(k) & 1).sum(axis=1)
        d2 = np.square(Z - x_B[:, None]) @ ones           # (N, P, R)
        scale = np.sqrt(d2) * g_norm + 0.5 * d2 * q_norm
        if lam:
            scale = scale + lam * np.abs((Z != 0) @ ones - nnz_B[:, None])
        err = ROUND_REL * scale
        # solve_block's tie rules keep its change at most TIE_TOL above the
        # least; a NaN change fails both tests and leaves the block unsure
        ok = size[:, None] <= budget[:, None]             # (N, P, R)
        gain |= (ok & (delta + (err + TIE_TOL) < -slack)).any(axis=1)
        clear &= (~ok | (delta - err >= -slack)).all(axis=1)
    outcome = np.where(unsure | ~(gain | clear), UNSURE, np.where(gain, GAIN, PASS))
    return outcome.T


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
    sizes = range(term.s + 1) if isinstance(term, Cardinality) else range(n + 1)
    total = sum(math.comb(n, r) for r in sizes)
    if total > ENUM_BUDGET:
        raise BudgetExceededError(
            f"landscape too large: {total} supports exceeds the {ENUM_BUDGET} budget")

    p = prob.objective.linear_term()
    points = []
    for r in sizes:
        supports = itertools.combinations(range(n), r)
        per_batch = max(1, CERT_CHUNK // max(r, 1))
        while batch := list(itertools.islice(supports, per_batch)):
            S = np.array(batch, dtype=int).reshape(len(batch), r)
            X = np.zeros((len(S), n))
            if r:
                X[np.arange(len(S))[:, None], S] = _restricted_minimizers(
                    prob.objective.gram_blocks(S), -p[S])
            points.extend(zip(batch, X))
    return points


def _restricted_minimizers(M, rhs):
    """Solve the stacked systems M[i] z[i] = rhs[i] of one support size.

    One batched Cholesky factorization serves the whole stack.  A system
    that does not factor or has a tiny pivot is solved on its own, as the
    per-support loop solved it: by Cholesky, or by minimum-norm least
    squares where it is singular.
    """
    L, failed = _cholesky(M)
    Z = _cho_solve(L, rhs[..., None])[..., 0]
    for i in np.flatnonzero(failed | _tiny_pivots(L, M)):
        try:
            Z[i] = cho_solve(cho_factor(M[i]), rhs[i])
        except np.linalg.LinAlgError:
            Z[i] = np.linalg.lstsq(M[i], rhs[i], rcond=None)[0]
    return Z


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
    # one gradient and one F per point, shared by every check on it
    X = np.array(reps)
    G = np.array([prob.objective.gradient(x) for x in X])
    l_count = int(np.count_nonzero(_l_stationary_at(prob, X, G, L, tol_grad)))
    F = [composite_value(prob, x) for x in X]

    block_counts = {k: 0 for k in range(k_min, k_max + 1)}
    alive = [i for i, f in enumerate(F) if f is not INFEASIBLE]
    failures = {}  # point -> the error a point-by-point loop meets there
    for k in block_counts:
        if not alive:
            break
        try:
            blocks = _all_blocks(n, k)
        except BudgetExceededError as exc:
            failures[alive[0]] = exc
            break
        verdicts = _certify(prob, X[alive], G[alive], np.array([F[i] for i in alive]),
                            k, blocks, tol_block)
        failures.update((i, v) for i, v in zip(alive, verdicts) if isinstance(v, Exception))
        alive = [i for i, v in zip(alive, verdicts) if v is True]
        block_counts[k] = len(alive)
    if failures:
        # the loop over points in order stops at the first one that fails
        raise failures[min(failures)]
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
