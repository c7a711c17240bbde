"""Exact block subproblem solves by support-pattern enumeration.

Given a working set B of size k, the block update minimizes

    F(z) + (theta/2) ||z - x||^2   subject to   z agreeing with x outside B

by enumerating all 2^k on/off patterns for the coordinates in B and solving
a small positive-definite linear system for each pattern.  The minimum over
patterns is the global optimum of the (NP-hard) block problem.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    DegenerateSystemError,
    DimensionMismatchError,
    InvalidParameterError,
    NumericalError,
)
from .problem import Cardinality, _as_vector, require_l0_term

# exhaustive enumeration cap: 2^k patterns per call
MAX_BLOCK_SIZE = 30

# objective ties closer than this are broken by sparsity, then pattern mask
TIE_TOL = 1e-12


@dataclass
class BlockSolveResult:
    """Outcome of one block solve.

    ``composite_delta`` is the exact change F(x_next) - F(x) computed in
    block-local arithmetic (non-positive by construction), which lets the
    caller maintain an exactly monotone objective sequence.
    """

    x_next: np.ndarray
    patterns_evaluated: int
    composite_delta: float = 0.0


def _solve_spd(M, rhs, allow_ridge):
    """Solve M z = rhs for symmetric positive (semi)definite M."""
    try:
        z = cho_solve(cho_factor(M, lower=True), rhs)
    except np.linalg.LinAlgError:
        if not allow_ridge:
            raise DegenerateSystemError("degenerate restricted system")
        ridge = 1e-12 * np.trace(M) / M.shape[0]
        if ridge <= 0:
            raise DegenerateSystemError("degenerate restricted system")
        try:
            z = cho_solve(cho_factor(M + ridge * np.eye(M.shape[0]), lower=True), rhs)
        except np.linalg.LinAlgError:
            raise DegenerateSystemError("degenerate restricted system") from None
    res = rhs - M @ z
    bound = 1e-10 * (1.0 + np.linalg.norm(rhs))
    if np.linalg.norm(res) > bound:
        # one pass of iterative refinement before giving up
        try:
            z = z + cho_solve(cho_factor(M, lower=True), res)
        except np.linalg.LinAlgError:
            pass
        res = rhs - M @ z
        if np.linalg.norm(res) > bound:
            raise NumericalError("restricted system solve exceeded residual tolerance")
    return z


def solve_block(prob, x, g, B, theta):
    """Globally solve the block subproblem on working set B; g is grad f(x).

    B is any sequence of distinct nonnegative coordinate indices; it is
    sorted once here.  Enumerates every support pattern inside B (pruned to
    the remaining cardinality budget under a Cardinality term), solves the
    restricted quadratic for each, and returns the best candidate.  Ties
    within ``TIE_TOL`` go to the candidate with fewer nonzeros, then to the
    lexicographically smaller pattern mask (bit j of the mask corresponds to
    B's j-th smallest index).
    """
    require_l0_term(prob.term, "block decomposition")
    given = np.asarray(B, dtype=int)
    idx = np.unique(given)
    k = idx.size
    if k == 0:
        raise InvalidParameterError("working set must be nonempty")
    if idx[0] < 0:
        raise InvalidParameterError("working set indices must be nonnegative")
    if k < given.size:
        raise InvalidParameterError(
            f"working set indices must be distinct: {given.tolist()}")
    if k > MAX_BLOCK_SIZE:
        raise InvalidParameterError(
            f"block too large for exhaustive enumeration (k = {k} > {MAX_BLOCK_SIZE})")
    x, g = _as_vector(x, prob.n), _as_vector(g, prob.n, "g")
    if idx[-1] >= prob.n:
        raise DimensionMismatchError(
            f"working set {idx.tolist()} out of range for n = {prob.n}")
    if theta < 0:
        raise InvalidParameterError(f"theta must be nonnegative, got {theta}")

    cardinality = isinstance(prob.term, Cardinality)
    x_B = x[idx]
    nnz_out = int(np.count_nonzero(x)) - int(np.count_nonzero(x_B))
    if cardinality:
        budget = prob.term.s - nnz_out
        if budget < 0:
            raise InvalidParameterError("x is infeasible for the cardinality bound")
    else:
        budget = k
        lam = prob.term.lam

    # block-local data: g and Q on B.  Pattern T's right-hand side
    # theta x_T - p_T - Q[T, outside B] x_outside is theta x_T + c_T
    g_B = g[idx]
    Q_BB = prob.objective.gram_submatrix(idx)
    c = Q_BB @ x_B - g_B

    nnz_x_B = int(np.count_nonzero(x_B))
    best_delta = 0.0  # the stay-put candidate z = x is always admissible
    best_nnz = nnz_x_B
    best_mask = None
    best_zB = x_B
    evaluated = 0

    for mask in range(1 << k):
        r = mask.bit_count()
        if r > budget:
            continue
        evaluated += 1
        if r == 0:
            z_B = np.zeros(k)
        else:
            T = [j for j in range(k) if (mask >> j) & 1]
            M = Q_BB[np.ix_(T, T)] + theta * np.eye(r)
            rhs = theta * x_B[T] + c[T]
            z_B = np.zeros(k)
            z_B[T] = _solve_spd(M, rhs, allow_ridge=(theta == 0.0))
        d = z_B - x_B
        fdiff = float(g_B @ d + 0.5 * d @ (Q_BB @ d))
        znnz = int(np.count_nonzero(z_B))
        hdiff = 0.0 if cardinality else lam * (znnz - nnz_x_B)
        delta = fdiff + hdiff + 0.5 * theta * float(d @ d)
        if delta < best_delta - TIE_TOL:
            best_delta, best_nnz, best_mask, best_zB = delta, znnz, mask, z_B
        elif delta <= best_delta + TIE_TOL and best_mask is not None:
            if znnz < best_nnz:
                best_delta = min(best_delta, delta)
                best_nnz, best_mask, best_zB = znnz, mask, z_B

    if best_mask is None:
        # no pattern beat staying put; return x unchanged
        return BlockSolveResult(x_next=x.copy(), patterns_evaluated=evaluated)

    x_next = x.copy()
    x_next[idx] = best_zB
    d = best_zB - x_B
    prox_term = 0.5 * theta * float(d @ d)
    return BlockSolveResult(x_next=x_next, patterns_evaluated=evaluated,
                            composite_delta=best_delta - prox_term)
