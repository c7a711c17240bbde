"""Exact block subproblem solves by support-pattern enumeration.

Given a working set B of size k, the block update minimizes

    F(z) + (theta/2) ||z - x||^2   subject to   z agreeing with x outside B

over all 2^k on/off patterns for the coordinates in B (pruned to the
remaining budget under a cardinality cap).  The minimum over patterns is the
global optimum of the (NP-hard) block problem.

The patterns are solved in batches.  Masks are taken in ascending order,
``PATTERN_CHUNK`` at a time, so a call's memory does not grow with 2^k, and
each chunk's masks are grouped by popcount r.  A group's C stacked (r, r)
systems are built with one fancy index and go through one batched Cholesky
factorization and one batched pair of triangular solves; the chunk's
objective changes then come out as one vector.  The tie rules run over that
vector in mask order, so the result is the one a mask-by-mask loop would
pick.  At theta = 0 a group whose factorization fails (a singular restricted
system) is ridged as a whole.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

# masks per batch, a power of two: a call's working arrays are
# O(PATTERN_CHUNK * k^2), not O(2^k)
PATTERN_CHUNK = 4096


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


def _pattern_tables(k, budget, lo):
    """Admissible masks in [lo, lo + PATTERN_CHUNK), ascending, grouped by popcount.

    Returns ``(masks, groups)``.  Each group is ``(rows, T)``: ``rows`` are
    its positions in ``masks`` and ``T[i]`` holds the set bits of
    ``masks[rows[i]]`` in ascending order.  The empty pattern is in no
    group.
    """
    masks = np.arange(lo, min(lo + PATTERN_CHUNK, 1 << k), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(k)) & 1 == 1
    size = bits.sum(axis=1)
    keep = size <= budget
    masks, bits, size = masks[keep], bits[keep], size[keep]
    groups = []
    for r in range(1, min(k, budget) + 1):
        rows = np.flatnonzero(size == r)
        if rows.size:
            groups.append((rows, np.nonzero(bits[rows])[1].reshape(rows.size, r)))
    return masks, groups


@lru_cache(maxsize=None)  # at most 90 keys: 2^k <= PATTERN_CHUNK and budget <= k
def _whole_block_tables(k, budget):
    """_pattern_tables of a block that fits in one chunk, read-only."""
    masks, groups = _pattern_tables(k, budget, 0)
    for a in (masks, *(a for group in groups for a in group)):
        a.flags.writeable = False
    return masks, groups


def _norms(v):
    """Euclidean norm of each row."""
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _cho_solve(L, rhs):
    """Solve L L' z = rhs for stacked lower-triangular factors L."""
    y = np.linalg.solve(L, rhs[..., None])
    return np.linalg.solve(L.swapaxes(-1, -2), y)[..., 0]


def _factor(M, theta):
    """Batched Cholesky factors of one popcount group's systems M.

    At theta = 0 a group whose factorization fails is ridged, every system
    by 1e-12 * trace / r.  Returns ``(L, None)``, or ``(None, i)`` when the
    group is degenerate, with i the system charged with it: one with a zero
    trace if there is one, else the group's first.
    """
    try:
        return np.linalg.cholesky(M), None
    except np.linalg.LinAlgError:
        if theta != 0.0:
            return None, 0
    r = M.shape[-1]
    ridge = 1e-12 * np.trace(M, axis1=1, axis2=2) / r
    if np.any(ridge <= 0):
        return None, int(np.argmax(ridge <= 0))
    try:
        return np.linalg.cholesky(M + ridge[:, None, None] * np.eye(r)), None
    except np.linalg.LinAlgError:
        return None, 0


def _solve_group(M, rhs, theta):
    """Solve one popcount group's stacked systems M[i] z[i] = rhs[i].

    Returns ``(z, None)``, or ``(None, (i, error))`` with i the first
    system charged with the error.
    """
    L, failed = _factor(M, theta)
    if L is None:
        return None, (failed, DegenerateSystemError("degenerate restricted system"))
    z = _cho_solve(L, rhs)
    bound = 1e-10 * (1.0 + _norms(rhs))
    res = rhs - (M @ z[..., None])[..., 0]
    bad = np.flatnonzero(_norms(res) > bound)
    if bad.size:
        # one pass of iterative refinement for the failing systems
        z[bad] += _cho_solve(L[bad], res[bad])
        res = rhs[bad] - (M[bad] @ z[bad][..., None])[..., 0]
        still = bad[_norms(res) > bound[bad]]
        if still.size:
            return None, (still[0], NumericalError(
                "restricted system solve exceeded residual tolerance"))
    return z, None


def _solve_patterns(Q_theta, rhs_B, theta, masks, groups):
    """Solve every pattern of one chunk; row i of the result is z_B of masks[i].

    Pattern T's system is Q_theta[T, T] z_T = rhs_B[T].  A failure raises
    the error of the lowest failing mask, as a mask-by-mask loop would.
    """
    Z = np.zeros((masks.size, rhs_B.size))
    failures = []  # (row, error)
    for rows, T in groups:
        z, failure = _solve_group(Q_theta[T[:, :, None], T[:, None, :]], rhs_B[T], theta)
        if failure is None:
            Z[rows[:, None], T] = z
        else:
            failures.append((rows[failure[0]], failure[1]))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return Z


def solve_block(prob, x, g, B, theta):
    """Globally solve the block subproblem on working set B; g is grad f(x).

    B is any sequence of distinct nonnegative coordinate indices; it is
    sorted once here.  Enumerates every support pattern inside B (pruned to
    the remaining cardinality budget under a Cardinality term), solves the
    restricted quadratics in batches, and returns the best candidate.  Ties
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
    nnz_x_B = int(np.count_nonzero(x_B))
    nnz_out = int(np.count_nonzero(x)) - nnz_x_B
    if cardinality:
        budget = prob.term.s - nnz_out
        if budget < 0:
            raise InvalidParameterError("x is infeasible for the cardinality bound")
    else:
        budget = k
        lam = prob.term.lam
    if budget == 0 and nnz_x_B == 0:
        # the one admissible pattern, z_B = 0, is x_B itself
        return BlockSolveResult(x_next=x.copy(), patterns_evaluated=1)

    # block-local data: g and Q on B.  Pattern T's right-hand side
    # theta x_T - p_T - Q[T, outside B] x_outside is theta x_T + c_T
    g_B = g[idx]
    Q_BB = prob.objective.gram_submatrix(idx)
    c = Q_BB @ x_B - g_B
    # every pattern's system is a principal submatrix of Q_BB + theta I
    Q_theta = Q_BB + theta * np.eye(k)
    rhs_B = theta * x_B + c

    best_delta = 0.0  # the stay-put candidate z = x is always admissible
    best_nnz = nnz_x_B
    best_mask = None
    best_zB = x_B
    evaluated = 0

    for lo in range(0, 1 << k, PATTERN_CHUNK):
        if lo.bit_count() > budget:
            continue  # every mask in the chunk has at least lo's set bits
        if 1 << k <= PATTERN_CHUNK:
            masks, groups = _whole_block_tables(k, min(budget, k))
        else:
            masks, groups = _pattern_tables(k, budget, lo)
        evaluated += masks.size
        Z = _solve_patterns(Q_theta, rhs_B, theta, masks, groups)

        D = Z - x_B
        delta = D @ g_B + 0.5 * np.einsum("ij,ij->i", D @ Q_BB, D)
        if not cardinality:
            delta = delta + lam * (np.count_nonzero(Z, axis=1) - nnz_x_B)
        delta = delta + 0.5 * theta * np.einsum("ij,ij->i", D, D)

        # The tie rules, in mask order.  best_delta never rises and ends each
        # step at most TIE_TOL above that step's delta, so a pattern more than
        # 2 TIE_TOL above lead (the least of best_delta and the deltas up to
        # it) cannot be taken; the loop visits the rest.  lead is at most 0
        # and falls, so 1 - lead[-1] >= 1 + |lead| widens the margin past
        # rounding.
        lead = np.fmin(np.fmin.accumulate(delta), best_delta)
        for i in np.flatnonzero(delta <= lead + 2 * TIE_TOL * (1.0 - lead[-1])):
            d_i, n_i = float(delta[i]), int(np.count_nonzero(Z[i]))
            if d_i < best_delta - TIE_TOL:
                best_delta, best_nnz, best_mask, best_zB = d_i, n_i, masks[i], Z[i]
            elif d_i <= best_delta + TIE_TOL and best_mask is not None:
                if n_i < best_nnz:
                    best_delta = min(best_delta, d_i)
                    best_nnz, best_mask, best_zB = n_i, masks[i], Z[i]

    if best_mask is None:
        # no pattern beat staying put; return x unchanged
        return BlockSolveResult(x_next=x.copy(), patterns_evaluated=evaluated)

    x_next = x.copy()
    x_next[idx] = best_zB
    d = best_zB - x_B
    prox_term = 0.5 * theta * float(d @ d)
    return BlockSolveResult(x_next=x_next, patterns_evaluated=evaluated,
                            composite_delta=best_delta - prox_term)
