"""Exact block subproblem solves by support-pattern enumeration.

Given a working set B of size k, the block update minimizes

    F(z) + (theta/2) ||z - x||^2   subject to   z agreeing with x outside B

over all 2^k on/off patterns for the coordinates in B (pruned to the
remaining budget under a cardinality cap).  The minimum over patterns is the
global optimum of the (NP-hard) block problem.

``pattern_deltas`` is the one engine for it.  It takes masks in ascending
order, ``PATTERN_CHUNK`` at a time, so memory does not grow with 2^k, and
solves them for a stack of blocks and points at once.  Each pattern's
system is padded with the identity to the width of its stack, so that
patterns of different sizes share one batched Cholesky factorization and
one solve by forward and back substitution.  A chunk of a block up to
k = 8 is one stack; wider chunks are cut near their popcount groups
(``STACK_ENTRIES``), where padding would multiply the work.  ``solve_block``
is its one-block, one-point case, and runs the tie rules in mask order, so
its result and its errors are those of a mask-by-mask loop.  The block-k
certificate in ``stationarity`` shares the engine, and the basic-point
enumeration its Cholesky kernel.
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

# padded system entries (systems times width squared) one stack may hold:
# consecutive popcounts share a stack up to this size.  Of 2^10 .. 2^16 and
# one stack per chunk, 2^14 gave the lowest or near-lowest solve_block time
# at every k = 6..12 (256x2048, one BLAS thread): one stack for every whole
# block up to k = 8, about one per popcount at k = 12
STACK_ENTRIES = 1 << 14

# the certificate hands on a system with a residual above RESIDUAL_MARGIN times
# the bound, or with coordinate j nearly a combination of the ones before it
RESIDUAL_MARGIN = 2.0 ** -10
PIVOT_FLOOR = 2.0 ** -26

# status of one system in pattern_deltas
OK, NUMERICAL, DEGENERATE, WEAK = 0, 1, 2, 3


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
    """Admissible masks in [lo, lo + PATTERN_CHUNK), ascending, and their padded stacks.

    Returns ``(masks, stacks)``.  Each stack is ``(rows, T)``: ``rows`` are
    its positions in ``masks``, and ``T[i]`` (w wide) holds the set bits of
    ``masks[rows[i]]`` in ascending order, then the pad indices k + a for the
    positions a past them.  A stack takes the masks of consecutive popcounts
    and is padded to the largest, w; the next popcount opens a new stack
    once the stack's systems would hold more than STACK_ENTRIES entries.  So
    a small chunk (every whole block up to k = 8) is one stack, and a large
    one is cut near its popcount groups, where padding would multiply the
    work.  The empty pattern is in no stack.
    """
    masks = np.arange(lo, min(lo + PATTERN_CHUNK, 1 << k), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(k)) & 1 == 1
    size = bits.sum(axis=1)
    keep = size <= budget
    masks, bits, size = masks[keep], bits[keep], size[keep]
    # sorting puts each row's set bits first, in ascending order
    order = np.sort(np.where(bits, np.arange(k), k), axis=1)
    count = np.bincount(size, minlength=k + 1)
    stacks, first = [], 1
    for w in range(1, size.max() + 1):
        if w < size.max() and count[first:w + 2].sum() * (w + 1) ** 2 <= STACK_ENTRIES:
            continue  # popcount w + 1 joins this stack
        rows = np.flatnonzero((size >= first) & (size <= w))
        if rows.size:
            pad = np.arange(w) >= size[rows, None]
            stacks.append((rows, np.where(pad, k + np.arange(w), order[rows, :w])))
        first = w + 1
    return masks, stacks


@lru_cache(maxsize=None)  # at most 90 keys: 2^k <= PATTERN_CHUNK and budget <= k
def _whole_block_tables(k, budget):
    """_pattern_tables of a block that fits in one chunk, read-only."""
    masks, stacks = _pattern_tables(k, budget, 0)
    for a in (masks, *(a for stack in stacks for a in stack)):
        a.flags.writeable = False
    return masks, stacks


def _pattern_chunks(k, budget):
    """_pattern_tables of every chunk that holds an admissible mask, in mask order."""
    for lo in range(0, 1 << k, PATTERN_CHUNK):
        if lo.bit_count() > budget:
            continue  # every mask in the chunk has at least lo's set bits
        if 1 << k <= PATTERN_CHUNK:
            yield _whole_block_tables(k, min(budget, k))
        else:
            yield _pattern_tables(k, budget, lo)


def _col_norms(v):
    """Euclidean norms of v (..., r, R) over its r axis."""
    return np.sqrt(np.einsum("...ir,...ir->...r", v, v))


def _cho_solve(L, B):
    """Solve L L' Z = B for stacked lower-triangular L (..., r, r) and B (..., r, R).

    Forward, then back substitution, one row of the whole stack per step.
    """
    r = L.shape[-1]
    Z = np.array(B, dtype=float)
    for j in range(r):
        if j:
            Z[..., j, :] -= (L[..., j, None, :j] @ Z[..., :j, :])[..., 0, :]
        Z[..., j, :] /= L[..., j, j, None]
    for j in range(r - 1, -1, -1):
        if j < r - 1:
            Z[..., j, :] -= (L[..., None, j + 1:, j] @ Z[..., j + 1:, :])[..., 0, :]
        Z[..., j, :] /= L[..., j, j, None]
    return Z


def _cholesky(M):
    """Cholesky factors of the stacked systems M (N, ..., r, r), and which entries fail.

    One failing system fails np.linalg.cholesky for the whole stack, so a
    failing stack is halved along its first axis until each failing entry
    stands alone.  Returns ``(L, failed)``: ``failed[i]`` is True when some
    system of M[i] does not factor, and then L[i] holds identity factors.
    """
    try:
        return np.linalg.cholesky(M), np.zeros(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.broadcast_to(np.eye(M.shape[-1]), M.shape).copy(), np.ones(1, dtype=bool)
    half = len(M) // 2
    (L1, failed1), (L2, failed2) = _cholesky(M[:half]), _cholesky(M[half:])
    return np.concatenate((L1, L2)), np.concatenate((failed1, failed2))


def pattern_deltas(Q_B, x_B, g_B, theta, lam, masks, stacks, certify=False):
    """Solve every pattern of one chunk for N blocks and R points at once.

    Q_B (N, k, k) holds Q on each block; x_B and g_B (N, R, k) each point and
    its gradient there; (masks, stacks) is one chunk of ``_pattern_chunks``.
    Pattern T solves (Q_B + theta I)[T, T] z_T = theta x_T + (Q_B x_B - g_B)_T.
    In a stack padded to width w each system is w x w: it fills the leading
    |T| x |T| block, and the rest is the identity with a zero right-hand
    side, which solves to 0.  Each stack is one Cholesky factorization, one
    solve by substitution and one residual check for all its systems.
    Returns ``(Z, delta, status)``, indexed (N, P, R, ...): z_B, the change
    in F plus (theta/2) ||z_B - x_B||^2 (lam: the count penalty, 0 under a
    cap), and OK or why a solution is not trusted.  At theta = 0 a system
    that does not factor is ridged by 1e-12 trace / |T|, with the trace taken
    over T and the ridge added on T only; if it still fails, or at
    theta > 0, it is DEGENERATE.  An unridged system missing the residual
    bound 1e-10 (1 + |rhs|) is refined once, and is NUMERICAL if it still
    misses.  With ``certify``, a system is WEAK if it did not factor
    unridged, has ``_tiny_pivots`` or first missed RESIDUAL_MARGIN * bound.
    """
    N, R, k = x_B.shape
    K = k + max((T.shape[1] for _, T in stacks), default=0)  # block and pad indices
    x_T = x_B.swapaxes(1, 2)                              # (N, k, R)
    Q_pad = np.empty((N, K, K))
    Q_pad[:] = np.eye(K)
    Q_pad[:, :k, :k] = Q_B + theta * np.eye(k)
    Q_pad = Q_pad.reshape(N, K * K)
    rhs_pad = np.zeros((N, K, R))
    rhs_pad[:, :k] = theta * x_T + (Q_B @ x_T - g_B.swapaxes(1, 2))
    Z = np.zeros((N, masks.size, R, k + 1))              # column k takes the padding
    status = np.zeros((N, masks.size, R), dtype=np.int8)
    for rows, T in stacks:
        C, w = T.shape
        M = Q_pad.take(T[:, :, None] * K + T[:, None, :], axis=1).reshape(N * C, w, w)
        rhs = rhs_pad.take(T, axis=1).reshape(N * C, w, R)
        L, failed = _cholesky(M)
        degenerate = failed
        if theta == 0.0 and failed.any():
            on = T[np.flatnonzero(failed) % C] < k        # each failed system's T
            ridged = M[failed]
            diag = ridged[:, np.arange(w), np.arange(w)]
            ridge = 1e-12 * np.where(on, diag, 0.0).sum(axis=1) / on.sum(axis=1)
            # a zero trace gives a zero ridge, and the system fails again
            ridged[:, np.arange(w), np.arange(w)] = diag + ridge[:, None] * on
            degenerate = failed.copy()
            L[failed], degenerate[failed] = _cholesky(ridged)
        z = _cho_solve(L, rhs)
        res = rhs - M @ z
        bound = 1e-10 * (1.0 + _col_norms(rhs))           # (N C, R)
        first = _col_norms(res)
        bad = first > bound
        if trouble := bad.any():
            # one pass of iterative refinement for the systems factored unridged
            fix = np.flatnonzero(bad.any(axis=1) & ~failed)
            z[fix] += np.where(bad[fix, None], _cho_solve(L[fix], res[fix]), 0.0)
            again = np.flatnonzero(bad.any(axis=1))
            bad[again] &= _col_norms(rhs[again] - M[again] @ z[again]) > bound[again]
        Z.swapaxes(2, 3)[:, rows[:, None], np.minimum(T, k)] = z.reshape(N, C, w, R)
        if certify:
            # bad and degenerate systems are among these; NaN residuals too
            code = WEAK * ((failed | _tiny_pivots(L, M))[:, None]
                           | ~(first <= RESIDUAL_MARGIN * bound))
        elif trouble or degenerate.any():
            code = np.where(degenerate[:, None], DEGENERATE, NUMERICAL * bad)
        else:
            continue
        status[:, rows] = code.reshape(N, C, R)
    Z = Z[..., :k]

    # BLAS products, so that one point's digits are the ones solve_block always had
    D = Z - x_B[:, None]
    DQ = (D.reshape(N, -1, k) @ Q_B).reshape(D.shape)
    Dg = (D.swapaxes(1, 2) @ g_B[..., None]).swapaxes(1, 2)[..., 0]
    delta = Dg + 0.5 * np.einsum("...i,...i->...", DQ, D)
    if lam:
        ones = np.ones(k)  # nonzeros per row, counted by one product
        delta = delta + lam * ((Z != 0) @ ones - ((x_B != 0) @ ones)[:, None])
    if theta:
        delta = delta + 0.5 * theta * np.einsum("...i,...i->...", D, D)
    return Z, delta, status


def _tiny_pivots(L, M):
    """Which stacked systems M (..., r, r) have a pivot L_jj^2 <= PIVOT_FLOOR * M_jj."""
    pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    return (pivots <= PIVOT_FLOOR * np.diagonal(M, axis1=-2, axis2=-1)).any(axis=-1)


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
    if not 0 <= theta < np.inf:
        raise InvalidParameterError(f"theta must be nonnegative and finite, got {theta}")

    x_B = x[idx]
    nnz_x_B = int(np.count_nonzero(x_B))
    nnz_out = int(np.count_nonzero(x)) - nnz_x_B
    if isinstance(prob.term, Cardinality):
        budget, lam = prob.term.s - nnz_out, 0.0
        if budget < 0:
            raise InvalidParameterError("x is infeasible for the cardinality bound")
    else:
        budget, lam = k, prob.term.lam
    if budget == 0 and nnz_x_B == 0:
        # the one admissible pattern, z_B = 0, is x_B itself
        return BlockSolveResult(x_next=x.copy(), patterns_evaluated=1)

    # block-local data: g and Q on B; every pattern's system is a principal
    # submatrix of Q_BB + theta I
    g_B = g[idx]
    Q_BB = prob.objective.gram_submatrix(idx)

    best_delta = 0.0  # the stay-put candidate z = x is always admissible
    best_nnz = nnz_x_B
    best_mask = None
    best_zB = x_B
    evaluated = 0

    for masks, stacks in _pattern_chunks(k, budget):
        evaluated += masks.size
        Z, delta, status = pattern_deltas(Q_BB[None], x_B[None, None], g_B[None, None],
                                          theta, lam, masks, stacks)
        failed = np.flatnonzero(status)
        if failed.size:
            # the error of the lowest failing mask, as a mask-by-mask loop meets it
            if status.flat[failed[0]] == DEGENERATE:
                raise DegenerateSystemError("degenerate restricted system")
            raise NumericalError("restricted system solve exceeded residual tolerance")
        Z, delta = Z[0, :, 0], delta[0, :, 0]

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
