"""Reference solvers: proximal gradient, its accelerated variant, orthogonal
matching pursuit, and an l1 sweep with debiasing.

All gradient-type methods use the fixed step 1/L, L = ||A||_2^2 exactly (from the
smaller of A'A and AA'), and the same windowed stopping rule as the decomposition
solver, so traces are directly comparable.
"""

import time

import numpy as np

from .dec import IterationRecord, SolveTrace, relative_drop, stopping_rule
from .errors import InvalidParameterError
from .problem import (INFEASIBLE, CompositeProblem, L1Penalty, QuadraticObjective,
                      composite_value)
from .prox import hard_threshold_topk, proximal_step


def _proximal_gradient(prob, x0, max_iters, epsilon, window, accelerated):
    L = prob.objective.lipschitz_global()
    if not L > 0:
        raise InvalidParameterError("zero quadratic: no meaningful step size 1/L")
    beta = 1.0 / L
    x = np.array(x0, dtype=float)
    f = composite_value(prob, x)
    if f is INFEASIBLE:
        raise InvalidParameterError("infeasible start for the constrained problem")
    y = x
    tau = 1.0
    trace = SolveTrace()
    drops = []
    for t in range(max_iters):
        tic = time.perf_counter()
        x_new = proximal_step(prob, y, beta)
        if accelerated:
            tau_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
            y = x_new + ((tau - 1.0) / tau_new) * (x_new - x)
            tau = tau_new
        else:
            y = x_new
        f_new = composite_value(prob, x_new)
        step = float(np.linalg.norm(x_new - x))
        trace.records.append(IterationRecord(
            iteration=t, objective=f, step_norm=step, working_set=(),
            elapsed=time.perf_counter() - tic))
        drops.append(relative_drop(f, f_new))
        x, f = x_new, f_new
        if stopping_rule(drops, window, epsilon):
            trace.status = "converged"
            break
    else:
        trace.status = "max_iters"
    trace.final_objective = f
    return x, trace


def pgm(prob, x0, max_iters=1000, epsilon=1e-5, window=50):
    """Proximal-gradient method with fixed step 1/L; returns (x, trace).

    On a cardinality term this is iterative hard thresholding.
    """
    return _proximal_gradient(prob, x0, max_iters, epsilon, window, accelerated=False)


def apgm(prob, x0, max_iters=1000, epsilon=1e-5, window=50):
    """Accelerated proximal gradient (Nesterov extrapolation, no restarts).

    The objective sequence need not be monotone; the stopping rule uses the
    signed relative drops as-is.
    """
    return _proximal_gradient(prob, x0, max_iters, epsilon, window, accelerated=True)


def omp(A, b, s):
    """Orthogonal matching pursuit: greedy column selection with refitting.

    Each round adds the column most correlated with the residual (ties go to
    the lowest index) and refits by least squares on the support.  Stops
    early if the residual is numerically zero.  Returns the n-vector.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise InvalidParameterError(
            f"incompatible shapes A {A.shape}, b {b.shape}")
    m, n = A.shape
    if int(s) != s or not 0 <= s <= n:
        raise InvalidParameterError(f"sparsity level {s} outside [0, {n}]")
    col_norms = np.linalg.norm(A, axis=0)
    if np.any(col_norms == 0.0):
        raise InvalidParameterError("matrix has a zero column")

    support = []
    x = np.zeros(n)
    r = b.copy()
    for _ in range(int(s)):
        if np.linalg.norm(r) <= 1e-14 * max(1.0, np.linalg.norm(b)):
            break
        corr = np.abs(A.T @ r)
        corr[support] = -1.0  # already-selected columns are orthogonal anyway
        j = int(np.argmax(corr))  # first maximum: ties break to lowest index
        support.append(j)
        cols = A[:, support]
        coef = np.linalg.lstsq(cols, b, rcond=None)[0]
        r = b - cols @ coef
    x[support] = coef if support else 0.0
    return x


DEFAULT_L1_GRID = tuple(2.0 ** j for j in range(-10, 11, 2))


def cvx_l1_sweep(A, b, s, grid=DEFAULT_L1_GRID, max_iters=1000,
                 epsilon=1e-5, window=50):
    """Convex surrogate: l1 sweep, truncate to s terms, debias by refitting.

    For each weight in the grid, solves the l1-penalized least squares by
    proximal gradient from zero, keeps the s largest-magnitude coordinates,
    refits those by least squares, and returns the refit with the smallest
    residual objective 1/2||Ax - b||^2 (ties to the earliest grid entry).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if int(s) != s or not 0 <= s <= n:
        raise InvalidParameterError(f"sparsity level {s} outside [0, {n}]")
    obj = QuadraticObjective(A=A, b=b)
    best_x, best_f = np.zeros(n), 0.5 * float(b @ b)
    for lam in grid:
        relax = CompositeProblem(obj, L1Penalty(lam))
        xr, _ = pgm(relax, np.zeros(n), max_iters=max_iters,
                    epsilon=epsilon, window=window)
        xs = hard_threshold_topk(xr, int(s))
        supp = np.flatnonzero(xs)
        x = np.zeros(n)
        if supp.size:
            coef = np.linalg.lstsq(A[:, supp], b, rcond=None)[0]
            x[supp] = coef
        r = A @ x - b
        f = 0.5 * float(r @ r)
        if f < best_f - 1e-12:
            best_x, best_f = x, f
    return best_x

