"""Reference solvers: proximal gradient, its accelerated variant, orthogonal
matching pursuit, and an l1 sweep with debiasing.

All gradient-type methods use the fixed step 1/L, L = ||A||_2^2 exactly (from the
smaller of A'A and AA'), and run in the decomposition solver's loop,
``dec.iterate``, which checks their start as it checks ``dec``'s and applies
the same windowed stopping rule, so traces are directly comparable.  ``pgm``
and ``apgm`` take the gradient at a sparse point from the Gram columns of its
support, p + Q[:, S] x_S, held in a store that lives for one solve and forms
each column once (``GramColumns``); on a cardinality cap with n >> s that
replaces a product with all of A per iteration by one per coordinate the run
visits.
"""

import numpy as np

from .dec import DecConfig, iterate
from .errors import InvalidParameterError
from .problem import CompositeProblem, L1Penalty, composite_value
from .prox import hard_threshold_topk, proximal_step


def _proximal_gradient(prob, x0, max_iters, epsilon, window, accelerated):
    # L before the start check: where A'A overflows, this fails before F(x0) does
    L = prob.objective.lipschitz_global()
    if not L > 0:
        raise InvalidParameterError("zero quadratic: no meaningful step size 1/L")
    return iterate(prob, x0,
                   lambda x, r, f: _proximal_gradient_steps(prob, x, r, 1.0 / L, accelerated),
                   max_iters, epsilon, window)


def _proximal_gradient_steps(prob, x, r, beta, accelerated):
    """Proximal-gradient steps of size beta from x with residual r, for ``iterate``.

    Gradients come from the solve's own ``GramColumns`` store: at a sparse
    point from the Gram columns of its support, anywhere else from A'r.  Each
    x's residual is formed once, for F and (in ``pgm``) the next gradient;
    ``apgm``'s extrapolated y carries none, so the store forms y's residual
    only where it cannot serve y.
    """
    obj = prob.objective
    columns = obj.gram_columns()
    y, r_y = x, r
    tau = 1.0
    while True:
        x_new = proximal_step(prob, y, beta, g=columns.gradient(y, r=r_y))
        r_new = obj.residual(x_new)
        if accelerated:
            tau_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
            y = x_new + ((tau - 1.0) / tau_new) * (x_new - x)
            r_y = None
            tau = tau_new
        else:
            y, r_y = x_new, r_new
        x = x_new
        yield x, composite_value(prob, x, r=r_new), ()


def pgm(prob, x0, max_iters=DecConfig.max_iters, epsilon=DecConfig.epsilon,
        window=DecConfig.window):
    """Proximal-gradient method with fixed step 1/L; returns (x, trace).

    On a cardinality term this is iterative hard thresholding.
    """
    return _proximal_gradient(prob, x0, max_iters, epsilon, window, accelerated=False)


def apgm(prob, x0, max_iters=DecConfig.max_iters, epsilon=DecConfig.epsilon,
         window=DecConfig.window):
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


def cvx_l1_sweep(objective, s, max_iters=DecConfig.max_iters, epsilon=DecConfig.epsilon,
                 window=DecConfig.window):
    """Convex surrogate: l1 sweep, truncate to s terms, debias by refitting.

    For each ``DEFAULT_L1_GRID`` weight, solves the l1-penalized least squares on
    ``objective`` by proximal gradient from zero, keeps the s
    largest-magnitude coordinates, refits those by least squares, and returns
    the refit with the smallest residual objective 1/2||Ax - b||^2 (ties to the
    earliest grid entry).  Every relaxation shares the objective's one L.
    """
    A, b, n = objective.A, objective.b, objective.n
    if int(s) != s or not 0 <= s <= n:
        raise InvalidParameterError(f"sparsity level {s} outside [0, {n}]")
    best_x, best_f = np.zeros(n), 0.5 * float(b @ b)
    for lam in DEFAULT_L1_GRID:
        relax = CompositeProblem(objective, L1Penalty(lam))
        xr, _ = pgm(relax, np.zeros(n), max_iters=max_iters,
                    epsilon=epsilon, window=window)
        xs = hard_threshold_topk(xr, int(s))
        supp = np.flatnonzero(xs)
        x = np.zeros(n)
        if supp.size:
            x[supp] = np.linalg.lstsq(A[:, supp], b, rcond=None)[0]
        r = A @ x - b
        f = 0.5 * float(r @ r)
        if f < best_f - 1e-12:
            best_x, best_f = x, f
    return best_x

