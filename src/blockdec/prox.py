"""Closed-form thresholding operators and the generic proximal-gradient step.

Each operator returns the exact coordinate-wise minimizer of
1/2 (z - a_i)^2 + step * h(z) for its matching sparsity term h.
"""

import numpy as np

from .errors import InvalidParameterError


def smallest_k(keys, k):
    """Indices of the k smallest keys, ranked by (key, index); 1 <= k <= n.

    The same indices in the same order as the first k of a stable argsort
    (equal keys, -0.0 and 0.0 included, keep index order; NaN ranks last),
    found in O(n): a partition finds the k-th smallest key v, and only the
    keys not above v are sorted.  A NaN v leaves every key in.
    """
    v = np.partition(keys, k - 1)[k - 1]
    candidates = np.flatnonzero(~(keys > v))
    return candidates[np.argsort(keys[candidates], kind="stable")[:k]]


def hard_threshold_topk(a, s):
    """Keep the s largest-magnitude entries of a, zero out the rest.

    Ties in magnitude are broken by keeping the lower index, which makes the
    output deterministic.  This is the Euclidean projection onto the set of
    s-sparse vectors.
    """
    a = np.ascontiguousarray(a, dtype=float)
    n = a.size
    if not 0 <= s <= n:
        raise InvalidParameterError(f"sparsity level {s} outside [0, {n}]")
    if s == n:
        return a.copy()
    out = np.zeros_like(a)
    if s > 0:
        keep = smallest_k(-np.abs(a), s)
        out[keep] = a[keep]
    return out


def prox_l0_penalty(a, step, lam):
    """Proximal map of lam*||.||_0 with the given step size.

    Coordinate-wise: keep a_i when a_i^2 > 2*lam*step, otherwise zero.  The
    boundary case maps to zero (the sparser of the two tied minimizers).
    """
    if not step > 0:
        raise InvalidParameterError(f"step must be positive, got {step}")
    if not lam > 0:
        raise InvalidParameterError(f"penalty weight must be positive, got {lam}")
    a = np.asarray(a, dtype=float)
    return np.where(a * a > 2.0 * lam * step, a, 0.0)


def soft_threshold(a, t):
    """Shrink each entry toward zero by t: sign(a_i) * max(|a_i| - t, 0)."""
    if not t >= 0:
        raise InvalidParameterError(f"threshold must be nonnegative, got {t}")
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)


def half_threshold(a, t):
    """Exact minimizer of 1/2 (x - a_i)^2 + t |x|^(1/2), coordinate-wise.

    Uses the trigonometric closed form for the square-root penalty: writing
    lam = 2t (to match the unhalved quadratic convention the closed form is
    usually stated in), a coordinate survives when

        |a| > (54^(1/3) / 4) * lam^(2/3)

    and the surviving value is

        x = (2/3) a (1 + cos(2pi/3 - (2/3) phi)),
        phi = arccos((lam / 8) * (|a| / 3)^(-3/2)),

    which is the larger root of the stationarity cubic and the global
    minimizer beyond the cutoff.  Below or at the cutoff the minimizer is 0.
    """
    if not t > 0:
        raise InvalidParameterError(f"threshold must be positive, got {t}")
    a = np.asarray(a, dtype=float)
    lam = 2.0 * t
    cutoff = (54.0 ** (1.0 / 3.0) / 4.0) * lam ** (2.0 / 3.0)
    out = np.zeros_like(a)
    keep = np.abs(a) > cutoff
    if np.any(keep):
        ak = a[keep]
        phi = np.arccos((lam / 8.0) * (np.abs(ak) / 3.0) ** -1.5)
        out[keep] = (2.0 / 3.0) * ak * (1.0 + np.cos(2.0 * np.pi / 3.0 - 2.0 * phi / 3.0))
    return out


def proximal_step(prob, x, beta, r=None):
    """One proximal-gradient step on the composite problem.

    Computes a = x - beta * grad f(x) and applies the thresholding operator
    matching the problem's sparsity term.  ``r``, if given, must be
    ``prob.objective.residual(x)`` at this same x.
    """
    if not beta > 0:
        raise InvalidParameterError(f"step size must be positive, got {beta}")
    g = prob.objective.gradient(x, r=r)
    return prob.term.prox(x - beta * g, beta)
