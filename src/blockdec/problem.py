"""Quadratic objectives, sparsity terms, and the composite objective F = f + h.

The smooth part f is a convex quadratic given either directly by its Gram data
(Q, p), meaning f(x) = 1/2 x'Qx + p'x, or in factored least-squares form
(A, b), meaning f(x) = 1/2 ||Ax - b||^2.  The two forms agree up to the
constant 1/2 ||b||^2 when Q = A'A and p = -A'b.

The nonsmooth part h is one of four sparsity terms: a hard cardinality cap,
a count penalty, or one of two separable relaxations (l1 and l1/2) used by
the gradient-type baseline solvers.
"""

import numpy as np

from . import prox
from .errors import (DataFormatError, DimensionMismatchError, InvalidParameterError,
                     NumericalError)


class _InfeasibleValue:
    """Sentinel for the objective value of an infeasible point.

    Ordered strictly above every real number so that argmin-style comparisons
    work; any attempt to do arithmetic with it is a programming error and
    trips an assertion rather than propagating a NaN.
    """

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "INFEASIBLE"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("blockdec-infeasible")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def _no_arithmetic(self, *args):
        raise AssertionError("arithmetic with the infeasible sentinel is forbidden")

    __add__ = __radd__ = __sub__ = __rsub__ = _no_arithmetic
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _no_arithmetic
    __neg__ = __abs__ = __float__ = _no_arithmetic


INFEASIBLE = _InfeasibleValue()


def _as_vector(x, n, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"{name} has shape {x.shape}, expected ({n},)")
    return x


# ---------------------------------------------------------------------------
# sparsity terms


class Cardinality:
    """Indicator of the cardinality ball: h(x) = 0 if ||x||_0 <= s, else +inf."""

    def __init__(self, s):
        if int(s) != s or s < 1:
            raise InvalidParameterError(f"cardinality bound must be a positive integer, got {s}")
        self.s = int(s)

    def __repr__(self):
        return f"Cardinality(s={self.s})"

    def feasible(self, x):
        return int(np.count_nonzero(x)) <= self.s

    def value(self, x):
        return 0.0 if self.feasible(x) else INFEASIBLE

    def prox(self, a, step):
        # the indicator's proximal map is projection: keep the s largest
        return prox.hard_threshold_topk(a, self.s)


class L0Penalty:
    """Count penalty h(x) = lam * ||x||_0."""

    def __init__(self, lam):
        if not lam > 0:
            raise InvalidParameterError(f"penalty weight must be positive, got {lam}")
        self.lam = float(lam)

    def __repr__(self):
        return f"L0Penalty(lam={self.lam})"

    def value(self, x):
        return self.lam * int(np.count_nonzero(x))

    def prox(self, a, step):
        return prox.prox_l0_penalty(a, step, self.lam)


class L1Penalty:
    """Convex relaxation h(x) = lam * ||x||_1."""

    def __init__(self, lam):
        if not lam >= 0:
            raise InvalidParameterError(f"penalty weight must be nonnegative, got {lam}")
        self.lam = float(lam)

    def __repr__(self):
        return f"L1Penalty(lam={self.lam})"

    def value(self, x):
        return self.lam * float(np.sum(np.abs(x)))

    def prox(self, a, step):
        return prox.soft_threshold(a, step * self.lam)


class HalfPenalty:
    """Nonconvex relaxation h(x) = lam * sum_i |x_i|^(1/2)."""

    def __init__(self, lam):
        if not lam > 0:
            raise InvalidParameterError(f"penalty weight must be positive, got {lam}")
        self.lam = float(lam)

    def __repr__(self):
        return f"HalfPenalty(lam={self.lam})"

    def value(self, x):
        return self.lam * float(np.sum(np.sqrt(np.abs(x))))

    def prox(self, a, step):
        return prox.half_threshold(a, step * self.lam)


#: terms the combinatorial solver can handle (exact l0 structure)
L0_TERMS = (Cardinality, L0Penalty)
#: every term a proximal-gradient solver can handle
ALL_TERMS = (Cardinality, L0Penalty, L1Penalty, HalfPenalty)


def require_l0_term(term, what):
    """Reject a term outside L0_TERMS: "<what> requires an l0 term"."""
    if not isinstance(term, L0_TERMS):
        raise InvalidParameterError(f"{what} requires an l0 term, got {term!r}")


def make_term(mode, param):
    """The l0 term of a mode: a cardinality cap (cons) or a count penalty (regu)."""
    if mode == "cons":
        return Cardinality(int(param))
    if mode == "regu":
        return L0Penalty(float(param))
    raise InvalidParameterError(f"mode must be 'cons' or 'regu', got {mode!r}")


# ---------------------------------------------------------------------------
# smooth quadratic objective


# Factored instances at or below this dimension cache the Gram data; the
# block subproblem extracts many small Q submatrices and the cache makes
# that a plain slice.
_GRAM_CACHE_LIMIT = 4096

# L = lambda_max(Q) comes from the smaller Gram, A'A or AA' (r = min(m, n)): dense
# eigvalsh up to this r, Lanczos above.  Wide Gaussian data, one BLAS thread: dense
# 0.30 s vs Lanczos 0.94 s at r = 1024, 1.74 s vs 2.08 s at r = 2048 (2-vCPU VM).
_DENSE_EIG_LIMIT = 2048


class QuadraticObjective:
    """Convex quadratic f in Gram form (Q, p) or factored form (A, b).

    Use the ``from_gram`` / ``from_factored`` constructors.  Instances are
    immutable after construction and safe to share across threads; the only
    mutation is a one-time fill of the lazily computed Gram cache, curvature
    diagonal and the exact largest eigenvalue of Q.
    """

    def __init__(self, *, Q=None, p=None, A=None, b=None):
        if (Q is None) == (A is None):
            raise InvalidParameterError("provide exactly one of Gram (Q, p) or factored (A, b) data")
        self.m = self._A = self._b = self._Q = self._p = None
        if Q is not None:
            Q = np.asarray(Q, dtype=float)
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise DimensionMismatchError(f"Q must be square, got shape {Q.shape}")
            p = _as_vector(p, Q.shape[0], "p")
            if not (np.isfinite(Q).all() and np.isfinite(p).all()):
                raise DataFormatError("Q or p has a non-finite entry (nan or inf)")
            scale = np.max(np.abs(Q)) if Q.size else 0.0
            if scale > 0 and np.max(np.abs(Q - Q.T)) > 1e-12 * scale:
                raise InvalidParameterError("Q must be symmetric (1e-12 relative)")
            if np.any(np.diag(Q) < 0):
                raise InvalidParameterError("Q has a negative diagonal entry")
            self.n = Q.shape[0]
            self._Q = 0.5 * (Q + Q.T)
            self._p = p.copy()
        else:
            A = np.asarray(A, dtype=float)
            if A.ndim != 2:
                raise DimensionMismatchError(f"A must be a matrix, got shape {A.shape}")
            b = _as_vector(b, A.shape[0], "b")
            if not (np.isfinite(A).all() and np.isfinite(b).all()):
                raise DataFormatError("A or b has a non-finite entry (nan or inf)")
            self.m, self.n = A.shape
            self._A = A.copy()
            self._b = b.copy()
        # the one "Gram cached or factored" decision; the cache fills lazily
        self._gram_cached = Q is not None or self.n <= _GRAM_CACHE_LIMIT
        self._lip = self._diag = None

    @classmethod
    def from_gram(cls, Q, p):
        return cls(Q=Q, p=p)

    @classmethod
    def from_factored(cls, A, b):
        return cls(A=A, b=b)

    @property
    def is_factored(self):
        return self._A is not None

    def __repr__(self):
        form = f"factored {self.m}x{self.n}" if self.is_factored else f"gram {self.n}x{self.n}"
        return f"QuadraticObjective({form})"

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        x = _as_vector(x, self.n)
        if self.is_factored:
            r = self._A @ x - self._b
            return 0.5 * float(r @ r)
        return 0.5 * float(x @ (self._Q @ x)) + float(self._p @ x)

    def gradient(self, x):
        x = _as_vector(x, self.n)
        if self.is_factored:
            return self._A.T @ (self._A @ x - self._b)
        return self._Q @ x + self._p

    # -- Gram access (used by the block subproblem) -------------------------

    def _ensure_gram(self):
        if self._Q is None:
            self._Q = self._A.T @ self._A
            self._p = -(self._A.T @ self._b)

    def gram_matrix(self):
        """Full Q (cached for factored instances up to the cache limit)."""
        if not self._gram_cached:
            raise InvalidParameterError(
                f"dense Gram matrix not materialized for n = {self.n} > {_GRAM_CACHE_LIMIT}")
        self._ensure_gram()
        return self._Q

    def gram_submatrix(self, idx):
        """Q[idx, idx] as a dense square block."""
        idx = np.asarray(idx, dtype=int)
        if not self._gram_cached:
            cols = self._A[:, idx]
            return cols.T @ cols
        self._ensure_gram()
        return self._Q[np.ix_(idx, idx)]

    def gram_blocks(self, idx):
        """Q[I, I] for every row I of an (N, k) index array, as an (N, k, k) stack."""
        idx = np.asarray(idx, dtype=int)
        if not self._gram_cached:
            cols = self._A[:, idx].transpose(1, 0, 2)  # (N, m, k)
            return cols.swapaxes(1, 2) @ cols
        self._ensure_gram()
        return self._Q[idx[:, :, None], idx[:, None, :]]

    def linear_term(self, idx=None):
        """p (or p[idx]); for factored data p = -A'b."""
        if not self._gram_cached:
            A = self._A if idx is None else self._A[:, idx]
            return -(A.T @ self._b)
        self._ensure_gram()
        return self._p if idx is None else self._p[idx]

    def matvec(self, v):
        """Q @ v without forming Q when operating column-wise."""
        v = _as_vector(v, self.n, "v")
        if not self._gram_cached:
            return self._A.T @ (self._A @ v)
        self._ensure_gram()
        return self._Q @ v

    # -- curvature ----------------------------------------------------------

    def coordinate_lipschitz(self):
        """Per-coordinate gradient Lipschitz constants diag(Q): cached, read-only."""
        if self._diag is None:  # factored data read A: no Gram fill, one rounding
            diag = (np.einsum("ij,ij->j", self._A, self._A) if self.is_factored
                    else np.diag(self._Q).copy())
            diag.flags.writeable = False
            self._diag = diag  # published only once read-only
        return self._diag

    def lipschitz_global(self):
        """L = lambda_max(Q) = ||A||_2^2, exact to rounding, cached."""
        if self._lip is None:
            self._lip = self._spectral_norm()
        return self._lip

    def _spectral_norm(self):
        # lambda_max(A'A) = lambda_max(AA'): wide data never fill the n x n Gram
        wide = self.is_factored and self.m < self.n
        r = self.m if wide else self.n
        with np.errstate(over="ignore", invalid="ignore"):
            if r <= _DENSE_EIG_LIMIT:
                G = self._A @ self._A.T if wide else self.gram_matrix()
                try:
                    lam = np.linalg.eigvalsh(G)[-1] if np.isfinite(G).all() else np.inf
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(f"Gram eigensolve failed: {exc}") from exc
            elif not self.coordinate_lipschitz().any():
                lam = 0.0  # diag(Q) = 0 and Q is PSD, so Q = 0: ARPACK cannot start on it
            else:  # imported here: scipy.sparse adds 0.3 s and 4 MB to import
                from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

                mv = (lambda v: self._A @ (self._A.T @ v)) if wide else self.matvec
                v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(r)
                try:
                    lam = eigsh(LinearOperator((r, r), matvec=mv, dtype=float), k=1,
                                which="LA", v0=v0, return_eigenvectors=False)[0]
                except ArpackError as exc:
                    raise NumericalError(f"Gram eigensolve failed: {exc}") from exc
        if not np.isfinite(lam):
            raise NumericalError("Gram matrix overflows: its largest eigenvalue is not finite")
        return float(max(lam, 0.0))


# ---------------------------------------------------------------------------
# composite problem


class CompositeProblem:
    """The composite objective F(x) = f(x) + h(x)."""

    def __init__(self, objective, term):
        if not isinstance(objective, QuadraticObjective):
            raise InvalidParameterError("objective must be a QuadraticObjective")
        if not isinstance(term, ALL_TERMS):
            raise InvalidParameterError(f"unsupported sparsity term {term!r}")
        if isinstance(term, Cardinality) and term.s > objective.n:
            raise InvalidParameterError(
                f"cardinality bound {term.s} exceeds dimension {objective.n}")
        self.objective = objective
        self.term = term

    @property
    def n(self):
        return self.objective.n

    def __repr__(self):
        return f"CompositeProblem({self.objective!r}, {self.term!r})"

    def value(self, x):
        return composite_value(self, x)


def composite_value(prob, x):
    """F(x) = f(x) + h(x); the infeasible sentinel for an over-budget point.

    The nonzero count uses exact comparison against 0.0 -- no epsilon.
    """
    x = _as_vector(x, prob.n)
    h = prob.term.value(x)
    if h is INFEASIBLE:
        return INFEASIBLE
    return prob.objective.value(x) + h
