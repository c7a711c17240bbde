"""Quadratic objectives, sparsity terms, and the composite objective F = f + h.

The smooth part f is the least-squares objective f(x) = 1/2 ||Ax - b||^2 of
factored data (A, b); its Gram data are Q = A'A and p = -A'b.  f and its
gradient both start from the residual r = Ax - b, which a solver forms once
per point and hands to both; on a sparse x it is read from the support
columns of A alone.  A proximal-gradient solve takes its gradients at sparse
points from a ``GramColumns`` store instead, p + Q[:, S] x_S, with each
column of Q formed from A once per solve; the store lives in the solve, and
p = -A'b in the objective, formed once.

The nonsmooth part h is one of four sparsity terms: a hard cardinality cap,
a count penalty, or one of two separable relaxations (l1 and l1/2) used by
the gradient-type baseline solvers.
"""

import numpy as np

from . import prox
from .data import all_finite
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
        if not 1 <= s < np.inf or int(s) != s:
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
        if not 0 < lam < np.inf:
            raise InvalidParameterError(
                f"penalty weight must be positive and finite, got {lam}")
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
        if not 0 <= lam < np.inf:
            raise InvalidParameterError(
                f"penalty weight must be nonnegative and finite, got {lam}")
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
        if not 0 < lam < np.inf:
            raise InvalidParameterError(
                f"penalty weight must be positive and finite, got {lam}")
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
        return Cardinality(param)  # unconverted, so a fractional level is rejected
    if mode == "regu":
        return L0Penalty(float(param))
    raise InvalidParameterError(f"mode must be 'cons' or 'regu', got {mode!r}")


# ---------------------------------------------------------------------------
# smooth quadratic objective


# Instances at or below this dimension cache the Gram matrix (n^2
# doubles) on the first whole or stacked read, and only its two readers fill
# it: gram_matrix and gram_blocks.  A block-k certificate reads thousands of
# blocks per point, which repays the fill.  gram_submatrix never fills it:
# one block read from A costs m k^2 multiply-adds against m n^2 / 2 for the
# fill, so a solver making one block solve per iteration would need
# n^2 / (2 k^2) of them (58,000 at n = 2048, k = 6) to repay it.
_GRAM_CACHE_LIMIT = 4096

# A point takes the support path -- residual(x) = A[:, S] x_S - b, and its
# gradient from the Gram columns of S (GramColumns) -- when 32 nnz(x) <= n and
# A has at least 2^16 entries.  The path has a fixed cost of 5-10 us (scan x,
# index, gather) and the dense product about 0.2 ns per entry of A, so where
# A is small the dense product wins at any nnz.  Support path over the dense
# one, through residual(x) and GramColumns.gradient against gradient(x, r),
# at nnz 1, 4, n/64 and n/32, one BLAS thread (2-vCPU VM):
#   below the floor: 64x256 1.7-2.0x (residual), 2.0-2.2x (gradient);
#   40x640 1.3-1.6x, 1.6-2.3x;
#   at it: 64x1024 0.92-1.23x, 0.79-1.19x; 128x512 0.67-0.85x, 0.75-0.84x;
#   above it: 96x1024 0.49-0.66x, 0.55-0.86x; 30x4200 0.40-0.62x, 0.74-0.84x;
#   200x1000 0.30-0.45x, 0.35-0.41x; 128x4096 0.05-0.45x, 0.08-0.47x;
#   100x10000 0.03-0.42x, 0.07-0.09x; 1000x2000 0.02-0.62x, 0.01-0.03x;
#   256x2048 0.05-0.43x, 0.05-0.18x; 500x5000 0.01-0.39x, 0.02-0.35x.
# (A gradient the store cannot serve, past its bound, costs 1.05-1.4x.)
_SUPPORT_PRODUCT_RATIO = 32
_SUPPORT_MIN_SIZE = 1 << 16

# L = lambda_max(Q) comes from the smaller Gram, A'A or AA' (r = min(m, n)): dense
# eigvalsh up to this r, Lanczos above.  Wide Gaussian data, one BLAS thread: dense
# 0.30 s vs Lanczos 0.94 s at r = 1024, 1.74 s vs 2.08 s at r = 2048 (2-vCPU VM).
_DENSE_EIG_LIMIT = 2048


class QuadraticObjective:
    """Least-squares objective f(x) = 1/2 ||Ax - b||^2 of factored data (A, b).

    Construct it as ``QuadraticObjective(A=A, b=b)``.  Its Gram data are
    Q = A'A and p = -A'b.  Instances are immutable after construction and
    safe to share across threads, so one objective serves every solve on its
    instance.  The arrays they hand out whole, ``A``, ``b``, p, Q and
    diag(Q), are read-only.  The only mutation is a one-time
    fill of four lazily computed quantities, each formed in one method and
    published only once complete: p = -A'b
    (``linear_term``), diag(Q) (``coordinate_lipschitz``), the exact largest
    eigenvalue of Q (``lipschitz_global``) and the Gram cache.  No quantity
    is formed from another, so each has the same bits whichever is formed
    first.  The Gram cache fills only on a whole or stacked read
    (``gram_matrix``, ``gram_blocks``) and only for n up to
    ``_GRAM_CACHE_LIMIT``; a single block, ``gram_submatrix``, always reads
    A, so its value is the same whether or not the cache is filled.

    ``value`` and ``gradient`` are computed from the residual r = Ax - b,
    which ``residual`` forms from the support columns of A when x is sparse.
    Callers that need both at one point form r once and pass it to each; it
    must be the residual of that same x.  ``gram_columns`` gives a solve its
    own store of Gram columns, from which it takes gradients at sparse points.
    """

    # every objective holds A; the benchmark tracer reads this flag (ROADMAP item 14)
    is_factored = True

    def __init__(self, *, A, b):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatchError(f"A must be a matrix, got shape {A.shape}")
        b = _as_vector(b, A.shape[0], "b")
        if not (all_finite(A) and all_finite(b)):
            raise DataFormatError("A or b has a non-finite entry (nan or inf)")
        self.m, self.n = A.shape
        self.A, self.b = A.copy(), b.copy()
        self.A.flags.writeable = self.b.flags.writeable = False
        # the one "Gram cached or not" decision; the cache fills lazily
        self._gram_cached = self.n <= _GRAM_CACHE_LIMIT
        self._Q = self._p = self._lip = self._diag = None

    def __repr__(self):
        return f"QuadraticObjective({self.m}x{self.n})"

    # -- evaluation ---------------------------------------------------------

    def _sparse_support(self, x):
        """supp(x) if x takes the support path, else None.

        The path is taken where A has m n >= 2^16 entries, at a point with
        at most n/32 nonzeros: see ``_SUPPORT_MIN_SIZE``.
        """
        if self.m * self.n < _SUPPORT_MIN_SIZE:
            return None
        nonzero = x != 0  # one float scan; counting and indexing bools is cheap
        if _SUPPORT_PRODUCT_RATIO * np.count_nonzero(nonzero) <= self.n:
            return np.flatnonzero(nonzero)
        return None

    def residual(self, x):
        """r = Ax - b.

        A point on the support path (``_sparse_support``) is multiplied by its
        support columns only, A[:, S] @ x[S]; any other by all of A.  Every
        call forms r from x itself, so r never depends on an earlier point.
        """
        x = _as_vector(x, self.n)
        support = self._sparse_support(x)
        if support is not None:
            return self.A[:, support] @ x[support] - self.b
        return self.A @ x - self.b

    def moved_residual(self, r, idx, d):
        """r + A[:, idx] d: the residual once x moves by d on coordinates idx.

        ``r`` must be the residual of the point before the move, formed by
        ``residual`` or carried by this method.  Each carried move adds
        rounding of about (|idx| + 1) eps (|r| + |A[:, idx]| |d|) per entry, so
        r drifts from Ax - b in its last bits.
        """
        return r + self.A[:, idx] @ d

    def value(self, x, r=None):
        """f(x); ``r``, if given, must be ``residual(x)`` at this same x."""
        if r is None:
            r = self.residual(x)
        return 0.5 * float(r @ r)

    def gradient(self, x, r=None):
        """grad f(x) = A'r; ``r``, if given, must be ``residual(x)``."""
        if r is None:
            r = self.residual(x)
        return self.A.T @ r

    def values_and_gradients(self, X):
        """(f, G) at every row of X (R, n): f[i] = value(X[i]), G[i] = gradient(X[i]).

        Bit for bit, since each row gets the products its own calls make,
        stacked: one gemv per row for Ax and A'r and one dot for r'r.  A row
        on the support path gets its own ``residual`` call.  One gemm over the
        rows, X @ A.T, would round differently.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionMismatchError(f"X has shape {X.shape}, expected (R, {self.n})")
        R = self._residuals(X)
        return 0.5 * (R[:, None, :] @ R[..., None])[:, 0, 0], (self.A.T @ R[..., None])[..., 0]

    def _residuals(self, X):
        """residual(X[i]) for every row of X, each on its own path."""
        nnz = np.count_nonzero(X, axis=1)  # the rule of _sparse_support, row by row
        sparse = (self.m * self.n >= _SUPPORT_MIN_SIZE) & (_SUPPORT_PRODUCT_RATIO * nnz <= self.n)
        R = np.empty((len(X), self.m))
        R[~sparse] = (self.A @ X[~sparse, :, None])[..., 0] - self.b
        for i in np.flatnonzero(sparse):
            R[i] = self.residual(X[i])
        return R

    def gram_columns(self):
        """A new, empty ``GramColumns`` store: gradients for one solve."""
        return GramColumns(self)

    # -- Gram access (used by the block subproblem) -------------------------

    def _ensure_gram(self):
        if self._Q is None:
            Q = self.A.T @ self.A
            Q.flags.writeable = False
            self._Q = Q  # published only once read-only

    def gram_matrix(self):
        """Full Q, read-only (cached for instances up to the cache limit)."""
        if not self._gram_cached:
            raise InvalidParameterError(
                f"dense Gram matrix not materialized for n = {self.n} > {_GRAM_CACHE_LIMIT}")
        self._ensure_gram()
        return self._Q

    def gram_submatrix(self, idx):
        """Q[idx, idx] as a dense square block.

        A[:, idx]' A[:, idx] (m k^2 multiply-adds); it never fills the Gram cache.
        """
        cols = self.A[:, np.asarray(idx, dtype=int)]
        return cols.T @ cols

    def gram_blocks(self, idx):
        """Q[I, I] for every row I of an (N, k) index array, as an (N, k, k) stack."""
        idx = np.asarray(idx, dtype=int)
        if not self._gram_cached:
            cols = self.A[:, idx].transpose(1, 0, 2)  # (N, m, k)
            return cols.swapaxes(1, 2) @ cols
        self._ensure_gram()
        return self._Q[idx[:, :, None], idx[:, None, :]]

    def linear_term(self, idx=None):
        """p = -A'b, read-only and formed once (or a copy of p[idx])."""
        if self._p is None:
            p = -(self.A.T @ self.b)
            p.flags.writeable = False
            self._p = p  # published only once read-only
        return self._p if idx is None else self._p[idx]

    def matvec(self, v):
        """Q @ v as A'(Av), two passes over A; it never reads Q."""
        v = _as_vector(v, self.n, "v")
        return self.A.T @ (self.A @ v)

    # -- curvature ----------------------------------------------------------

    def coordinate_lipschitz(self):
        """Per-coordinate gradient Lipschitz constants diag(Q): cached, read-only."""
        if self._diag is None:  # read from A: no Gram fill, one rounding
            diag = np.einsum("ij,ij->j", self.A, self.A)
            diag.flags.writeable = False
            self._diag = diag  # published only once read-only
        return self._diag

    def lipschitz_global(self):
        """L = lambda_max(Q) = ||A||_2^2, exact to rounding, cached."""
        if self._lip is None:
            self._lip = self._spectral_norm()
        return self._lip

    def _spectral_norm(self):
        # lambda_max(A'A) = lambda_max(AA'): the smaller one is formed here, for
        # this call only, and the Gram cache is neither read nor filled
        wide = self.m < self.n
        r = self.m if wide else self.n
        with np.errstate(over="ignore", invalid="ignore"):
            if r <= _DENSE_EIG_LIMIT:
                G = self.A @ self.A.T if wide else self.A.T @ self.A
                try:
                    lam = np.linalg.eigvalsh(G)[-1] if np.isfinite(G).all() else np.inf
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(f"Gram eigensolve failed: {exc}") from exc
            elif not self.coordinate_lipschitz().any():
                lam = 0.0  # diag(Q) = 0 and Q is PSD, so Q = 0: ARPACK cannot start on it
            else:  # imported here: scipy.sparse adds 0.3 s and 4 MB to import
                from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

                mv = (lambda v: self.A @ (self.A.T @ v)) if wide else self.matvec
                v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(r)
                try:
                    lam = eigsh(LinearOperator((r, r), matvec=mv, dtype=float), k=1,
                                which="LA", v0=v0, return_eigenvectors=False)[0]
                except ArpackError as exc:
                    raise NumericalError(f"Gram eigensolve failed: {exc}") from exc
        if not np.isfinite(lam):
            raise NumericalError("Gram matrix overflows: its largest eigenvalue is not finite")
        return float(max(lam, 0.0))


class GramColumns:
    """Gradients of an objective from its Gram columns, for one solve.

    At a point x on the support path (see ``QuadraticObjective.residual``)
    ``gradient`` returns grad f(x) = p + Q[:, S] x_S with p = -A'b and
    S = supp(x), at n |T| multiply-adds, where T is every coordinate the
    store holds; A'(Ax - b) costs m n.  p is the objective's own
    (``linear_term``).  The store holds the column Q[:, j] = A'a_j of each j
    that has been in a support, formed the first time j enters one: one
    product A[:, new]' A covers each batch of new coordinates, and no column
    is formed twice.  It never fills the objective's n x n Gram cache.

    Memory: at most m // 2 columns of n doubles, half the size of A; at that
    bound a served gradient still costs at most half of A'r.  A support that
    would take the store past its bound is not served and does not grow it.
    That point and any point off the support path get
    ``objective.gradient(x, r)`` itself, bit for bit.

    A served gradient agrees with A'(Ax - b) to rounding, not bit for bit:
    its last bits depend on the order in which the run filled the columns
    (which fixes their slots, hence the order of the sum over T) and on how
    they were batched.  The run fixes both, so a run repeats bit for bit.
    """

    def __init__(self, objective):
        self.objective = objective
        n = objective.n
        self._slot = np.full(n, -1, dtype=np.intp)  # coordinate -> row of _rows
        self._rows = np.empty((0, n))  # row t is the Gram column of slot t
        self._size = 0
        self._limit = objective.m // 2

    def __len__(self):
        """The number of Gram columns held."""
        return self._size

    def gradient(self, x, r=None):
        """grad f(x); ``r``, if given, must be ``objective.residual(x)``.

        ``r`` is used only where the store cannot serve x.
        """
        obj = self.objective
        x = _as_vector(x, obj.n)
        support = obj._sparse_support(x)
        slots = None if support is None else self._slots(support)
        if slots is None:
            return obj.gradient(x, r=r)
        w = np.zeros(self._size)
        w[slots] = x[support]
        return obj.linear_term() + w @ self._rows[:self._size]

    def _slots(self, support):
        """The rows holding Q[:, support], formed as needed; None past the bound."""
        new = support[self._slot[support] < 0]
        size = self._size + new.size
        if size > self._limit:
            return None
        if size > self._rows.shape[0]:  # grow by doubling, up to the bound
            rows = np.empty((min(max(size, 2 * self._rows.shape[0]), self._limit),
                             self.objective.n))
            rows[:self._size] = self._rows[:self._size]
            self._rows = rows
        if new.size:
            A = self.objective.A
            self._rows[self._size:size] = A[:, new].T @ A
            self._slot[new] = np.arange(self._size, size)
            self._size = size
        return self._slot[support]


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


def composite_value(prob, x, r=None):
    """F(x) = f(x) + h(x); the infeasible sentinel for an over-budget point.

    ``r``, if given, must be ``prob.objective.residual(x)`` at this same x.
    The nonzero count uses exact comparison against 0.0 -- no epsilon.
    """
    x = _as_vector(x, prob.n)
    h = prob.term.value(x)
    if h is INFEASIBLE:
        return INFEASIBLE
    return prob.objective.value(x, r=r) + h


def composite_values(prob, X):
    """(F, G) at every row of X (R, n) under an l0 term, as the per-point calls give them.

    G[i] = ``prob.objective.gradient(X[i])`` and F[i] = ``composite_value(prob,
    X[i])``, bit for bit, with inf where that is INFEASIBLE.
    """
    require_l0_term(prob.term, "composite_values")
    f, G = prob.objective.values_and_gradients(X)
    nnz = np.count_nonzero(X, axis=1)
    if isinstance(prob.term, Cardinality):  # h = 0 where feasible
        return np.where(nnz <= prob.term.s, f + 0.0, np.inf), G
    return f + prob.term.lam * nnz, G
