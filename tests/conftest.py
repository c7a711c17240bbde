"""Shared fixtures and independent oracles for the test suite.

The brute-force helpers here deliberately avoid the package's own solve
paths (plain numpy lstsq per support) so that solver tests compare against
an independent computation.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from blockdec import (Cardinality, CompositeProblem, L0Penalty,
                      QuadraticObjective, gen_random, table1_problem)

pytest_plugins = ("pytester",)

# The six-variable demo problem: Q = cc' + I with c = (1..6), p = all-ones,
# given by its exact factor, so f = 1/2 x'Qx + p'x + 1/2 ||b||^2 with
# 1/2 ||b||^2 = 3.  Exact rational optima (Sherman-Morrison on the optimal
# support):
#   constrained s=4: support (0,1,2,5), x = (-13,-9,-5,0,0,7)/17, F* = 3 - 10/17
#   penalty lam=0.01: support (0,1,2,4,5), F* = 3 - 417/760
DEMO_OFFSET = 3.0
CONS_GLOBAL_F = DEMO_OFFSET - 10.0 / 17.0
CONS_GLOBAL_X = np.array([-13.0, -9.0, -5.0, 0.0, 0.0, 7.0]) / 17.0
REGU_GLOBAL_F = DEMO_OFFSET - 417.0 / 760.0
DEMO_L = 92.0  # 1 + ||c||^2, the largest eigenvalue of cc' + I


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, **kw):
    """``python -m blockdec.cli ARGS`` on this checkout's sources, output captured.

    The child's PYTHONPATH starts with the checkout's ``src``, so the CLI
    runs without an install and never picks up another copy of the package.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "blockdec.cli", *args],
                          capture_output=True, text=True, env=env, **kw)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(obj, name)`` records every call of ``obj.name``; returns the record list.

    The counter is installed through ``monkeypatch``, so ``obj.name`` is the
    original again once the test ends.
    """
    def install(obj, name):
        calls = []
        method = getattr(obj, name)

        def counted(*args, **kw):
            calls.append(args)
            return method(*args, **kw)

        monkeypatch.setattr(obj, name, counted)
        return calls

    return install


@pytest.fixture
def demo_cons():
    return table1_problem("cons")


@pytest.fixture
def demo_regu():
    return table1_problem("regu")


def factor_gram(Q, p):
    """The objective with A'A = Q and -A'b = p to rounding, for p in range(Q).

    From Q = V diag(w) V' (eigh), on the eigenvalues above rounding:
    A = diag(sqrt(w)) V' and b = -diag(1/sqrt(w)) V'p.  Its f(x) is
    1/2 x'Qx + p'x + 1/2 ||b||^2.
    """
    w, V = np.linalg.eigh(np.asarray(Q, dtype=float))
    keep = w > len(w) * np.finfo(float).eps * max(w[-1], 0.0)
    root, V = np.sqrt(w[keep]), V[:, keep]
    A, b = root[:, None] * V.T, -(V.T @ p) / root
    np.testing.assert_allclose(-(A.T @ b), p, atol=1e-9 * (1 + np.abs(p).max()))
    return QuadraticObjective(A=A, b=b)


def random_gram_problem(n, seed, term):
    """Random problem given by a PSD Gram (Q = G'G + small ridge) and p, factored."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n + 2, n))
    Q = G.T @ G + 0.1 * np.eye(n)
    p = rng.standard_normal(n)
    return CompositeProblem(factor_gram(Q, p), term)


def random_factored_problem(m, n, seed, term, noise=0.5, support=None):
    A, b, x_true = gen_random(m, n, support or max(1, n // 3),
                              noise_scale=noise, seed=seed)
    return CompositeProblem(QuadraticObjective(A=A, b=b), term), x_true


def brute_force_cons(A, b, s):
    """Global minimum of 1/2||Ax-b||^2 over ||x||_0 <= s by full enumeration."""
    m, n = A.shape
    best = 0.5 * float(b @ b)
    for r in range(1, s + 1):
        for S in itertools.combinations(range(n), r):
            cols = A[:, S]
            z, *_ = np.linalg.lstsq(cols, b, rcond=None)
            res = cols @ z - b
            best = min(best, 0.5 * float(res @ res))
    return best


def brute_force_regu(A, b, lam):
    """Global minimum of 1/2||Ax-b||^2 + lam*||x||_0 by full enumeration."""
    m, n = A.shape
    best = 0.5 * float(b @ b)
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            cols = A[:, S]
            z, *_ = np.linalg.lstsq(cols, b, rcond=None)
            res = cols @ z - b
            best = min(best, 0.5 * float(res @ res) + lam * int(np.count_nonzero(z)))
    return best


def brute_force_gram(Q, p, term):
    """Global composite minimum for a Gram-form problem by support enumeration."""
    n = Q.shape[0]
    if isinstance(term, Cardinality):
        sizes = range(term.s + 1)
        lam = 0.0
    else:
        assert isinstance(term, L0Penalty)
        sizes = range(n + 1)
        lam = term.lam
    best = 0.0
    for r in sizes:
        for S in itertools.combinations(range(n), r):
            if not S:
                continue
            idx = list(S)
            z = np.linalg.lstsq(Q[np.ix_(idx, idx)], -p[idx], rcond=None)[0]
            f = 0.5 * float(z @ (Q[np.ix_(idx, idx)] @ z)) + float(p[idx] @ z)
            best = min(best, f + lam * int(np.count_nonzero(z)))
    return best
