"""Exact block solves against independent per-pattern enumeration oracles."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from blockdec import problem as problem_module
from blockdec import subproblem as subproblem_module
from blockdec import (Cardinality, CompositeProblem, DegenerateSystemError,
                      DimensionMismatchError, InvalidParameterError, L0Penalty,
                      L1Penalty, NumericalError, QuadraticObjective,
                      composite_value, gen_random, solve_block)
from blockdec.subproblem import DEGENERATE, NUMERICAL, TIE_TOL

from conftest import random_factored_problem, random_gram_problem


def oracle_block_min(prob, x, B, theta):
    """Brute-force block optimum via numpy lstsq per pattern (independent path)."""
    Q = prob.objective.gram_matrix()
    p = prob.objective.linear_term()
    n = prob.n
    idx = list(B)
    k = len(idx)
    if isinstance(prob.term, Cardinality):
        lam, budget = 0.0, prob.term.s
    else:
        lam, budget = prob.term.lam, n
    best_F, best_z = None, None
    for mask in range(1 << k):
        z = x.copy()
        z[idx] = 0.0
        T = [idx[j] for j in range(k) if (mask >> j) & 1]
        if T:
            M = Q[np.ix_(T, T)] + theta * np.eye(len(T))
            rhs = theta * x[T] - p[T] - Q[np.ix_(T, [i for i in range(n) if i not in T])] @ np.delete(z, T)
            z[T] = np.linalg.lstsq(M, rhs, rcond=None)[0]
        if np.count_nonzero(z) > budget and lam == 0.0:
            continue
        F = (0.5 * z @ Q @ z + p @ z + lam * np.count_nonzero(z)
             + 0.5 * theta * np.sum((z - x) ** 2))
        if best_F is None or F < best_F - 1e-13:
            best_F, best_z = F, z
    return best_F, best_z


def _reference_spd(M, rhs, allow_ridge):
    """One scipy Cholesky solve, ridged at theta = 0, residual-checked."""
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
        try:
            z = z + cho_solve(cho_factor(M, lower=True), res)
        except np.linalg.LinAlgError:
            pass
        res = rhs - M @ z
        if np.linalg.norm(res) > bound:
            raise NumericalError("restricted system solve exceeded residual tolerance")
    return z


def reference_solve_block(prob, x, g, B, theta):
    """The mask-by-mask loop: one factorization per pattern, same tie rules.

    Returns ``(x_next, patterns_evaluated, composite_delta)`` for a valid,
    feasible input; solve_block must agree with it.
    """
    idx = np.unique(np.asarray(B, dtype=int))
    k = idx.size
    cardinality = isinstance(prob.term, Cardinality)
    x_B = x[idx]
    nnz_out = int(np.count_nonzero(x)) - int(np.count_nonzero(x_B))
    budget = prob.term.s - nnz_out if cardinality else k
    lam = 0.0 if cardinality else prob.term.lam
    g_B = g[idx]
    Q_BB = prob.objective.gram_submatrix(idx)
    c = Q_BB @ x_B - g_B

    nnz_x_B = int(np.count_nonzero(x_B))
    best_delta, best_nnz, best_mask, best_zB = 0.0, nnz_x_B, None, x_B
    evaluated = 0
    for mask in range(1 << k):
        r = mask.bit_count()
        if r > budget:
            continue
        evaluated += 1
        z_B = np.zeros(k)
        if r:
            T = [j for j in range(k) if (mask >> j) & 1]
            M = Q_BB[np.ix_(T, T)] + theta * np.eye(r)
            z_B[T] = _reference_spd(M, theta * x_B[T] + c[T], allow_ridge=(theta == 0.0))
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
        return x.copy(), evaluated, 0.0
    x_next = x.copy()
    x_next[idx] = best_zB
    d = best_zB - x_B
    return x_next, evaluated, best_delta - 0.5 * theta * float(d @ d)


class TestSolveBlockCardinality:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_gram_problem(7, seed, Cardinality(3))
        x = np.zeros(7)
        on = rng.choice(7, size=3, replace=False)
        x[on] = rng.standard_normal(3)
        B = rng.choice(7, size=4, replace=False)
        theta = 1e-3
        result = solve_block(prob, x, prob.objective.gradient(x), B, theta)
        F_x = composite_value(prob, x)
        oracle_F, _ = oracle_block_min(prob, x, B, theta)
        got = composite_value(prob, result.x_next) + 0.5 * theta * np.sum((result.x_next - x) ** 2)
        assert got == pytest.approx(oracle_F, rel=1e-9, abs=1e-9)
        # feasibility and descent
        assert np.count_nonzero(result.x_next) <= 3
        assert composite_value(prob, result.x_next) <= F_x + 1e-12
        assert result.composite_delta <= 0.0

    def test_budget_pruning_counts(self):
        prob = random_gram_problem(6, 3, Cardinality(2))
        x = np.zeros(6)
        x[[4, 5]] = 1.0  # budget outside B is exhausted
        result = solve_block(prob, x, prob.objective.gradient(x), [0, 1, 2], 1e-3)
        # only the empty pattern survives the budget
        assert result.patterns_evaluated == 1
        np.testing.assert_array_equal(result.x_next, x)
        assert result.composite_delta == 0.0

    def test_partial_budget(self):
        prob = random_gram_problem(6, 4, Cardinality(2))
        x = np.zeros(6)
        x[5] = 1.0
        result = solve_block(prob, x, prob.objective.gradient(x), [0, 1, 2], 1e-3)
        # budget 1 inside the block: patterns with <= 1 active: 1 + 3
        assert result.patterns_evaluated == 4

    def test_full_budget_matches_normal_equations(self):
        # with room for every coordinate, the full pattern is the block
        # optimum: (Q_BB + theta I) z_B = theta x_B - p_B - Q_{B,R} x_R
        rng = np.random.default_rng(0)
        prob = random_gram_problem(6, 0, Cardinality(6))
        Q = prob.objective.gram_matrix()
        p = prob.objective.linear_term()
        x = rng.standard_normal(6)
        B, R = [1, 3, 4], [0, 2, 5]
        theta = 0.7
        result = solve_block(prob, x, prob.objective.gradient(x), B, theta)
        M = Q[np.ix_(B, B)] + theta * np.eye(3)
        rhs = theta * x[B] - p[B] - Q[np.ix_(B, R)] @ x[R]
        np.testing.assert_allclose(result.x_next[B], np.linalg.solve(M, rhs), rtol=1e-10)
        np.testing.assert_array_equal(result.x_next[R], x[R])

    def test_singular_block_at_zero_theta_uses_ridge(self):
        # rank-1 Q makes the two-coordinate pattern singular at theta = 0;
        # the ridge path must solve it, and the sparser tie wins
        c = np.array([1.0, 2.0, 3.0])
        Q = np.outer(c, c)
        prob = CompositeProblem(QuadraticObjective(Q=Q, p=-c), Cardinality(3))
        x = np.zeros(3)
        result = solve_block(prob, x, prob.objective.gradient(x), [0, 1], 0.0)
        oracle_F, _ = oracle_block_min(prob, x, [0, 1], 0.0)
        assert composite_value(prob, result.x_next) == pytest.approx(oracle_F, abs=1e-9)
        np.testing.assert_allclose(result.x_next, [1.0, 0.0, 0.0])

    def test_infeasible_x_rejected(self):
        prob = random_gram_problem(5, 5, Cardinality(2))
        x = np.ones(5)
        with pytest.raises(InvalidParameterError):
            solve_block(prob, x, prob.objective.gradient(x), [0, 1], 1e-3)


class TestSolveBlockPenalty:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        prob = random_gram_problem(6, 50 + seed, L0Penalty(0.2))
        x = rng.standard_normal(6) * rng.integers(0, 2, size=6)
        B = rng.choice(6, size=3, replace=False)
        theta = 1e-3
        result = solve_block(prob, x, prob.objective.gradient(x), B, theta)
        oracle_F, _ = oracle_block_min(prob, x, B, theta)
        got = composite_value(prob, result.x_next) + 0.5 * theta * np.sum((result.x_next - x) ** 2)
        assert got == pytest.approx(oracle_F, rel=1e-9, abs=1e-9)
        assert result.patterns_evaluated == 8  # no pruning under the penalty

    def test_recount_on_exactly_zero_solution(self):
        # a pattern whose solved coordinate is exactly 0 must be charged
        # for the actual nonzero count, not the pattern size
        Q = np.eye(2)
        p = np.array([0.0, -1.0])  # coordinate 0 wants to sit exactly at 0
        prob = CompositeProblem(QuadraticObjective(Q=Q, p=p), L0Penalty(0.1))
        x = np.zeros(2)
        result = solve_block(prob, x, prob.objective.gradient(x), [0, 1], 0.0)
        np.testing.assert_allclose(result.x_next, [0.0, 1.0])
        assert composite_value(prob, result.x_next) == pytest.approx(-0.5 + 0.1)


class TestTieBreaking:
    def test_equal_objective_prefers_sparser(self):
        # two orthogonal coordinates with identical improvement; the sparser
        # single-coordinate pattern must not lose to the denser ones
        Q = np.eye(2)
        p = np.array([-1.0, -1.0])
        prob = CompositeProblem(QuadraticObjective(Q=Q, p=p), Cardinality(1))
        x = np.zeros(2)
        result = solve_block(prob, x, prob.objective.gradient(x), [0, 1], 0.0)
        assert np.count_nonzero(result.x_next) == 1
        # mask tie at equal sparsity: lower mask = coordinate 0
        np.testing.assert_allclose(result.x_next, [1.0, 0.0])

    def test_stay_put_at_optimum(self, demo_cons):
        x = np.array([-13.0, -9.0, -5.0, 0.0, 0.0, 7.0]) / 17.0
        g = demo_cons.objective.gradient(x)
        result = solve_block(demo_cons, x, g, [0, 1, 2, 3], 1e-3)
        np.testing.assert_allclose(result.x_next, x, atol=1e-12)
        assert result.composite_delta == 0.0


class TestValidation:
    def test_block_size_cap(self):
        prob = random_gram_problem(4, 6, Cardinality(2))
        x = np.zeros(4)
        with pytest.raises(InvalidParameterError):
            solve_block(prob, x, prob.objective.gradient(x), range(31), 1e-3)

    def test_index_validation(self):
        prob = random_gram_problem(4, 7, Cardinality(2))
        x = np.zeros(4)
        for bad in ([], [1, 1], [-1, 2]):
            with pytest.raises(InvalidParameterError):
                solve_block(prob, x, prob.objective.gradient(x), bad, 1e-3)

    def test_empty_indices_rejected(self):
        # every empty index sequence is rejected, whatever its container
        prob = random_gram_problem(4, 2, Cardinality(4))
        x = np.zeros(4)
        for empty in ([], (), range(0), np.array([], dtype=int), np.array([])):
            with pytest.raises(InvalidParameterError):
                solve_block(prob, x, prob.objective.gradient(x), empty, 1.0)

    def test_indices_must_be_a_flat_integer_sequence(self):
        # a 2-D block is not flattened into a 4-block, fractional indices are
        # not truncated, and bools are not read as 0 and 1
        prob = random_gram_problem(4, 7, Cardinality(4))
        x = np.zeros(4)
        for bad in ([[0, 1], [2, 3]], [0.5, 1.7, 2.2], [0.0, 1.0], [False, True],
                    np.array([[2]])):
            with pytest.raises(InvalidParameterError, match="1-D sequence of integer"):
                solve_block(prob, x, prob.objective.gradient(x), bad, 1e-3)

    def test_increasing_indices_skip_the_sort(self, monkeypatch):
        # strictly increasing input is used as given; any other is sorted
        # once, and both solve alike
        prob = random_gram_problem(5, 7, Cardinality(2))
        x = np.zeros(5)
        g = prob.objective.gradient(x)
        sorts = []
        unique = np.unique

        def counted(a, *args, **kw):
            sorts.append(a)
            return unique(a, *args, **kw)

        monkeypatch.setattr(np, "unique", counted)
        want = solve_block(prob, x, g, np.array([0, 2, 3]), 1e-3)
        assert sorts == []
        got = solve_block(prob, x, g, [3, 0, 2], 1e-3)
        assert len(sorts) == 1
        assert got.x_next.tobytes() == want.x_next.tobytes()
        assert got.composite_delta == want.composite_delta

    def test_pinned_block_skips_the_enumeration(self):
        # nnz(x) = s and x_B = 0: z_B = 0 is the only pattern, x comes back
        # as a copy, and only a zero block of a full support is pinned
        prob = random_gram_problem(6, 7, Cardinality(2))
        x = np.array([1.0, 0.0, 0.0, -2.0, 0.0, 0.0])
        g = prob.objective.gradient(x)
        result = solve_block(prob, x, g, [1, 2, 4], 1e-3)
        assert result.x_next is not x and result.x_next.tobytes() == x.tobytes()
        assert (result.patterns_evaluated, result.composite_delta) == (1, 0.0)
        assert subproblem_module.is_pinned(prob.term, 2, 0, 3)
        assert not subproblem_module.is_pinned(prob.term, 2, 1, 3)  # x_B != 0
        assert not subproblem_module.is_pinned(prob.term, 1, 0, 3)  # budget 1
        assert not subproblem_module.is_pinned(L0Penalty(0.1), 6, 0, 3)

    def test_unsorted_indices_match_sorted(self):
        # bit j of the pattern mask is the j-th smallest index whatever the
        # input order, so tie-breaking and the result do not depend on it
        Q = np.eye(3)
        p = np.array([-1.0, -1.0, -1.0])
        prob = CompositeProblem(QuadraticObjective(Q=Q, p=p), Cardinality(1))
        x = np.zeros(3)
        want = solve_block(prob, x, prob.objective.gradient(x), [0, 1, 2], 0.0)
        np.testing.assert_allclose(want.x_next, [1.0, 0.0, 0.0])
        for B in ([2, 0, 1], (1, 2, 0), np.array([2, 1, 0])):
            got = solve_block(prob, x, prob.objective.gradient(x), B, 0.0)
            np.testing.assert_array_equal(got.x_next, want.x_next)
            assert got.patterns_evaluated == want.patterns_evaluated
            assert got.composite_delta == want.composite_delta

    def test_wrong_gradient_shape(self):
        prob = random_gram_problem(4, 7, Cardinality(2))
        x = np.zeros(4)
        g = prob.objective.gradient(x)
        for bad in (g[:3], g[:, None], g[:1], np.append(g, 0.0)):
            with pytest.raises(DimensionMismatchError):
                solve_block(prob, x, bad, [0, 1], 1e-3)

    def test_out_of_range_indices(self):
        prob = random_gram_problem(4, 7, Cardinality(2))
        x = np.zeros(4)
        with pytest.raises(DimensionMismatchError):
            solve_block(prob, x, prob.objective.gradient(x), [2, 7], 1e-3)

    def test_negative_theta(self):
        prob = random_gram_problem(4, 8, Cardinality(2))
        x = np.zeros(4)
        for theta in (-0.1, np.inf, np.nan):
            with pytest.raises(InvalidParameterError):
                solve_block(prob, x, prob.objective.gradient(x), [0, 1], theta)

    def test_relaxation_terms_rejected(self):
        rng = np.random.default_rng(9)
        Q = np.eye(3)
        prob = CompositeProblem(QuadraticObjective(Q=Q, p=rng.standard_normal(3)),
                                L1Penalty(0.1))
        with pytest.raises(InvalidParameterError):
            solve_block(prob, np.zeros(3), prob.objective.gradient(np.zeros(3)), [0], 1e-3)


class TestGradientInput:
    @pytest.mark.parametrize("factored", [False, True], ids=["gram", "factored"])
    @pytest.mark.parametrize("term", [Cardinality(3), L0Penalty(0.2)], ids=["cons", "regu"])
    def test_reads_only_the_given_gradient(self, factored, term, monkeypatch):
        # the solve must not rebuild g from products: with every gradient
        # path of the objective broken it returns the same result
        if factored:
            monkeypatch.setattr(problem_module, "_GRAM_CACHE_LIMIT", 0)
            prob, _ = random_factored_problem(9, 8, 3, term)
        else:
            prob = random_gram_problem(8, 3, term)
        rng = np.random.default_rng(3)
        x = np.zeros(8)
        x[rng.choice(8, size=3, replace=False)] = rng.standard_normal(3)
        g = prob.objective.gradient(x)
        B = [0, 2, 3, 6]
        want = solve_block(prob, x, g, B, 1e-3)

        def broken(*args):
            raise AssertionError("solve_block recomputed the gradient")

        for name in ("gradient", "matvec", "linear_term"):
            monkeypatch.setattr(prob.objective, name, broken)
        got = solve_block(prob, x, g, B, 1e-3)
        np.testing.assert_array_equal(got.x_next, want.x_next)
        assert got.patterns_evaluated == want.patterns_evaluated
        assert got.composite_delta == want.composite_delta
        assert not np.array_equal(want.x_next, x)  # the solve moved


class TestGramCacheIndependence:
    @pytest.mark.parametrize("k", [1, 2, 6, 12])
    @pytest.mark.parametrize("term", [Cardinality(5), L0Penalty(0.2)], ids=["cons", "regu"])
    def test_same_result_with_and_without_a_filled_cache(self, k, term):
        # a factored block is read from A: a Gram cache that another caller
        # filled cannot change a solve, and the solve fills none itself
        A, b, _ = gen_random(30, 40, 5, noise_scale=0.5, seed=k)
        fresh = QuadraticObjective(A=A, b=b)
        filled = QuadraticObjective(A=A, b=b)
        filled.gram_matrix()
        rng = np.random.default_rng(k)
        moved = 0
        for _ in range(4):
            x = np.zeros(40)
            x[rng.choice(40, 4, replace=False)] = rng.standard_normal(4)  # budget >= 1
            g = fresh.gradient(x)
            B = np.sort(rng.choice(40, k, replace=False))
            got = solve_block(CompositeProblem(fresh, term), x, g, B, 1e-3)
            want = solve_block(CompositeProblem(filled, term), x, g, B, 1e-3)
            np.testing.assert_array_equal(got.x_next, want.x_next)
            assert got.composite_delta == want.composite_delta
            assert got.patterns_evaluated == want.patterns_evaluated
            moved += not np.array_equal(got.x_next, x)
        assert moved and fresh._Q is None


def _equivalence_case(family, seed):
    """One random block for the engine-versus-loop comparison.

    Designs are 12-column least-squares problems, and seeds cycle through
    k = 1..8, both modes and theta in {0, 1e-3}.  By family:

    * ``random``: half of the designs have 6 rows, so blocks wider than 6
      have singular systems;
    * ``pruned``: x has a full cardinality support, so the budget prunes;
    * ``duplicate``: a block column is copied (sometimes also negated), so
      theta = 0 systems are singular;
    * ``near``: a block column is copied up to a 1e-6..1e-10 perturbation;
    * ``zero``: a block column is zero, so theta = 0 systems are degenerate;
    * ``ties``: even seeds use a diagonal design where every coordinate
      gains exactly 2; odd seeds give one block column the direction of the
      sum of two others, with b fit equally by that one column or by the
      pair, in cardinality mode with s = 2.
    """
    rng = np.random.default_rng(1000 * seed + len(family))
    k = 1 + seed % 8
    mode = ("cons", "regu")[(seed // 8) % 2]
    theta = (0.0, 1e-3)[(seed // 16) % 2]
    n = 12
    m = 6 if family == "random" and (seed // 32) % 2 else 20
    A = rng.standard_normal((m, n))
    b = 3.0 * rng.standard_normal(m)
    B = np.sort(rng.choice(n, size=max(k, 3), replace=False))
    term = Cardinality(5) if mode == "cons" or family == "pruned" else L0Penalty(0.3)
    x = np.zeros(n)
    if isinstance(term, Cardinality):
        nnz = 5 if family == "pruned" else int(rng.integers(0, 6))
        x[rng.choice(n, size=nnz, replace=False)] = rng.standard_normal(nnz)
    else:
        x = rng.standard_normal(n) * rng.integers(0, 2, size=n)
    if family in ("duplicate", "near"):
        A[:, B[1]] = A[:, B[0]]
        if family == "near":
            A[:, B[1]] += 10.0 ** -(6 + seed % 5) * rng.standard_normal(m)
        elif seed % 3 == 0:
            A[:, B[2]] = -A[:, B[0]]
    elif family == "zero":
        A[:, B[-1]] = 0.0
    elif family == "ties" and seed % 2 == 0:
        A = np.diag(rng.uniform(0.5, 2.0, n))
        b = np.full(n, 2.0)
        x = np.zeros(n)
    elif family == "ties":
        A[:, B[2]] = rng.uniform(0.5, 2.0) * (A[:, B[0]] + A[:, B[1]])
        b = A[:, B[0]] + A[:, B[1]]
        term, x = Cardinality(2), np.zeros(n)
    if family != "ties" or seed % 2 == 0:
        B = B[:k]
    prob = CompositeProblem(QuadraticObjective(A=A, b=b), term)
    return prob, x, B, theta


def _outcome(solve, prob, x, g, B, theta):
    try:
        return solve(prob, x, g, B, theta)
    except (DegenerateSystemError, NumericalError) as exc:
        return type(exc)


class TestBatchedEngineMatchesLoop:
    """solve_block against the mask-by-mask loop it replaced, on 392 blocks.

    Both must give the same support, the same pattern count, the same
    exception type, and composite_delta within 1e-12 relative.  On the
    ``near`` family the solutions of systems with condition numbers of 1e12
    and more are rounding noise, so there composite_delta is not compared:
    one of its 32 blocks differs by 2.3e-8 relative.
    """

    FAMILIES = {"random": 160, "pruned": 64, "duplicate": 64, "near": 32,
                "zero": 32, "ties": 40}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_same_outcome(self, family):
        outcomes = set()
        for seed in range(self.FAMILIES[family]):
            prob, x, B, theta = _equivalence_case(family, seed)
            g = prob.objective.gradient(x)
            want = _outcome(reference_solve_block, prob, x, g, B, theta)
            got = _outcome(solve_block, prob, x, g, B, theta)
            where = f"{family} seed {seed}"
            if isinstance(want, type):
                assert got is want, where
                outcomes.add(want.__name__)
                continue
            assert not isinstance(got, type), f"{where}: raised {got.__name__}"
            x_next, evaluated, delta = want
            np.testing.assert_array_equal(np.flatnonzero(got.x_next),
                                          np.flatnonzero(x_next), err_msg=where)
            assert got.patterns_evaluated == evaluated, where
            if family != "near":
                assert got.composite_delta == pytest.approx(delta, rel=1e-12, abs=0.0), where
            outcomes.add("moved" if np.any(x_next != x) else "stayed")
        # each family reaches the outcome it was built for
        expected = {"zero": "DegenerateSystemError", "near": "NumericalError"}
        assert expected.get(family, "moved") in outcomes


class TestTieRulesInMaskOrder:
    def test_ties_go_to_the_lowest_mask(self):
        # every single coordinate gains exactly 2 and the budget is 1: the
        # first of them in mask order wins, whatever the block's order
        prob = CompositeProblem(QuadraticObjective(A=np.diag([0.5, 1.0, 2.0, 4.0]),
                                                   b=np.full(4, 2.0)), Cardinality(1))
        x = np.zeros(4)
        result = solve_block(prob, x, prob.objective.gradient(x), [3, 1, 2], 0.0)
        np.testing.assert_allclose(result.x_next, [0.0, 2.0, 0.0, 0.0])
        assert result.composite_delta == -2.0

    def test_stay_put_is_not_replaced_by_a_negligible_sparser_pattern(self):
        # clearing x_0 = 1e-7 changes F by -5e-15, inside TIE_TOL: x stays,
        # although the cleared point is sparser
        prob = CompositeProblem(QuadraticObjective(Q=np.eye(2), p=np.zeros(2)),
                                Cardinality(1))
        x = np.array([1e-7, 0.0])
        g = prob.objective.gradient(x)
        result = solve_block(prob, x, g, [0, 1], 0.0)
        np.testing.assert_array_equal(result.x_next, x)
        assert result.composite_delta == 0.0
        assert reference_solve_block(prob, x, g, [0, 1], 0.0)[2] == 0.0

    def test_sparser_tie_keeps_the_lower_delta(self):
        # pattern {0, 1} gains 9e-4; the later {2} gains 5e-13 more, inside
        # TIE_TOL, and wins as the sparser one; the reported change is the
        # lower of the two
        s, eps = 0.03, 1e-6
        A = np.array([[s, 0.0, s], [0.0, s, s], [0.0, 0.0, eps]])
        b = A[:, 2].copy()
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), Cardinality(2))
        x = np.zeros(3)
        g = prob.objective.gradient(x)
        result = solve_block(prob, x, g, [0, 1, 2], 0.0)
        np.testing.assert_allclose(result.x_next, [0.0, 0.0, 1.0])
        assert result.composite_delta == pytest.approx(-0.5 * b @ b, rel=1e-12, abs=0.0)
        assert result.composite_delta == pytest.approx(
            reference_solve_block(prob, x, g, [0, 1, 2], 0.0)[2], rel=1e-12, abs=0.0)

    def test_failure_raises_the_error_of_the_lowest_mask(self, monkeypatch):
        # groups fail at masks 4 (r = 1), 3 (r = 2) and 7 (r = 3); the loop
        # would have stopped at mask 3
        engine = subproblem_module.pattern_deltas

        def failing(*args, **kw):
            Z, delta, status = engine(*args, **kw)
            status[:, [4, 3, 7]] = [[NUMERICAL], [DEGENERATE], [NUMERICAL]]
            return Z, delta, status

        monkeypatch.setattr(subproblem_module, "pattern_deltas", failing)
        prob = random_gram_problem(3, 0, L0Penalty(0.1))
        x = np.zeros(3)
        with pytest.raises(DegenerateSystemError, match="degenerate"):
            solve_block(prob, x, prob.objective.gradient(x), [0, 1, 2], 0.0)


# the popcount-2 group of a 4-coordinate block, in mask order
PAIRS = [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]]


def pairs_at_zero(Q, g, theta, pairs, w=2):
    """pattern_deltas on block 0..3 at x = 0, for the pair patterns ``pairs`` as one stack.

    Each pair's system is padded to w x w, as a stack that also holds
    patterns of w coordinates pads it.
    """
    masks = np.array([(1 << i) | (1 << j) for i, j in pairs])
    T = np.hstack((pairs, np.tile(4 + np.arange(2, w), (len(pairs), 1))))
    return subproblem_module.pattern_deltas(Q[None, :4, :4], np.zeros((1, 1, 4)),
                                            g[None, None, :4], theta, 0.0, masks,
                                            [(np.arange(len(T)), T)])


class TestPerSystemRidge:
    """A system that does not factor does not change how its group's others are solved."""

    @pytest.mark.parametrize("seed", range(4))
    def test_only_the_failing_system_is_ridged(self, seed):
        # columns 0 and 1 are equal, with |a|^2 = 4, so {0, 1} has a zero
        # Cholesky pivot; columns 2 and 3 are 1e-3 apart, so {2, 3} factors
        # with condition number 1.2e7.  At theta = 0 each system of the group
        # must come out as it does when solved alone: only {0, 1} ridged
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 6))
        A[:, 0] = A[:, 1] = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        A[:, 2] = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
        A[:, 3] = A[:, 2] + [0.0, 0.0, 0.0, 0.0, 0.0, 1e-3]
        prob = CompositeProblem(QuadraticObjective(A=A, b=rng.standard_normal(6)),
                                Cardinality(2))
        x = np.zeros(6)
        g = prob.objective.gradient(x)
        Q = prob.objective.gram_matrix()
        M = np.array([Q[np.ix_(T, T)] for T in PAIRS])
        failed = subproblem_module._cholesky(M)[1]
        np.testing.assert_array_equal(failed, [True, False, False, False, False, False])
        Z, _, status = pairs_at_zero(Q, g, 0.0, PAIRS)
        assert not status.any()
        for i in range(len(PAIRS)):
            alone, _, _ = pairs_at_zero(Q, g, 0.0, PAIRS[i:i + 1])
            np.testing.assert_array_equal(Z[0, i, 0], alone[0, 0, 0], err_msg=str(PAIRS[i]))
        B = [0, 1, 2, 3]
        x_next, evaluated, delta = reference_solve_block(prob, x, g, B, 0.0)
        got = solve_block(prob, x, g, B, 0.0)
        np.testing.assert_array_equal(np.flatnonzero(got.x_next), np.flatnonzero(x_next))
        assert got.patterns_evaluated == evaluated == 11
        assert got.composite_delta == pytest.approx(delta, rel=1e-9, abs=0.0)

    def test_a_ridged_system_is_not_refined(self):
        # {0, 1, 2} does not factor; ridged, its solution misses the residual
        # bound in the 1e-3 coordinate by a factor of about 10, and a
        # refinement pass with the ridged factor would meet it.  The loop
        # does not refine a ridged system and raises
        Q = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 1e-3]])
        prob = CompositeProblem(QuadraticObjective(Q=Q, p=-np.ones(3)), L0Penalty(0.1))
        x = np.zeros(3)
        g = prob.objective.gradient(x)
        assert _outcome(reference_solve_block, prob, x, g, [0, 1, 2], 0.0) is NumericalError
        with pytest.raises(NumericalError):
            solve_block(prob, x, g, [0, 1, 2], 0.0)

    def test_error_of_the_lowest_failing_system(self):
        # at theta = 1e-300 the duplicated pair {2, 3} (mask 12) does not
        # factor, and the nearly duplicated, inconsistent pair {0, 2}
        # (mask 5) factors but misses its residual bound: the loop stops at
        # mask 5, whose error is not the group's first system's
        d = 2.0 ** -40
        Q = np.array([[4.0 + d, 0.0, 4.0, 4.0], [0.0, 1.0, 0.0, 0.0],
                      [4.0, 0.0, 4.0, 4.0], [4.0, 0.0, 4.0, 4.0]])
        p = np.array([0.3, 0.5, -0.7, -0.7])
        prob = CompositeProblem(QuadraticObjective(Q=Q, p=p), L0Penalty(0.1))
        x = np.zeros(4)
        g = prob.objective.gradient(x)
        theta = 1e-300
        status = pairs_at_zero(Q, g, theta, PAIRS)[2][0, :, 0]
        i = np.flatnonzero(status)[0]
        assert (i, status[i]) == (1, NUMERICAL)
        # first in the stack, the pair that does not factor is charged as
        # degenerate, although its stand-in solution also misses its bound
        status = pairs_at_zero(Q, g, theta, PAIRS[::-1])[2][0, :, 0]
        i = np.flatnonzero(status)[0]
        assert (i, status[i]) == (0, DEGENERATE)
        assert _outcome(reference_solve_block, prob, x, g, [0, 1, 2, 3], theta) is NumericalError
        with pytest.raises(NumericalError):
            solve_block(prob, x, g, [0, 1, 2, 3], theta)


class TestPaddedStacks:
    """Systems padded past their pattern: a stack's width is its largest popcount."""

    @pytest.mark.parametrize("k", [6, 10])
    @pytest.mark.parametrize("theta", [0.0, 1e-3])
    def test_every_budget_below_k(self, k, theta):
        # a cardinality budget of 1..k-1 pads every stack to a width below
        # k; each block must give the loop's support, count and change
        rng = np.random.default_rng(k)
        A, b = rng.standard_normal((30, 16)), rng.standard_normal(30)
        B = np.sort(rng.choice(16, k, replace=False))
        outside = np.setdiff1d(np.arange(16), B)
        for budget in range(1, k):
            prob = CompositeProblem(QuadraticObjective(A=A, b=b), Cardinality(budget + 3))
            x = np.zeros(16)
            x[rng.choice(outside, 3, replace=False)] = rng.standard_normal(3)
            masks, stacks = subproblem_module._whole_block_tables(k, budget)
            assert max(T.shape[1] for _, T in stacks) == budget
            g = prob.objective.gradient(x)
            got = solve_block(prob, x, g, B, theta)
            x_next, evaluated, delta = reference_solve_block(prob, x, g, B, theta)
            np.testing.assert_array_equal(np.flatnonzero(got.x_next), np.flatnonzero(x_next))
            assert got.patterns_evaluated == evaluated == masks.size
            assert got.composite_delta == pytest.approx(delta, rel=1e-12, abs=1e-13)

    def test_stacks_cover_each_admissible_mask_once(self):
        for k, budget in [(6, 6), (6, 2), (10, 10), (12, 5)]:
            masks, stacks = subproblem_module._whole_block_tables(k, budget)
            rows = np.concatenate([rows for rows, _ in stacks])
            np.testing.assert_array_equal(np.sort(rows), np.arange(1, masks.size))
            for rows, T in stacks:
                for mask, t in zip(masks[rows], T):
                    bits = [j for j in range(k) if mask >> j & 1]
                    np.testing.assert_array_equal(t, bits + list(range(k + len(bits), k + len(t))))
        # a whole block up to k = 8 is one stack
        assert all(len(subproblem_module._whole_block_tables(k, k)[1]) == 1 for k in range(1, 9))

    def test_ridge_does_not_touch_the_padding(self, monkeypatch):
        # the duplicated pair {0, 1} does not factor at theta = 0; padded to
        # 4 x 4, its ridge is 1e-12 times the trace over the pair, over 2,
        # added on the pair only, and its solution is the unpadded one
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 4))
        A[:, 0] = A[:, 1] = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        prob = CompositeProblem(QuadraticObjective(A=A, b=rng.standard_normal(6)),
                                L0Penalty(0.1))
        Q, g = prob.objective.gram_matrix(), prob.objective.gradient(np.zeros(4))
        factored = []
        cholesky = subproblem_module._cholesky
        monkeypatch.setattr(subproblem_module, "_cholesky",
                            lambda M: factored.append(M.copy()) or cholesky(M))
        Z, _, status = pairs_at_zero(Q, g, 0.0, PAIRS, w=4)
        assert not status.any()
        ridged = factored[-1]  # the stand-alone failing systems, ridged
        assert len(ridged) == 1
        ridge = 1e-12 * (Q[0, 0] + Q[1, 1]) / 2
        np.testing.assert_array_equal(ridged[0, :2, :2], Q[:2, :2] + ridge * np.eye(2))
        np.testing.assert_array_equal(ridged[0, 2:, 2:], np.eye(2))
        np.testing.assert_array_equal(ridged[0, :2, 2:], 0.0)
        np.testing.assert_array_equal(ridged[0, 2:, :2], 0.0)
        alone, _, _ = pairs_at_zero(Q, g, 0.0, PAIRS)
        np.testing.assert_allclose(Z, alone, rtol=1e-9, atol=0.0)
        np.testing.assert_array_equal(Z[0, 0, 0, 2:], 0.0)


class TestPatternChunks:
    def test_chunked_block_matches_loop(self, monkeypatch):
        # a block spread over several chunks gives the loop's answer
        monkeypatch.setattr(subproblem_module, "PATTERN_CHUNK", 16)
        for seed in range(4):
            prob, x, B, theta = _equivalence_case("random", 8 * seed + 7)
            g = prob.objective.gradient(x)
            x_next, evaluated, delta = reference_solve_block(prob, x, g, B, theta)
            got = solve_block(prob, x, g, B, theta)
            np.testing.assert_array_equal(np.flatnonzero(got.x_next), np.flatnonzero(x_next))
            assert got.patterns_evaluated == evaluated
            assert got.composite_delta == pytest.approx(delta, rel=1e-12, abs=0.0)

    def test_chunks_above_the_budget_are_skipped(self, monkeypatch):
        # k = 20 and budget 1: of the 256 chunks of 4096 masks only the 9
        # whose shared high bits number at most one can hold a pattern
        rng = np.random.default_rng(5)
        prob = CompositeProblem(QuadraticObjective(A=rng.standard_normal((30, 24)),
                                                   b=rng.standard_normal(30)),
                                Cardinality(3))
        x = np.zeros(24)
        x[[21, 23]] = 1.0
        g = prob.objective.gradient(x)
        built = []
        build = subproblem_module._pattern_tables
        monkeypatch.setattr(subproblem_module, "_pattern_tables",
                            lambda *args: built.append(args) or build(*args))
        result = solve_block(prob, x, g, np.arange(20), 1e-3)
        assert len(built) == 9
        x_next, evaluated, delta = reference_solve_block(prob, x, g, np.arange(20), 1e-3)
        assert result.patterns_evaluated == evaluated == 21
        np.testing.assert_array_equal(np.flatnonzero(result.x_next), np.flatnonzero(x_next))
        assert result.composite_delta == pytest.approx(delta, rel=1e-12, abs=0.0)

    def test_memory_does_not_grow_with_pattern_count(self):
        """One penalized k = 16 solve (65,536 patterns) peaks below 16 MB.

        Measured under tracemalloc with numpy 2.4.6: 6.5 MB with the default
        4096-mask chunks, and 46 MB when all 65,536 masks are solved as one
        chunk, which is what this bound exists to catch.
        """
        rng = np.random.default_rng(0)
        prob = CompositeProblem(QuadraticObjective(A=rng.standard_normal((40, 16)),
                                                   b=rng.standard_normal(40)),
                                L0Penalty(0.5))
        x = rng.standard_normal(16) * (rng.random(16) < 0.5)
        g = prob.objective.gradient(x)
        tracemalloc.start()
        try:
            result = solve_block(prob, x, g, np.arange(16), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.patterns_evaluated == 1 << 16
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
