"""Exact block solves against independent per-pattern enumeration oracles."""

import itertools

import numpy as np
import pytest

from blockdec import problem as problem_module
from blockdec import (Cardinality, CompositeProblem, DimensionMismatchError,
                      InvalidParameterError, L0Penalty, L1Penalty,
                      QuadraticObjective, composite_value, solve_block)

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
        with pytest.raises(InvalidParameterError):
            solve_block(prob, x, prob.objective.gradient(x), [0, 1], -0.1)

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
