"""Working-set selection: uniformity, greedy scores, merged ranking."""

from math import comb

import numpy as np
import pytest

from blockdec import (Cardinality, CompositeProblem, InvalidParameterError,
                      L0Penalty, L1Penalty, QuadraticObjective,
                      composite_value, greedy_scores, random_set,
                      select_working_set)

from conftest import random_gram_problem


def at_zero(prob):
    """The point x = 0 and the gradient there."""
    x = np.zeros(prob.n)
    return x, prob.objective.gradient(x)


class TestRandomSet:
    def test_all_combinations_reachable(self):
        # with enough draws every C(5,2) = 10 pair appears
        rng = np.random.default_rng(0)
        seen = {tuple(random_set(5, 2, rng)) for _ in range(500)}
        assert len(seen) == comb(5, 2)

    def test_roughly_uniform(self):
        rng = np.random.default_rng(1)
        counts = {}
        trials = 6000
        for _ in range(trials):
            key = tuple(random_set(4, 2, rng))
            counts[key] = counts.get(key, 0) + 1
        expect = trials / comb(4, 2)
        for key, c in counts.items():
            assert abs(c - expect) < 5 * np.sqrt(expect), (key, c)

    def test_sorted_distinct_ints(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ws = random_set(9, 4, rng)
            assert ws.dtype.kind == "i"
            assert list(ws) == sorted(set(ws.tolist())) and len(ws) == 4

    def test_size_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidParameterError):
            random_set(4, 0, rng)
        with pytest.raises(InvalidParameterError):
            random_set(4, 5, rng)


class TestGreedyScores:
    def _one_coordinate_oracle(self, Q, p, x, i):
        """Best smooth-objective change from moving only coordinate i.

        Dense vectorized scan, no package code involved.
        """
        grid = np.linspace(-8, 8, 640001)
        X = np.tile(x, (grid.size, 1))
        X[:, i] = grid
        vals = 0.5 * np.einsum("ij,ij->i", X @ Q, X) + X @ p
        base = 0.5 * x @ Q @ x + p @ x
        return min(0.0, float(np.min(vals)) - base)

    def test_zero_coordinate_scores_cardinality(self):
        prob = random_gram_problem(5, 3, Cardinality(5))
        x = np.zeros(5)
        g = prob.objective.gradient(x)
        scores = greedy_scores(prob, x, g)
        assert scores.shape == (5,)
        q = prob.objective.coordinate_lipschitz()
        Q = prob.objective.gram_matrix()
        p = prob.objective.linear_term()
        for i in range(5):
            # closed form -g^2/(2q) equals the dense one-coordinate scan
            assert scores[i] == pytest.approx(-g[i] ** 2 / (2 * q[i]), rel=1e-12)
            oracle = self._one_coordinate_oracle(Q, p, x, i)
            assert scores[i] == pytest.approx(oracle, abs=1e-7)

    def test_nonzero_coordinate_scores_match_zeroing(self):
        rng = np.random.default_rng(4)
        prob = random_gram_problem(5, 5, L0Penalty(0.3))
        x = rng.standard_normal(5)
        scores = greedy_scores(prob, x, prob.objective.gradient(x))
        assert scores.shape == (5,)
        base = composite_value(prob, x)
        for j in range(5):
            z = x.copy()
            z[j] = 0.0
            assert scores[j] == pytest.approx(composite_value(prob, z) - base,
                                                rel=1e-9, abs=1e-9)

    def test_penalty_zero_scores_clipped_at_zero(self):
        # a coordinate whose activation gain does not cover lam scores 0
        # (Q = I, p = -b)
        prob = CompositeProblem(QuadraticObjective(A=np.eye(2), b=np.array([0.1, 3.0])),
                                L0Penalty(0.5))
        scores = greedy_scores(prob, *at_zero(prob))
        assert scores[0] == 0.0  # 0.5 - 0.005 > 0, clipped
        assert scores[1] == pytest.approx(0.5 - 4.5)

    def test_all_c_nonpositive_property(self):
        for seed in range(5):
            for term in (Cardinality(3), L0Penalty(0.2)):
                prob = random_gram_problem(6, 20 + seed, term)
                scores = greedy_scores(prob, *at_zero(prob))
                assert np.all(scores <= 0.0)

    def test_flat_coordinate_with_slope_is_minus_infinity(self):
        # column 1's curvature Q_11 = 1e-340 underflows to 0, its slope
        # g_1 = -1e-170 * 1e160 does not
        A = np.array([[0.0, 1e-170], [1.0, 0.0]])
        prob = CompositeProblem(QuadraticObjective(A=A, b=np.array([1e160, 0.0])),
                                Cardinality(2))
        x, g = at_zero(prob)
        assert prob.objective.coordinate_lipschitz()[1] == 0.0 and g[1] != 0.0
        scores = greedy_scores(prob, x, g)
        assert scores[1] == -np.inf

    def test_relaxation_rejected(self):
        prob = CompositeProblem(QuadraticObjective(A=np.eye(2), b=np.zeros(2)), L1Penalty(0.1))
        with pytest.raises(InvalidParameterError):
            greedy_scores(prob, *at_zero(prob))


class TestSelectWorkingSet:
    def test_pure_greedy_picks_best_scores(self):
        # equispaced gradient magnitudes make the ranking unambiguous
        # (Q = I, p = -b)
        prob = CompositeProblem(QuadraticObjective(A=np.eye(4), b=np.array([4.0, 1.0, 3.0, 2.0])),
                                Cardinality(4))
        rng = np.random.default_rng(0)
        ws = select_working_set(prob, *at_zero(prob), 0, 2, rng)
        assert ws.tolist() == [0, 2]  # scores -8, -0.5, -4.5, -2

    def test_greedy_ties_break_to_lower_index(self):
        prob = CompositeProblem(QuadraticObjective(A=np.eye(3), b=np.full(3, 2.0)),
                                Cardinality(3))
        rng = np.random.default_rng(0)
        ws = select_working_set(prob, *at_zero(prob), 0, 2, rng)
        assert ws.tolist() == [0, 1]

    def test_mixed_contains_greedy_part(self):
        prob = random_gram_problem(8, 30, Cardinality(8))
        rng = np.random.default_rng(5)
        scores = greedy_scores(prob, *at_zero(prob))
        best = min(range(8), key=lambda i: (scores[i], i))
        for _ in range(10):
            ws = select_working_set(prob, *at_zero(prob), 3, 1, rng)
            assert len(ws) == 4
            assert best in ws

    def test_full_request_shortcircuits(self):
        prob = random_gram_problem(5, 31, Cardinality(5))

        class Boom:
            def choice(self, *a, **k):  # pragma: no cover
                raise AssertionError("rng must not be consumed for a full block")

        ws = select_working_set(prob, *at_zero(prob), 5, 0, Boom())
        assert ws.tolist() == [0, 1, 2, 3, 4]

    def test_random_part_avoids_greedy_picks(self):
        prob = random_gram_problem(6, 32, Cardinality(6))
        greedy = select_working_set(prob, *at_zero(prob), 0, 2, None).tolist()
        rng = np.random.default_rng(7)
        for _ in range(50):
            ws = select_working_set(prob, *at_zero(prob), 2, 2, rng).tolist()
            assert ws == sorted(set(ws)) and len(ws) == 4
            assert set(greedy) <= set(ws)

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_random_draws_like_random_set(self, seed):
        # the random part consumes the rng exactly as random_set does, so
        # traces for a seed do not depend on how the pool is represented
        prob = random_gram_problem(9, 35, L0Penalty(0.1))
        for k in (1, 4, 8):
            got = select_working_set(prob, *at_zero(prob), k, 0, np.random.default_rng(seed))
            want = random_set(9, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)

    def test_size_validation(self):
        prob = random_gram_problem(4, 33, Cardinality(4))
        rng = np.random.default_rng(8)
        with pytest.raises(InvalidParameterError):
            select_working_set(prob, *at_zero(prob), 0, 0, rng)
        with pytest.raises(InvalidParameterError):
            select_working_set(prob, *at_zero(prob), 3, 2, rng)
        with pytest.raises(InvalidParameterError):
            select_working_set(prob, *at_zero(prob), -1, 2, rng)

    def test_deterministic_given_seed(self):
        prob = random_gram_problem(7, 34, L0Penalty(0.1))
        seq1 = [select_working_set(prob, *at_zero(prob), 2, 1,
                                   np.random.default_rng(42)).tolist()
                for _ in range(1)]
        seq2 = [select_working_set(prob, *at_zero(prob), 2, 1,
                                   np.random.default_rng(42)).tolist()
                for _ in range(1)]
        assert seq1 == seq2
