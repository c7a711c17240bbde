"""The outer decomposition loop: stopping rule, descent, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import (Cardinality, CompositeProblem, DecConfig,
                      InvalidParameterError, L0Penalty, QuadraticObjective,
                      composite_value, init_solution, relative_drop, run_dec,
                      solve_block, stopping_rule)
from blockdec import dec as dec_module

from conftest import (CONS_GLOBAL_F, CONS_GLOBAL_X, REGU_GLOBAL_F, count_calls,
                      random_factored_problem, random_gram_problem)


class TestStoppingRule:
    def test_waits_for_full_window(self):
        assert not stopping_rule([0.0] * 9, 10, 1e-5)
        assert stopping_rule([0.0] * 10, 10, 1e-5)

    def test_all_zero_drops_fire(self):
        assert stopping_rule([0.0] * 50, 50, 1e-5)

    def test_constant_drops_above_epsilon_do_not_fire(self):
        assert not stopping_rule([2e-5] * 80, 50, 1e-5)

    def test_mean_matches_direct_recomputation(self):
        rng = np.random.default_rng(0)
        drops = list(rng.uniform(0, 3e-5, size=200))
        for w in (1, 10, 50):
            got = stopping_rule(drops, w, 1e-5)
            assert got == (np.mean(drops[-w:]) <= 1e-5)

    @given(st.lists(st.floats(0, 1e-3), min_size=1, max_size=120),
           st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_reference_mean(self, drops, window):
        got = stopping_rule(drops, window, 1e-5)
        if len(drops) < window:
            assert not got
        else:
            assert got == (float(np.mean(drops[-window:])) <= 1e-5)


class TestRelativeDrop:
    def test_positive_denominator(self):
        assert relative_drop(10.0, 9.0) == pytest.approx(0.1)

    def test_negative_objective_uses_magnitude(self):
        # descent through negative values must still yield nonnegative drops
        assert relative_drop(-2.0, -2.5) == pytest.approx(0.25)

    def test_zero_denominator(self):
        assert relative_drop(0.0, 0.0) == 0.0


class TestInitSolution:
    def test_cardinality_projected_to_s_nonzeros(self):
        for seed in range(20):
            x = init_solution(50, Cardinality(7), seed)
            assert np.count_nonzero(x) == 7

    def test_magnitude_bound(self):
        for seed in range(100):
            x = init_solution(30, L0Penalty(0.1), seed)
            assert np.max(np.abs(x)) <= 1e-5

    def test_deterministic(self):
        a = init_solution(12, Cardinality(4), 9)
        b = init_solution(12, Cardinality(4), 9)
        np.testing.assert_array_equal(a, b)


class TestRunDec:
    def test_reaches_global_on_demo_cons_all_seeds(self, demo_cons):
        for seed in range(5):
            x0 = init_solution(6, demo_cons.term, seed)
            config = DecConfig(n_random=2, n_greedy=1, seed=seed)
            x, trace = run_dec(demo_cons, x0, config)
            assert trace.final_objective == pytest.approx(CONS_GLOBAL_F, abs=1e-6)
            np.testing.assert_allclose(np.sort(np.flatnonzero(x)), [0, 1, 2, 5])
            np.testing.assert_allclose(x, CONS_GLOBAL_X, atol=1e-5)

    def test_final_objective_matches_recomputation(self, demo_regu):
        x0 = init_solution(6, demo_regu.term, 0)
        x, trace = run_dec(demo_regu, x0, DecConfig(n_random=3, n_greedy=1, seed=0))
        assert trace.final_objective == pytest.approx(
            composite_value(demo_regu, x), rel=1e-10, abs=1e-10)

    def test_sufficient_decrease_every_iteration(self):
        # F(x_{t+1}) + (theta/2)||step||^2 <= F(x_t), recomputed from traces
        for seed in range(3):
            prob, _ = random_factored_problem(12, 20, seed, Cardinality(4))
            x0 = init_solution(20, prob.term, seed)
            config = DecConfig(n_random=3, n_greedy=2, seed=seed, max_iters=200)
            x, trace = run_dec(prob, x0, config)
            objs = [r.objective for r in trace.records] + [trace.final_objective]
            for t, rec in enumerate(trace.records):
                lhs = objs[t + 1] + 0.5 * config.theta * rec.step_norm ** 2
                assert lhs <= objs[t] + 1e-10

    def test_monotone_objectives(self):
        prob, _ = random_factored_problem(10, 16, 5, L0Penalty(0.2))
        x0 = init_solution(16, prob.term, 5)
        x, trace = run_dec(prob, x0, DecConfig(n_random=4, n_greedy=0, seed=5,
                                               max_iters=150))
        objs = trace.objectives()
        assert np.all(np.diff(objs) <= 0.0)

    def test_cardinality_iterates_feasible(self):
        prob, _ = random_factored_problem(10, 14, 7, Cardinality(3))
        x0 = init_solution(14, prob.term, 7)

        config = DecConfig(n_random=4, n_greedy=1, seed=7, max_iters=120)
        x, trace = run_dec(prob, x0, config)
        assert np.count_nonzero(x) <= 3

    @pytest.mark.parametrize("term", [Cardinality(3), L0Penalty(0.5)], ids=["cons", "regu"])
    def test_one_gradient_per_point(self, term, monkeypatch):
        # g is computed at the start and after each move, never on a zero
        # step, and every block solve receives the gradient at its own x
        prob, _ = random_factored_problem(10, 16, 4, term)
        fresh = []

        def checked_solve(prob, x, g, B, theta):
            fresh.append(np.array_equal(g, QuadraticObjective.gradient(prob.objective, x)))
            return solve_block(prob, x, g, B, theta)

        monkeypatch.setattr(dec_module, "solve_block", checked_solve)
        calls = count_calls(prob.objective, "gradient")
        x0 = init_solution(16, term, 4)
        x, trace = run_dec(prob, x0, DecConfig(n_random=3, n_greedy=2, seed=4,
                                               max_iters=80))
        moves = sum(r.step_norm > 0.0 for r in trace.records)
        assert 0 < moves < len(trace)
        assert len(calls) == 1 + moves
        assert fresh and all(fresh)

    def test_gradient_renewed_after_an_underflowing_step(self):
        # clearing entries of 1e-170 is a move whose step_norm squares to
        # 0.0; the gradient must still follow x
        prob = CompositeProblem(QuadraticObjective(Q=np.eye(4), p=np.zeros(4)),
                                L0Penalty(1.0))
        calls = count_calls(prob.objective, "gradient")
        x, trace = run_dec(prob, np.full(4, 1e-170),
                           DecConfig(n_random=4, n_greedy=0, max_iters=3))
        assert trace.records[0].step_norm == 0.0
        np.testing.assert_array_equal(x, np.zeros(4))
        assert len(calls) == 2

    def test_underflowing_full_block_move_does_not_settle(self, monkeypatch):
        # the first full-block solve clears 1e-170 entries (step_norm 0.0);
        # only the second, which leaves x alone, may settle the run
        prob = CompositeProblem(QuadraticObjective(Q=np.eye(4), p=np.zeros(4)),
                                L0Penalty(1.0))
        solves = []

        def counted_solve(*args):
            solves.append(args)
            return solve_block(*args)

        monkeypatch.setattr(dec_module, "solve_block", counted_solve)
        x, trace = run_dec(prob, np.full(4, 1e-170),
                           DecConfig(n_random=4, n_greedy=0, max_iters=3))
        assert [r.step_norm for r in trace.records] == [0.0, 0.0, 0.0]
        assert len(solves) == 2
        np.testing.assert_array_equal(solves[1][1], np.zeros(4))

    def test_infeasible_start_rejected(self, demo_cons):
        with pytest.raises(InvalidParameterError):
            run_dec(demo_cons, np.ones(6), DecConfig(n_random=2, n_greedy=0))

    def test_stationary_start_with_full_block_stays_put(self, demo_cons):
        x0 = CONS_GLOBAL_X.copy()
        config = DecConfig(n_random=6, n_greedy=0, seed=0)
        x, trace = run_dec(demo_cons, x0, config)
        np.testing.assert_allclose(x, x0, atol=1e-12)
        assert trace.status == "converged"
        assert all(r.step_norm <= 1e-12 for r in trace.records)

    def test_max_iters_one_records_single_solve(self, demo_cons):
        x0 = init_solution(6, demo_cons.term, 0)
        config = DecConfig(n_random=3, n_greedy=0, seed=0, max_iters=1)
        x, trace = run_dec(demo_cons, x0, config)
        assert len(trace) == 1
        assert trace.status == "max_iters"

    def test_deterministic_given_seed(self):
        prob, _ = random_factored_problem(8, 12, 2, Cardinality(3))
        x0 = init_solution(12, prob.term, 2)
        cfg = DecConfig(n_random=2, n_greedy=2, seed=11, max_iters=60)
        x1, t1 = run_dec(prob, x0, cfg)
        x2, t2 = run_dec(prob, x0, cfg)
        np.testing.assert_array_equal(x1, x2)
        assert [r.working_set for r in t1.records] == [r.working_set for r in t2.records]

    def test_trace_working_sets_have_requested_size(self):
        prob, _ = random_factored_problem(8, 12, 3, Cardinality(3))
        x0 = init_solution(12, prob.term, 3)
        x, trace = run_dec(prob, x0, DecConfig(n_random=3, n_greedy=2, seed=3,
                                               max_iters=60))
        assert all(len(r.working_set) == 5 for r in trace.records)

    def test_reaches_global_on_demo_regu_most_seeds(self, demo_regu):
        # k = 4 blocks escape the runner-up; expect the global on these seeds
        hits = 0
        for seed in range(5):
            x0 = init_solution(6, demo_regu.term, seed)
            x, trace = run_dec(demo_regu, x0,
                               DecConfig(n_random=3, n_greedy=1, seed=seed))
            if trace.final_objective == pytest.approx(REGU_GLOBAL_F, abs=1e-6):
                hits += 1
        assert hits >= 3

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            DecConfig(n_random=0, n_greedy=0)
        with pytest.raises(InvalidParameterError):
            DecConfig(theta=0.0)
        with pytest.raises(InvalidParameterError):
            DecConfig(epsilon=-1.0)
        with pytest.raises(InvalidParameterError):
            DecConfig(window=0)
        with pytest.raises(InvalidParameterError):
            DecConfig(max_iters=0)
