"""The outer decomposition loop: stopping rule, descent, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import (Cardinality, CompositeProblem, DecConfig, DimensionMismatchError,
                      InvalidParameterError, L0Penalty, QuadraticObjective, apgm,
                      composite_value, greedy_scores, init_solution, pgm, relative_drop,
                      run_dec, select_working_set, solve_block, stopping_rule)
from blockdec import dec as dec_module
from blockdec.dec import check_stopping
from blockdec import working_set as working_set_module

from conftest import (CONS_GLOBAL_F, CONS_GLOBAL_X, REGU_GLOBAL_F, factor_gram,
                      random_factored_problem)

EPS = np.finfo(float).eps


def carried_residual_bound(A, b, points, k):
    """Entrywise bound on |r - (Ax - b)| at the last of ``points``, r carried from the first.

    To first order in eps: the residual formed at the first point is within
    (n + 1) eps S of its exact value, and each of the len(points) - 1 moves
    on a block of k coordinates adds at most 3 (k + 1) eps S, where S is the
    largest entry of |A| |x| + |b| over the points (``run_dec``'s docstring).
    """
    S = max(np.max(np.abs(A) @ np.abs(x) + np.abs(b)) for x in points)
    return (A.shape[1] + 1 + 3 * (k + 1) * (len(points) - 1)) * EPS * S


def carried_gradient_bound(A, b, points, k):
    """Entrywise bound on |A'r - A'(Ax - b)| between a carried r and a fresh one.

    Both residuals are within ``carried_residual_bound`` of the exact one,
    and each product A'r adds at most m eps |A|'|r|.
    """
    x = points[-1]
    drift = carried_residual_bound(A, b, points, k) + carried_residual_bound(A, b, [x], k)
    return np.abs(A).T @ (drift + 2 * A.shape[0] * EPS * np.abs(A @ x - b))


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
        # the solvers pass a slice of their drop buffer, not a list
        buffer = np.append(drops, np.full(7, np.nan))
        assert stopping_rule(buffer[:len(drops)], window, 1e-5) == got

    @pytest.mark.parametrize("solve", [
        lambda prob, x0, window: run_dec(prob, x0, DecConfig(n_random=4, n_greedy=0,
                                                             window=window, max_iters=5000)),
        lambda prob, x0, window: pgm(prob, x0, window=window, max_iters=5000),
    ], ids=["dec", "pgm"])
    def test_window_longer_than_the_first_buffer(self, solve):
        # the first move's drop keeps the window mean above epsilon until
        # the window slides past it, beyond the drop buffer's first 1024
        prob = CompositeProblem(QuadraticObjective(A=np.eye(4), b=np.arange(1.0, 5.0)),
                                L0Penalty(0.1))
        window = 1100
        x, trace = solve(prob, np.ones(4), window)
        objs = [r.objective for r in trace.records] + [trace.final_objective]
        drops = [relative_drop(f, g) for f, g in zip(objs, objs[1:])]
        stop = next(t for t in range(window - 1, len(drops))
                    if np.mean(drops[t + 1 - window:t + 1]) <= 1e-5)
        assert trace.status == "converged" and len(trace) == stop + 1 > 1024


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
    def test_one_gradient_per_point(self, term, monkeypatch, count_calls):
        # g is computed at the start and after each move, never on a zero
        # step.  Every block solve receives A'r for the residual r carried
        # from x0, which agrees with the fresh A'(Ax - b) at its own x within
        # the carry's rounding bound
        prob, _ = random_factored_problem(10, 16, 4, term)
        A, b = prob.objective.A, prob.objective.b
        handed = []

        def checked_solve(prob, x, g, B, theta):
            handed.append((x.copy(), g.copy()))
            return solve_block(prob, x, g, B, theta)

        monkeypatch.setattr(dec_module, "solve_block", checked_solve)
        calls = count_calls(prob.objective, "gradient")
        x0 = init_solution(16, term, 4)
        x, trace = run_dec(prob, x0, DecConfig(n_random=3, n_greedy=2, seed=4,
                                               max_iters=80))
        moves = sum(r.step_norm > 0.0 for r in trace.records)
        assert 0 < moves < len(trace)
        assert len(calls) == 1 + moves
        points = []
        for x, g in handed:
            if not points or not np.array_equal(x, points[-1]):
                points.append(x)
            fresh = QuadraticObjective.gradient(prob.objective, x)
            assert np.all(np.abs(g - fresh) <= carried_gradient_bound(A, b, points, 5))
        assert len(points) == 1 + moves

    @pytest.mark.parametrize("term", [Cardinality(3), L0Penalty(0.5)], ids=["cons", "regu"])
    def test_one_residual_per_point(self, term, count_calls):
        # F(x0) and the first gradient share the one residual formed at x0;
        # after each move the residual is carried, never formed afresh
        prob, _ = random_factored_problem(10, 16, 4, term)
        residuals = count_calls(prob.objective, "residual")
        gradients = count_calls(prob.objective, "gradient")
        carried = count_calls(prob.objective, "moved_residual")
        x0 = init_solution(16, term, 4)
        x, trace = run_dec(prob, x0, DecConfig(n_random=3, n_greedy=2, seed=4, max_iters=80))
        moves = sum(r.step_norm > 0.0 for r in trace.records)
        assert 0 < moves < len(trace)
        assert len(gradients) == 1 + moves
        assert len(carried) == moves
        assert len(residuals) == 1
        np.testing.assert_array_equal(residuals[0][0], x0)

    def test_carried_residual_drift_is_bounded(self, monkeypatch):
        # a long penalized run from the dense default start moves on most
        # iterations; its carried residual stays within the rounding bound
        # of Ax - b, and F accumulated from the block changes matches a fresh F
        prob, _ = random_factored_problem(40, 120, 3, L0Penalty(0.05))
        A, b = prob.objective.A, prob.objective.b
        points, carried = [], []
        move = prob.objective.moved_residual

        def recorded_move(r, idx, d):
            carried.append(move(r, idx, d))
            return carried[-1]

        def recorded_solve(prob, x, g, B, theta):
            if not points or not np.array_equal(x, points[-1]):
                points.append(x.copy())
            return solve_block(prob, x, g, B, theta)

        monkeypatch.setattr(prob.objective, "moved_residual", recorded_move)
        monkeypatch.setattr(dec_module, "solve_block", recorded_solve)
        x, trace = run_dec(prob, init_solution(120, prob.term, 3),
                           DecConfig(n_random=4, n_greedy=2, seed=3, max_iters=1000,
                                     window=1000))
        assert len(trace) == 1000
        if not np.array_equal(x, points[-1]):
            points.append(x)
        assert len(carried) == len(points) - 1 > 500
        drift = np.abs(carried[-1] - (A @ x - b))
        assert np.all(drift <= carried_residual_bound(A, b, points, 6))
        assert trace.final_objective == pytest.approx(composite_value(prob, x), rel=1e-9)

    @pytest.mark.parametrize("n,split", [(16, (3, 2)), (16, (0, 3)), (8, (8, 0)),
                                         (8, (6, 2)), (16, (5, 0))],
                             ids=["R3G2", "R0G3", "full", "R6G2-full", "R5G0"])
    @pytest.mark.parametrize("term", [Cardinality(3), L0Penalty(0.5)], ids=["cons", "regu"])
    def test_greedy_ranked_once_per_point(self, term, n, split, count_calls):
        # the scores are ranked at the start and after each move, never on a
        # zero step, and never when no greedy pick is asked for; the loop
        # still selects through dec's binding once per iteration
        prob, _ = random_factored_problem(10, n, 4, term)
        x0 = init_solution(n, Cardinality(1) if isinstance(term, Cardinality) else term, 4)
        ranked = count_calls(working_set_module, "greedy_scores")
        selects = count_calls(dec_module, "select_working_set")
        n_random, n_greedy = split
        x, trace = run_dec(prob, x0, DecConfig(n_random=n_random, n_greedy=n_greedy,
                                               seed=4, max_iters=80))
        moves = sum(r.step_norm > 0.0 for r in trace.records)
        assert len(selects) == len(trace)
        if n_greedy and n_random + n_greedy < n:
            assert 0 < moves < len(trace)
            assert len(ranked) == 1 + moves
        else:
            assert ranked == []

    def test_counters_are_undone_after_the_test(self):
        # runs after test_greedy_ranked_once_per_point, which counted both
        # names: each is the original function again
        assert dec_module.select_working_set is select_working_set
        assert working_set_module.greedy_scores is greedy_scores

    def test_gradient_renewed_after_an_underflowing_step(self, count_calls):
        # clearing entries of 1e-170 is a move whose step_norm squares to
        # 0.0; the gradient must still follow x
        prob = CompositeProblem(QuadraticObjective(A=np.eye(4), b=np.zeros(4)),
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
        prob = CompositeProblem(QuadraticObjective(A=np.eye(4), b=np.zeros(4)),
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

    @pytest.mark.parametrize("theta", [np.inf, np.nan])
    def test_theta_must_be_finite(self, theta):
        with pytest.raises(InvalidParameterError, match="theta"):
            DecConfig(theta=theta)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_an_integer_at_least_0(self, seed):
        # numpy's generators would fail on it later, with their own error
        with pytest.raises(InvalidParameterError, match="seed"):
            DecConfig(seed=seed)

    @pytest.mark.parametrize("stop", [dict(window=0), dict(window=-5), dict(epsilon=-1.0),
                                      dict(epsilon=np.nan), dict(max_iters=0)],
                             ids=["window-0", "window-neg", "epsilon-neg", "epsilon-nan",
                                  "max-iters-0"])
    def test_stopping_settings_checked_alike(self, stop):
        # dec and the proximal-gradient baselines share one check
        settings = {"epsilon": 1e-5, "window": 50, "max_iters": 1000, **stop}
        with pytest.raises(InvalidParameterError) as from_config:
            DecConfig(**stop)
        with pytest.raises(InvalidParameterError) as from_check:
            check_stopping(**settings)
        assert str(from_config.value) == str(from_check.value)


# every iterative solver, from a start point
START_SOLVERS = {
    "dec": lambda prob, x0: run_dec(prob, x0, DecConfig(n_random=2, n_greedy=1, max_iters=20)),
    "pgm": lambda prob, x0: pgm(prob, x0, max_iters=20),
    "apgm": lambda prob, x0: apgm(prob, x0, max_iters=20),
}


class TestStartContract:
    """Every iterative solver rejects a bad start alike: the check is ``iterate``'s."""

    @pytest.mark.parametrize("term", [Cardinality(2), L0Penalty(0.5)], ids=["cons", "regu"])
    @pytest.mark.parametrize("name", list(START_SOLVERS))
    def test_bad_start_is_rejected_alike(self, name, term):
        prob, _ = random_factored_problem(6, 8, 4, term)
        solve = START_SOLVERS[name]
        for x0 in (np.zeros(7), np.zeros((8, 1)), np.zeros((2, 4))):
            with pytest.raises(DimensionMismatchError, match=r"^x0 has shape .*, expected \(8,\)$"):
                solve(prob, x0)
        if isinstance(term, Cardinality):
            with pytest.raises(InvalidParameterError,
                               match=r"^infeasible start: 8 nonzeros exceed budget 2$"):
                solve(prob, np.ones(8))
        else:  # a penalty has no budget: the dense start runs
            x, trace = solve(prob, np.ones(8))
            assert trace.records[0].objective == composite_value(prob, np.ones(8))


def reranking_select(prob, x, g, n_random, n_greedy, rng, picks=None):
    """The selection rule with a full lexsort of the scores on every call.

    Ignores the picks and pool that the loop builds once per point, so a run
    through it ranks, and builds its pool, on every iteration.
    """
    n = prob.n
    if n_random + n_greedy == n:
        return np.arange(n)
    taken = np.zeros(n, dtype=bool)
    if n_greedy:
        taken[np.lexsort((np.arange(n), greedy_scores(prob, x, g)))[:n_greedy]] = True
    if n_random:
        pool = np.flatnonzero(~taken)
        taken[pool[rng.choice(pool.size, size=n_random, replace=False)]] = True
    return np.flatnonzero(taken)


class TestRankedOncePerPoint:
    @pytest.mark.parametrize("split", [(4, 2), (0, 6), (6, 0)], ids=["R4G2", "R0G6", "R6G0"])
    @pytest.mark.parametrize("term", [Cardinality(5), L0Penalty(0.5)], ids=["cons", "regu"])
    def test_identical_to_reranking_every_iteration(self, term, split, monkeypatch):
        prob, _ = random_factored_problem(20, 60, 3, term)
        # a cardinality start below the bound leaves pure greedy a budget
        x0 = init_solution(60, Cardinality(2) if isinstance(term, Cardinality) else term, 3)
        config = DecConfig(n_random=split[0], n_greedy=split[1], seed=3, max_iters=300)
        x, trace = run_dec(prob, x0, config)
        monkeypatch.setattr(dec_module, "select_working_set", reranking_select)
        x_ref, ref = run_dec(prob, x0, config)
        assert x.tobytes() == x_ref.tobytes()
        assert len(trace) == len(ref) and trace.status == ref.status
        for r, q in zip(trace.records, ref.records):
            assert (r.objective, r.step_norm, r.working_set) == \
                (q.objective, q.step_norm, q.working_set)
        assert trace.final_objective == ref.final_objective
        # zero steps reuse the picks; moves rank afresh
        moves = sum(r.step_norm > 0.0 for r in trace.records)
        assert 0 < moves < len(trace)


def reference_dec(prob, x0, config):
    """``run_dec`` as a plain loop; returns (x, records, status, final F, pinned).

    It selects through the public ``select_working_set`` with no pool,
    calls ``solve_block`` on every iteration (a pinned block and a settled
    full block included), forms every step norm and stops on ``np.mean``.
    It carries the residual as ``run_dec`` does, so the gradients agree to
    the bit.  ``pinned`` counts the iterations whose block had z_B = x_B = 0
    as its only pattern: a cap at s, nnz(x) = s and x_B = 0.
    """
    objective = prob.objective
    x = np.array(x0, dtype=float)
    r = objective.residual(x)
    f = composite_value(prob, x, r=r)
    g = objective.gradient(x, r=r)
    rng = np.random.default_rng(config.seed)
    records, drops, status, pinned = [], [], "max_iters", 0
    for _ in range(config.max_iters):
        B = select_working_set(prob, x, g, config.n_random, config.n_greedy, rng)
        pinned += (isinstance(prob.term, Cardinality) and np.count_nonzero(x) == prob.term.s
                   and not x[B].any())
        result = solve_block(prob, x, g, B, config.theta)
        f_next = f + result.composite_delta
        records.append((f, float(np.linalg.norm(result.x_next - x)), tuple(B.tolist())))
        if not np.array_equal(result.x_next, x):
            r = objective.moved_residual(r, B, result.x_next[B] - x[B])
            g = objective.gradient(result.x_next, r=r)
        drops.append(relative_drop(f, f_next))
        x, f = result.x_next, f_next
        if len(drops) >= config.window and np.mean(drops[-config.window:]) <= config.epsilon:
            status = "converged"
            break
    return x, records, status, f, pinned


class TestIdenticalToSolvingEveryBlock:
    # label: (n, term, start, (n_random, n_greedy)); the starts are "full"
    # (init_solution: s nonzeros under a cap, so most blocks are pinned) and
    # "zero"; the n = 8 full block settles after its first zero step
    CASES = {
        "cons-full-R4G2": (60, Cardinality(5), "full", (4, 2)),
        "cons-full-R0G6": (60, Cardinality(5), "full", (0, 6)),
        "cons-full-R6G0": (60, Cardinality(5), "full", (6, 0)),
        "cons-zero-R4G2": (60, Cardinality(5), "zero", (4, 2)),
        "regu-R4G2": (60, L0Penalty(0.5), "full", (4, 2)),
        "regu-R0G6": (60, L0Penalty(0.5), "full", (0, 6)),
        "regu-R6G0": (60, L0Penalty(0.5), "full", (6, 0)),
        "cons-full-block": (8, Cardinality(3), "full", (8, 0)),
        "regu-full-block": (8, L0Penalty(0.5), "full", (8, 0)),
    }

    @pytest.mark.parametrize("form", ["factored", "gram"])
    @pytest.mark.parametrize("label", list(CASES))
    def test_byte_identical(self, label, form, monkeypatch):
        n, term, start, (n_random, n_greedy) = self.CASES[label]
        prob, _ = random_factored_problem(20, n, 3, term)
        if form == "gram":  # the same problem given by Q = A'A and p = -A'b, refactored
            A, b = prob.objective.A, prob.objective.b
            prob = CompositeProblem(factor_gram(A.T @ A, -(A.T @ b)), term)
        x0 = init_solution(n, term, 3) if start == "full" else np.zeros(n)
        config = DecConfig(n_random=n_random, n_greedy=n_greedy, seed=3, max_iters=300)
        solves = []

        def counted_solve(*args):
            solves.append(args)
            return solve_block(*args)

        monkeypatch.setattr(dec_module, "solve_block", counted_solve)
        x, trace = run_dec(prob, x0, config)
        x_ref, records, status, f_ref, pinned = reference_dec(prob, x0, config)
        assert x.tobytes() == x_ref.tobytes()
        assert [(r.objective, r.step_norm, r.working_set) for r in trace.records] == records
        assert (trace.status, trace.final_objective) == (status, f_ref)
        # every run has zero steps; cons-full-R0G6 has nothing else, since
        # its six picks are always zero coordinates of a full support
        assert sum(r.step_norm > 0.0 for r in trace.records) < len(trace)
        if label.endswith("full-block"):
            assert len(solves) < len(trace)  # no solve once settled
        else:
            assert len(solves) == len(trace) - pinned  # exactly the pinned blocks skipped
            assert (pinned > 0) == label.startswith("cons")
