"""Reference solvers: fixed points, recovery behavior, convex agreement."""

import numpy as np
import pytest

from blockdec import (Cardinality, CompositeProblem, HalfPenalty,
                      InvalidParameterError, IterationRecord, L0Penalty,
                      L1Penalty, QuadraticObjective, SolveTrace, apgm,
                      composite_value, cvx_l1_sweep, gen_random, init_solution,
                      is_l_stationary, omp, pgm, soft_threshold)
from blockdec.bench import write_trace

from conftest import random_factored_problem


class TestPgm:
    def test_convex_quadratic_reaches_global(self):
        # with the zero-weight l1 term, pgm is plain gradient descent on a
        # strongly convex least-squares problem
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 6))
        b = rng.standard_normal(12)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L1Penalty(0.0))
        x, trace = pgm(prob, np.zeros(6), max_iters=4000, epsilon=1e-12)
        x_star = np.linalg.lstsq(A, b, rcond=None)[0]
        np.testing.assert_allclose(x, x_star, atol=1e-5)

    def test_lasso_fixed_point_satisfies_optimality(self):
        # soft-threshold fixed point: x = S_{beta*lam}(x - beta * grad)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((15, 8))
        b = rng.standard_normal(15)
        lam = 0.5
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L1Penalty(lam))
        x, trace = pgm(prob, np.zeros(8), max_iters=5000, epsilon=1e-13)
        beta = 1.0 / prob.objective.lipschitz_global()
        g = prob.objective.gradient(x)
        np.testing.assert_allclose(x, soft_threshold(x - beta * g, beta * lam),
                                   atol=1e-6)

    def test_monotone_descent_on_l0(self):
        prob, _ = random_factored_problem(10, 20, 2, Cardinality(4))
        x0 = np.zeros(20)
        x, trace = pgm(prob, x0, max_iters=300)
        objs = trace.objectives()
        assert np.all(np.diff(objs) <= 1e-10)
        assert np.count_nonzero(x) <= 4

    def test_iht_fixed_point_is_l_stationary(self):
        prob, _ = random_factored_problem(12, 18, 3, Cardinality(5))
        x, trace = pgm(prob, np.zeros(18), max_iters=2000, epsilon=1e-12)
        assert is_l_stationary(prob, x, tol=1e-6)

    def test_infeasible_start_rejected(self):
        prob, _ = random_factored_problem(6, 8, 4, Cardinality(2))
        with pytest.raises(InvalidParameterError):
            pgm(prob, np.ones(8))

    def test_zero_matrix_rejected(self):
        prob = CompositeProblem(
            QuadraticObjective(A=np.zeros((3, 4)), b=np.zeros(3)), Cardinality(2))
        with pytest.raises(InvalidParameterError):
            pgm(prob, np.zeros(4))

    def test_half_penalty_descends(self):
        prob, _ = random_factored_problem(10, 12, 6, HalfPenalty(0.4))
        x, trace = pgm(prob, np.zeros(12), max_iters=400)
        objs = trace.objectives()
        assert trace.final_objective <= objs[0] + 1e-10


class TestProximalGradientTrace:
    @pytest.mark.parametrize("solver", [pgm, apgm], ids=["pgm", "apgm"])
    def test_elapsed_is_recorded_and_untimed_csv_ignores_it(self, solver, tmp_path):
        prob, _ = random_factored_problem(20, 30, 2, Cardinality(4))
        _, trace = solver(prob, np.zeros(30), max_iters=40)
        assert all(r.elapsed > 0.0 for r in trace.records)
        # the untimed CSV is the one a trace with zero times gives
        zeroed = SolveTrace(records=[IterationRecord(
            r.iteration, r.objective, r.step_norm, r.working_set, 0.0)
            for r in trace.records])
        write_trace(tmp_path / "timed.csv", trace)
        write_trace(tmp_path / "zeroed.csv", zeroed)
        assert (tmp_path / "timed.csv").read_bytes() == (tmp_path / "zeroed.csv").read_bytes()
        write_trace(tmp_path / "timing.csv", trace, timing=True)
        rows = (tmp_path / "timing.csv").read_text().strip().split("\n")[1:]
        assert [float(row.split(",")[4]) for row in rows] == [r.elapsed for r in trace.records]


def spy_residuals(obj):
    """Count residual and gradient calls on obj, and check every r passed in.

    A value or gradient call given r, and a gradient asked of a
    ``gram_columns`` store, must get the residual of its own x, bit for bit.
    A store's gradient that made no ``gradient`` call counts as "served".
    A residual formed outside ``gradient`` counts as "unread" until a value
    or gradient call reads it.  Returns the dict of call counts.
    """
    counts = {"residual": 0, "gradient": 0, "served": 0, "stale": 0, "unread": 0}
    residual, value, gradient = obj.residual, obj.value, obj.gradient
    gram_columns = obj.gram_columns
    unread = {}  # id -> r, kept alive so that no id is reused while listed
    in_gradient = []

    def check(x, r):
        if r is not None and not np.array_equal(r, QuadraticObjective.residual(obj, x)):
            counts["stale"] += 1

    def read(x, r):
        check(x, r)
        if r is not None and unread.pop(id(r), None) is not None:
            counts["unread"] -= 1

    def counted_residual(x):
        counts["residual"] += 1
        r = residual(x)
        if not in_gradient:
            unread[id(r)] = r
            counts["unread"] += 1
        return r

    def checked_value(x, r=None):
        read(x, r)
        return value(x, r=r)

    def counted_gradient(x, r=None):
        counts["gradient"] += 1
        read(x, r)
        in_gradient.append(x)
        try:
            return gradient(x, r=r)
        finally:
            in_gradient.pop()

    def counted_gram_columns():
        columns = gram_columns()
        column_gradient = columns.gradient

        def counted(x, r=None):
            check(x, r)  # the store reads r only where it cannot serve x
            before = counts["gradient"]
            g = column_gradient(x, r=r)
            counts["served"] += counts["gradient"] == before
            return g

        columns.gradient = counted
        return columns

    obj.residual, obj.value, obj.gradient = counted_residual, checked_value, counted_gradient
    obj.gram_columns = counted_gram_columns
    return counts


class TestSharedResidual:
    # 128x640 with s = 4: l0 iterates take the support product (32 nnz <= n
    # and m n >= 2^16), and their gradients come from Gram columns
    @pytest.mark.parametrize("term", [Cardinality(4), L0Penalty(20.0), L1Penalty(5.0)],
                             ids=["cons", "regu", "l1"])
    @pytest.mark.parametrize("solver", [pgm, apgm], ids=["pgm", "apgm"])
    def test_one_residual_per_point(self, solver, term):
        # each of F's points, x0 and every x_new, takes one residual, which
        # F and pgm's next gradient share; apgm's y takes one only where the
        # store cannot serve it (x0, the first y, is served here)
        prob, _ = random_factored_problem(128, 640, 1, term, support=4)
        counts = spy_residuals(prob.objective)
        x0 = init_solution(640, term, 0) if isinstance(term, Cardinality) else np.zeros(640)
        x, trace = solver(prob, x0, max_iters=60)
        assert len(trace) > 1
        # one gradient per iteration; the l0 iterates have at most 4 nonzeros,
        # so the store serves every one (l1 iterates grow past n/32 = 20)
        assert counts["served"] + counts["gradient"] == len(trace)
        assert counts["served"] == len(trace) or isinstance(term, L1Penalty)
        y_unserved = counts["gradient"] if solver is apgm else 0
        assert counts["residual"] == 1 + len(trace) + y_unserved
        assert counts["unread"] == 0
        assert counts["stale"] == 0

    @pytest.mark.parametrize("solver", [pgm, apgm], ids=["pgm", "apgm"])
    def test_shared_residuals_change_no_bits(self, solver):
        # a run whose value and gradient each form their own residual
        class Unshared(QuadraticObjective):
            def value(self, x, r=None):
                return super().value(x)

            def gradient(self, x, r=None):
                return super().gradient(x)

        A, b, _ = gen_random(40, 640, 4, seed=1)
        term = Cardinality(4)
        x0 = init_solution(640, term, 0)
        runs = [solver(CompositeProblem(cls(A=A, b=b), term), x0, max_iters=60)
                for cls in (QuadraticObjective, Unshared)]
        (x, trace), (x_ref, trace_ref) = runs
        np.testing.assert_array_equal(x, x_ref)
        assert trace.final_objective == trace_ref.final_objective
        np.testing.assert_array_equal(trace.objectives(), trace_ref.objectives())


class TestApgm:
    def test_convex_agreement_with_pgm(self):
        # both must land on the lasso optimum; apgm just gets there faster
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L1Penalty(0.3))
        xp, _ = pgm(prob, np.zeros(10), max_iters=6000, epsilon=1e-13)
        xa, _ = apgm(prob, np.zeros(10), max_iters=6000, epsilon=1e-13)
        f = lambda z: composite_value(prob, z)
        assert f(xa) == pytest.approx(f(xp), rel=1e-6, abs=1e-8)

    def test_l0_iterates_feasible(self):
        prob, _ = random_factored_problem(10, 16, 5, Cardinality(4))
        x, trace = apgm(prob, np.zeros(16), max_iters=300)
        assert np.count_nonzero(x) <= 4

    def test_accelerated_not_slower_on_convex(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 15))
        b = rng.standard_normal(30)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L1Penalty(0.1))
        _, tp = pgm(prob, np.zeros(15), max_iters=3000, epsilon=1e-10)
        _, ta = apgm(prob, np.zeros(15), max_iters=3000, epsilon=1e-10)
        assert len(ta) <= len(tp) + 50


class TestOmp:
    def test_noiseless_exact_recovery(self):
        # greedy selection is not exact for every draw (seed 5 at these
        # dimensions is a miss); any clean seed demonstrates the contract
        A, b, x_true = gen_random(30, 60, 4, noise_scale=0.0, seed=3)
        x = omp(A, b, 4)
        np.testing.assert_array_equal(np.flatnonzero(x), np.flatnonzero(x_true))
        np.testing.assert_allclose(x, x_true, atol=1e-8)

    def test_residual_orthogonal_to_support(self):
        A, b, _ = gen_random(20, 40, 5, noise_scale=1.0, seed=6)
        x = omp(A, b, 5)
        supp = np.flatnonzero(x)
        r = b - A @ x
        assert np.max(np.abs(A[:, supp].T @ r)) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_ties_pick_lowest_index(self):
        # duplicated column: correlation ties exactly, index 0 must win
        col = np.array([1.0, 2.0, 0.0])
        A = np.column_stack([col, col, np.array([0.0, 0.0, 1.0])])
        b = 3.0 * col
        x = omp(A, b, 1)
        assert np.flatnonzero(x).tolist() == [0]

    def test_s_zero_returns_zero(self):
        A, b, _ = gen_random(5, 8, 2, noise_scale=0.5, seed=7)
        np.testing.assert_array_equal(omp(A, b, 0), np.zeros(8))

    def test_early_stop_on_zero_residual(self):
        # b spanned by 2 columns; asking for 4 must not add spurious support
        rng = np.random.default_rng(8)
        A = rng.standard_normal((10, 6))
        b = 2.0 * A[:, 1] - 1.0 * A[:, 3]
        x = omp(A, b, 4)
        assert set(np.flatnonzero(x)) == {1, 3}

    def test_validation(self):
        A = np.zeros((3, 2))
        A[:, 0] = 1.0
        with pytest.raises(InvalidParameterError):
            omp(A, np.ones(3), 1)  # zero column
        with pytest.raises(InvalidParameterError):
            omp(np.ones((3, 2)), np.ones(3), 5)  # s > n


class TestCvxL1Sweep:
    def test_orthonormal_noiseless_exact(self):
        # orthonormal columns: soft thresholding plus refit recovers exactly
        rng = np.random.default_rng(9)
        M = rng.standard_normal((12, 12))
        Qmat, _ = np.linalg.qr(M)
        A = Qmat[:, :8]
        x_true = np.zeros(8)
        x_true[[1, 4, 6]] = [2.0, -3.0, 1.5]
        b = A @ x_true
        x = cvx_l1_sweep(QuadraticObjective(A=A, b=b), 3)
        np.testing.assert_allclose(x, x_true, atol=1e-6)

    def test_output_sparsity_bound(self):
        A, b, _ = gen_random(15, 30, 5, noise_scale=2.0, seed=10)
        x = cvx_l1_sweep(QuadraticObjective(A=A, b=b), 5)
        assert np.count_nonzero(x) <= 5

    def test_never_worse_than_zero_vector(self):
        A, b, _ = gen_random(10, 20, 3, noise_scale=5.0, seed=11)
        x = cvx_l1_sweep(QuadraticObjective(A=A, b=b), 3)
        assert 0.5 * np.sum((A @ x - b) ** 2) <= 0.5 * float(b @ b) + 1e-12
