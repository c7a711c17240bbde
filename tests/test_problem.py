"""Objective containers, sparsity terms, and the infeasible sentinel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import problem as problem_module
from blockdec import (INFEASIBLE, Cardinality, CompositeProblem, DecConfig,
                      DataFormatError, DimensionMismatchError, HalfPenalty,
                      InvalidParameterError, L0Penalty, L1Penalty,
                      NumericalError, QuadraticObjective, apgm, composite_value,
                      corrupt, gen_random, init_solution, pgm, run_dec,
                      table1_problem)

from conftest import DEMO_L, count_calls


def _rand_gram(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G.T @ G + 0.5 * np.eye(n), rng.standard_normal(n)


def _gram_objective(n, seed):
    Q, p = _rand_gram(n, seed)
    return QuadraticObjective(Q=Q, p=p)


class TestQuadraticObjective:
    def test_gram_value_matches_formula(self):
        Q, p = _rand_gram(5, 0)
        obj = QuadraticObjective(Q=Q, p=p)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(5)
            assert obj.value(x) == pytest.approx(0.5 * x @ Q @ x + p @ x, rel=1e-12)

    def test_factored_gram_agreement(self):
        # factored and Gram forms differ exactly by the constant 1/2 ||b||^2
        rng = np.random.default_rng(2)
        A = rng.standard_normal((7, 4))
        b = rng.standard_normal(7)
        fac = QuadraticObjective(A=A, b=b)
        gram = QuadraticObjective(Q=A.T @ A, p=-(A.T @ b))
        offset = 0.5 * float(b @ b)
        for _ in range(10):
            x = rng.standard_normal(4)
            assert fac.value(x) == pytest.approx(gram.value(x) + offset, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(fac.gradient(x), gram.gradient(x), atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        # central differences, step 1e-5, on random points
        Q, p = _rand_gram(5, 3)
        obj = QuadraticObjective(Q=Q, p=p)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(5)
            g = obj.gradient(x)
            for i in range(5):
                e = np.zeros(5)
                e[i] = 1e-5
                fd = (obj.value(x + e) - obj.value(x - e)) / 2e-5
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_asymmetric_q_rejected(self):
        Q = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidParameterError):
            QuadraticObjective(Q=Q, p=np.zeros(2))

    def test_negative_diagonal_rejected(self):
        Q = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(InvalidParameterError):
            QuadraticObjective(Q=Q, p=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        A, b = np.ones((3, 2)), np.ones(3)
        Q, p = np.eye(2), np.zeros(2)
        A[1, 0] = b[2] = Q[0, 0] = p[1] = bad
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective(A=A, b=np.ones(3))
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective(A=np.ones((3, 2)), b=b)
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective(Q=Q, p=np.zeros(2))
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective(Q=np.eye(2), p=p)

    def test_shape_mismatches(self):
        Q, p = _rand_gram(3, 5)
        obj = QuadraticObjective(Q=Q, p=p)
        with pytest.raises(DimensionMismatchError):
            obj.value(np.zeros(4))
        with pytest.raises(InvalidParameterError):
            QuadraticObjective(Q=Q, p=p, A=np.zeros((2, 3)), b=np.zeros(2))

    def test_coordinate_lipschitz_is_gram_diagonal(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((9, 5))
        b = rng.standard_normal(9)
        obj = QuadraticObjective(A=A, b=b)
        np.testing.assert_allclose(obj.coordinate_lipschitz(),
                                   np.diag(A.T @ A), rtol=1e-12)

    def test_coordinate_lipschitz_cached_read_only_and_fill_free(self):
        # one value per objective: the Gram fill neither triggers nor changes it
        rng = np.random.default_rng(11)
        A, b = rng.standard_normal((7, 5)), rng.standard_normal(7)
        obj = QuadraticObjective(A=A, b=b)
        q = obj.coordinate_lipschitz()
        assert obj._Q is None
        obj._ensure_gram()
        assert obj.coordinate_lipschitz() is q
        filled = QuadraticObjective(A=A, b=b)
        filled._ensure_gram()
        assert filled.coordinate_lipschitz().tobytes() == q.tobytes()
        with pytest.raises(ValueError):
            q[0] = 1.0
        gram = _gram_objective(4, 12)
        assert gram.coordinate_lipschitz() is gram.coordinate_lipschitz()
        assert not gram.coordinate_lipschitz().flags.writeable

    def test_p_and_q_are_each_formed_by_one_method_each_exact(self):
        # linear_term forms p alone and the Gram fill Q alone: neither reads
        # or publishes the other, and the order of the two calls moves no bit
        rng = np.random.default_rng(13)
        A, b = rng.standard_normal((7, 5)), rng.standard_normal(7)
        q_first = QuadraticObjective(A=A, b=b)
        q_first._ensure_gram()
        assert q_first._p is None
        np.testing.assert_array_equal(q_first.gram_matrix(), A.T @ A)
        p_first = QuadraticObjective(A=A, b=b)
        p = p_first.linear_term()
        assert p_first._Q is None and p_first.linear_term() is p
        np.testing.assert_array_equal(p, -(A.T @ b))
        np.testing.assert_array_equal(q_first.linear_term(), p)

    def test_p_and_q_are_read_only(self):
        # a caller cannot write into the objective through the p or Q it is
        # handed, so later reads agree with the data it was built from
        rng = np.random.default_rng(15)
        A, b = rng.standard_normal((4, 3)), rng.standard_normal(4)
        for obj in (QuadraticObjective(A=A, b=b),
                    QuadraticObjective(Q=A.T @ A, p=-(A.T @ b))):
            p, Q = obj.linear_term(), obj.gram_matrix()
            with pytest.raises(ValueError):
                p[0] = 99.0
            with pytest.raises(ValueError):
                Q[0, 0] = -1.0
            np.testing.assert_allclose(obj.linear_term(), -(A.T @ b), rtol=1e-12)
            np.testing.assert_allclose(obj.gram_matrix(), A.T @ A, rtol=1e-12)
            np.testing.assert_allclose(obj.gram_blocks([[0, 1]])[0],
                                       obj.gram_submatrix([0, 1]), rtol=1e-12)

    def test_tall_data_form_p_qv_and_l_without_the_gram(self):
        # 40x12 is under the cache limit, yet p, Qv and L each come from A by
        # their own expression, and none of them fills the 12 x 12 Gram
        rng = np.random.default_rng(14)
        A, b = rng.standard_normal((40, 12)), rng.standard_normal(40)
        v, idx = rng.standard_normal(12), np.array([1, 5, 7])
        obj = QuadraticObjective(A=A, b=b)
        for got, want in [(obj.linear_term, -(A.T @ b)),
                          (lambda: obj.linear_term(idx), -(A.T @ b)[idx]),
                          (lambda: obj.matvec(v), A.T @ (A @ v)),
                          (obj.lipschitz_global, np.linalg.eigvalsh(A.T @ A)[-1])]:
            np.testing.assert_array_equal(got(), want)
            assert obj._Q is None

    def test_demo_coordinate_lipschitz(self, demo_cons):
        np.testing.assert_allclose(demo_cons.objective.coordinate_lipschitz(),
                                   [2.0, 5.0, 10.0, 17.0, 26.0, 37.0], rtol=1e-12)

    def test_lipschitz_global_matches_eigvalsh(self):
        Q, p = _rand_gram(8, 7)
        obj = QuadraticObjective(Q=Q, p=p)
        expect = float(np.linalg.eigvalsh(Q)[-1])
        assert obj.lipschitz_global() == pytest.approx(expect, rel=1e-9)

    def test_demo_lipschitz_is_92(self, demo_cons):
        assert demo_cons.objective.lipschitz_global() == pytest.approx(DEMO_L, rel=1e-9)

    def test_lanczos_path(self, monkeypatch):
        # r = min(m, n) above the dense limit runs eigsh, to rounding
        monkeypatch.setattr(problem_module, "_DENSE_EIG_LIMIT", 10)
        rng = np.random.default_rng(8)
        A = rng.standard_normal((40, 100))
        obj = QuadraticObjective(A=A, b=rng.standard_normal(40))
        direct = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert obj.lipschitz_global() == pytest.approx(direct, rel=1e-12)

    def test_gram_submatrix_and_linear_term(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 5))
        b = rng.standard_normal(6)
        obj = QuadraticObjective(A=A, b=b)
        idx = np.array([0, 2, 4])
        np.testing.assert_allclose(obj.gram_submatrix(idx),
                                   (A.T @ A)[np.ix_(idx, idx)], rtol=1e-12)
        np.testing.assert_allclose(obj.linear_term(idx), -(A.T @ b)[idx], rtol=1e-12)
        blocks = np.array([[0, 2, 4], [1, 2, 3], [4, 0, 1]])
        np.testing.assert_array_equal(obj.gram_blocks(blocks),
                                      [obj.gram_submatrix(B) for B in blocks])

    def test_factored_path_agrees_with_gram_cache(self, monkeypatch):
        # the cache decision is taken at construction: a zero limit sends a
        # small instance down the path every n above the limit takes
        rng = np.random.default_rng(10)
        A = rng.standard_normal((6, 5))
        b = rng.standard_normal(6)
        cached = QuadraticObjective(A=A, b=b)
        monkeypatch.setattr(problem_module, "_GRAM_CACHE_LIMIT", 0)
        factored = QuadraticObjective(A=A, b=b)
        idx = np.array([1, 3])
        v = rng.standard_normal(5)
        with pytest.raises(InvalidParameterError):
            factored.gram_matrix()
        for f in (lambda o: o.gram_submatrix(idx), lambda o: o.gram_blocks([idx, idx[::-1]]),
                  lambda o: o.linear_term(),
                  lambda o: o.linear_term(idx), lambda o: o.matvec(v),
                  lambda o: o.coordinate_lipschitz()):
            np.testing.assert_allclose(f(factored), f(cached), rtol=1e-12)
        assert factored._Q is None  # nothing on the factored path fills Q


class TestResidual:
    # 256x320 is above the 2^16-entry floor, and n = 320: a point with up to
    # 10 nonzeros takes the support product
    M, N = 256, 320

    def _objective(self):
        A, b, _ = gen_random(self.M, self.N, 4, seed=8)
        return A, b, QuadraticObjective(A=A, b=b)

    def _point(self, nnz, seed=3):
        rng = np.random.default_rng(seed)
        x = np.zeros(self.N)
        x[rng.choice(self.N, size=nnz, replace=False)] = rng.standard_normal(nnz)
        return x

    @pytest.mark.parametrize("nnz", [0, 1, 9, 10, 11, 12, 40, 320])
    def test_agrees_with_the_dense_product_to_rounding(self, nnz):
        A, b, obj = self._objective()
        x = self._point(nnz)
        r = obj.residual(x)
        dense = A @ x - b
        if nnz == 0:
            np.testing.assert_array_equal(r, -b)
        bound = 4 * self.N * np.finfo(float).eps * (np.abs(A) @ np.abs(x) + np.abs(b))
        assert np.all(np.abs(r - dense) <= bound)

    @pytest.mark.parametrize("nnz, support_path", [(0, True), (10, True), (11, False)])
    def test_support_path_reads_only_the_support_columns(self, nnz, support_path):
        # 32 nnz <= n takes A[:, S] @ x[S]; a NaN column off the support is
        # then never read, while the dense product carries it into r
        _, _, obj = self._objective()
        x = self._point(nnz)
        obj._A[:, np.flatnonzero(x == 0)[0]] = np.nan
        assert np.isfinite(obj.residual(x)).all() == support_path

    def test_fewer_than_32_columns_take_the_dense_product(self):
        # only x = 0 would qualify there, and it gains nothing from the support
        A, b, _ = gen_random(6, 31, 2, seed=8)
        obj = QuadraticObjective(A=A, b=b)
        obj._A[:, 0] = np.nan
        assert np.isnan(obj.residual(np.zeros(31))).all()

    @pytest.mark.parametrize("m, support_path", [(64, False), (255, False), (256, True)])
    def test_matrices_under_2_16_entries_take_the_dense_product(self, m, support_path):
        # there the dense product is cheaper at any nnz
        A, b, _ = gen_random(m, 256, 2, seed=8)
        obj = QuadraticObjective(A=A, b=b)
        obj._A[:, 0] = np.nan
        assert np.isfinite(obj.residual(np.zeros(256))).all() == support_path

    @pytest.mark.parametrize("nnz", [0, 10, 11, 320])
    def test_value_and_gradient_take_the_residual_bit_for_bit(self, nnz):
        _, _, obj = self._objective()
        x = self._point(nnz)
        r = obj.residual(x)
        assert obj.value(x, r=r) == obj.value(x)
        np.testing.assert_array_equal(obj.gradient(x, r=r), obj.gradient(x))
        prob = CompositeProblem(obj, L0Penalty(0.5))
        assert composite_value(prob, x, r=r) == composite_value(prob, x)

    def test_moved_residual_is_the_residual_of_the_moved_point(self):
        # one move by d on a block: r + A[:, B] d against a fresh residual,
        # within the rounding of both
        A, b, obj = self._objective()
        x, B = self._point(40), np.array([3, 17, 250])
        d = np.random.default_rng(4).standard_normal(3)
        moved = x.copy()
        moved[B] += d
        r = obj.moved_residual(obj.residual(x), B, d)
        scale = np.abs(A) @ (np.abs(x) + np.abs(moved)) + np.abs(b)
        assert np.all(np.abs(r - (A @ moved - b)) <= 4 * self.N * np.finfo(float).eps * scale)

    def test_gram_form_has_no_residual(self):
        Q, p = _rand_gram(5, 4)
        obj = QuadraticObjective(Q=Q, p=p)
        x = np.array([0.0, 1.0, 0.0, -2.0, 0.0])
        assert obj.residual(x) is None
        assert obj.moved_residual(None, [1], [1.0]) is None
        assert obj.value(x, r=None) == 0.5 * float(x @ (Q @ x)) + float(p @ x)

    def test_residual_checks_the_shape(self):
        _, _, obj = self._objective()
        with pytest.raises(DimensionMismatchError):
            obj.residual(np.zeros(self.N + 1))


class TestGramColumns:
    # 256x640 takes the support path up to 20 nonzeros; the store holds at
    # most m // 2 = 128 columns
    M, N = 256, 640

    def _objective(self):
        A, b, _ = gen_random(self.M, self.N, 4, seed=8)
        return A, b, QuadraticObjective(A=A, b=b)

    def _point(self, support, seed=3):
        x = np.zeros(self.N)
        x[support] = np.random.default_rng(seed).standard_normal(len(support))
        return x

    @pytest.mark.parametrize("nnz", [0, 1, 20])
    def test_agrees_with_the_dense_gradient_to_rounding(self, nnz):
        A, b, obj = self._objective()
        x = self._point(np.random.default_rng(nnz).choice(self.N, nnz, replace=False))
        columns = obj.gram_columns()
        g = columns.gradient(x, r=obj.residual(x))
        assert len(columns) == nnz  # served, from nnz new columns
        dense = A.T @ (A @ x - b)
        # each Q_jk and each product sums m terms, the gradient nnz + 1 more
        eps = np.finfo(float).eps
        bound = 2 * (self.M + nnz + 2) * eps * (np.abs(A.T) @ (np.abs(A) @ np.abs(x) + np.abs(b)))
        assert np.all(np.abs(g - dense) <= bound)

    def test_off_the_support_path_it_is_the_gradient_bit_for_bit(self):
        A, b, obj = self._objective()
        small = QuadraticObjective(A=A[:64, :256], b=b[:64])
        gram = _gram_objective(40, 2)
        cases = [(obj, self._point(np.arange(21))),  # 21 > n/32 nonzeros
                 (small, self._point(np.arange(2))[:256]),  # 2^14 entries of A
                 (gram, self._point(np.arange(1))[:40])]
        for objective, x in cases:
            columns = objective.gram_columns()
            r = objective.residual(x)
            np.testing.assert_array_equal(columns.gradient(x, r=r), objective.gradient(x, r=r))
            np.testing.assert_array_equal(columns.gradient(x), objective.gradient(x))
            assert len(columns) == 0

    def test_each_column_is_formed_once(self):
        A, b, obj = self._objective()
        columns = obj.gram_columns()
        first = self._point(np.arange(0, 20))
        g_first = columns.gradient(first)
        columns.gradient(self._point(np.arange(10, 30)))
        assert len(columns) == 30
        calls = count_calls(obj, "gradient")
        np.testing.assert_array_equal(columns.gradient(first), g_first)
        columns.gradient(self._point(np.arange(5, 25)))
        assert len(columns) == 30 and calls == []

    def test_a_support_past_the_bound_falls_back_and_does_not_grow_the_store(self):
        A, b, obj = self._objective()
        columns = obj.gram_columns()
        for start in range(0, 120, 20):  # 120 of the 128 columns
            columns.gradient(self._point(np.arange(start, start + 20)))
        assert len(columns) == 120
        calls = count_calls(obj, "gradient")
        x = self._point(np.arange(110, 130))  # 10 new columns: 130 > 128
        r = obj.residual(x)
        np.testing.assert_array_equal(columns.gradient(x, r=r), obj.gradient(x, r=r))
        assert len(columns) == 120 and len(calls) == 2
        columns.gradient(self._point(np.arange(0, 40, 2)))  # held columns: served
        assert len(columns) == 120 and len(calls) == 2
        assert columns._rows.nbytes <= A.nbytes // 2

    def test_pgm_and_apgm_leave_the_gram_cache_unfilled(self):
        # n = 320 is under the cache limit; the stores take p from
        # linear_term() and their columns from A, and neither fills the Gram
        _, _, obj = self._objective()
        stores = count_calls(obj, "gram_columns")
        for term in (Cardinality(4), L0Penalty(20.0)):
            prob = CompositeProblem(obj, term)
            for solver in (pgm, apgm):
                solver(prob, np.zeros(self.N), max_iters=30)
        assert len(stores) == 4 and obj._Q is None


class TestTerms:
    def test_cardinality_value(self):
        t = Cardinality(2)
        assert t.value(np.array([1.0, 0.0, 2.0])) == 0.0
        assert t.value(np.array([1.0, 3.0, 2.0])) is INFEASIBLE

    def test_cardinality_exact_zero_semantics(self):
        # 1e-300 is still a nonzero; only exact 0.0 is a zero
        t = Cardinality(1)
        assert t.value(np.array([1.0, 1e-300])) is INFEASIBLE

    def test_l0_value_counts_exact_nonzeros(self):
        t = L0Penalty(0.25)
        assert t.value(np.array([0.0, 3.0, -1.0, 0.0])) == pytest.approx(0.5)

    def test_l1_and_half_values(self):
        x = np.array([-4.0, 0.0, 1.0])
        assert L1Penalty(2.0).value(x) == pytest.approx(10.0)
        assert HalfPenalty(3.0).value(x) == pytest.approx(3.0 * (2.0 + 1.0))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            Cardinality(0)
        with pytest.raises(InvalidParameterError):
            Cardinality(2.5)
        with pytest.raises(InvalidParameterError):
            L0Penalty(0.0)
        with pytest.raises(InvalidParameterError):
            HalfPenalty(-1.0)
        L1Penalty(0.0)  # the convex relaxation allows a zero weight

    @pytest.mark.parametrize("term", [L0Penalty, L1Penalty, HalfPenalty])
    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_penalty_weight_must_be_finite(self, term, lam):
        with pytest.raises(InvalidParameterError, match="finite"):
            term(lam)

    @pytest.mark.parametrize("s", [np.inf, np.nan])
    def test_cardinality_bound_must_be_finite(self, s):
        with pytest.raises(InvalidParameterError, match="positive integer"):
            Cardinality(s)


class TestInfeasibleSentinel:
    def test_ordering(self):
        assert INFEASIBLE > 1e300
        assert not INFEASIBLE < 1e300
        assert 5.0 < INFEASIBLE
        assert INFEASIBLE == INFEASIBLE
        assert not INFEASIBLE == np.inf

    def test_arithmetic_forbidden(self):
        with pytest.raises(AssertionError):
            INFEASIBLE + 1.0
        with pytest.raises(AssertionError):
            2.0 * INFEASIBLE
        with pytest.raises(AssertionError):
            float(INFEASIBLE)

    def test_singleton(self):
        from blockdec.problem import _InfeasibleValue
        assert _InfeasibleValue() is INFEASIBLE


def _designs():
    rng = np.random.default_rng(12)
    return {
        "wide": rng.standard_normal((30, 90)),
        "tall": rng.standard_normal((90, 30)),
        "square": rng.standard_normal((40, 40)),
        "rank-deficient": rng.standard_normal((50, 2)) @ rng.standard_normal((2, 70)),
    }


@pytest.fixture(params=[None, 1], ids=["dense", "lanczos"])
def branch(request, monkeypatch):
    """The default dense eigvalsh, or a limit of 1 that sends every r to eigsh."""
    if request.param is not None:
        monkeypatch.setattr(problem_module, "_DENSE_EIG_LIMIT", request.param)


class TestExactLipschitz:
    """L = lambda_max(A'A) = ||A||_2^2 exactly, from the smaller Gram."""

    @pytest.mark.parametrize("design", list(_designs()))
    def test_matches_squared_spectral_norm(self, branch, design):
        A = _designs()[design]
        b = np.ones(A.shape[0])
        expect = np.linalg.norm(A, 2) ** 2
        for obj in (QuadraticObjective(A=A, b=b),
                    QuadraticObjective(Q=A.T @ A, p=-(A.T @ b))):
            assert obj.lipschitz_global() == pytest.approx(expect, rel=1e-12, abs=0)

    def test_corrupted_benchmark_instance(self):
        # 64x256 with 2% of entries x100: a 200-step power estimate stopped
        # 2.8e-10 below the true value here, a step longer than 1/L
        A, b, _ = gen_random(64, 256, 10, noise_scale=10.0, seed=1)
        A = corrupt(A, fraction=0.02, factor=100.0, seed=2)
        L = QuadraticObjective(A=A, b=b).lipschitz_global()
        assert L == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12, abs=0)

    def test_all_zero_data_give_zero(self, branch):
        for shape in [(8, 12), (12, 8)]:
            obj = QuadraticObjective(A=np.zeros(shape), b=np.ones(shape[0]))
            assert obj.lipschitz_global() == 0.0
            with pytest.raises(InvalidParameterError, match="zero quadratic"):
                pgm(CompositeProblem(obj, Cardinality(2)), np.zeros(shape[1]))
        assert QuadraticObjective(Q=np.zeros((9, 9)), p=np.ones(9)).lipschitz_global() == 0.0

    def test_cached_gram_takes_the_same_call(self, demo_cons):
        # n <= m and Gram form: eigvalsh of the very Q the solvers read
        A = _designs()["tall"]
        objs = [QuadraticObjective(A=A, b=np.ones(90)),
                _gram_objective(7, 3),
                demo_cons.objective, table1_problem("regu").objective]
        for obj in objs:
            assert obj.lipschitz_global() == float(np.linalg.eigvalsh(obj.gram_matrix())[-1])

    def test_wide_data_fill_no_gram_and_call_no_matvec(self, branch):
        # n = 300 is under the cache limit, yet no solver fills the 300^2 Gram:
        # dec's block solves read their k columns of A
        A, b, _ = gen_random(20, 300, 4, seed=5)
        obj = QuadraticObjective(A=A, b=b)
        calls = count_calls(obj, "matvec")
        blocks = count_calls(obj, "gram_submatrix")
        assert obj.lipschitz_global() == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)
        assert obj._Q is None and calls == []
        for term in (Cardinality(4), L0Penalty(0.5)):
            prob = CompositeProblem(obj, term)
            pgm(prob, np.zeros(300), max_iters=20)
            apgm(prob, np.zeros(300), max_iters=20)
            run_dec(prob, init_solution(300, term, 0), DecConfig(max_iters=30))
            assert obj._Q is None and calls == []
        assert len(blocks) >= 30  # the block solves did run

    @pytest.mark.parametrize("make", [
        lambda: QuadraticObjective(A=np.full((3, 4), 1e200), b=np.ones(3)),
        lambda: QuadraticObjective(A=np.full((4, 3), 1e200), b=np.ones(4)),
        lambda: QuadraticObjective(Q=np.full((4, 4), 5e307), p=np.zeros(4)),
    ], ids=["wide", "tall", "gram"])
    def test_overflowing_gram_is_numerical_error(self, branch, make):
        # finite data whose Gram, or its largest eigenvalue, overflows
        with pytest.raises(NumericalError):
            make().lipschitz_global()

    def test_eigensolver_failure_is_numerical_error(self, monkeypatch):
        def fail(G):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        obj = _gram_objective(4, 0)
        with pytest.raises(NumericalError, match="did not converge"):
            obj.lipschitz_global()


class TestCompositeProblem:
    def test_value_composition(self, demo_regu):
        x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        # f(e_0) = 1/2*Q_00 + p_0 = 2; plus one active coordinate
        assert composite_value(demo_regu, x) == pytest.approx(2.0 + 0.01)

    def test_infeasible_passthrough(self, demo_cons):
        x = np.ones(6)  # 6 nonzeros > s = 4
        assert composite_value(demo_cons, x) is INFEASIBLE

    def test_cardinality_exceeding_dimension_rejected(self):
        Q, p = _rand_gram(3, 11)
        with pytest.raises(InvalidParameterError):
            CompositeProblem(QuadraticObjective(Q=Q, p=p), Cardinality(4))

    def test_term_type_checked(self):
        Q, p = _rand_gram(3, 12)
        with pytest.raises(InvalidParameterError):
            CompositeProblem(QuadraticObjective(Q=Q, p=p), "l0")

    @given(st.integers(0, 2 ** 6 - 1))
    @settings(max_examples=30, deadline=None)
    def test_value_matches_direct_formula_over_patterns(self, mask):
        # composite value equals the hand formula for every on/off pattern
        from blockdec import table1_problem
        prob = table1_problem("regu")
        x = np.zeros(6)
        c = np.arange(1.0, 7.0)
        for j in range(6):
            if (mask >> j) & 1:
                x[j] = 0.5 * (j + 1)
        Q = np.outer(c, c) + np.eye(6)
        expect = 0.5 * x @ Q @ x + x.sum() + 0.01 * int(np.count_nonzero(x))
        assert composite_value(prob, x) == pytest.approx(expect, rel=1e-12)
