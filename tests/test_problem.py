"""Objective containers, sparsity terms, and the infeasible sentinel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import problem as problem_module
from blockdec import (INFEASIBLE, Cardinality, CompositeProblem,
                      DataFormatError, DimensionMismatchError, HalfPenalty,
                      InvalidParameterError, L0Penalty, L1Penalty,
                      NumericalError, QuadraticObjective, composite_value,
                      corrupt, gen_random, pgm, table1_problem)

from conftest import DEMO_L, count_calls


def _rand_gram(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G.T @ G + 0.5 * np.eye(n), rng.standard_normal(n)


class TestQuadraticObjective:
    def test_gram_value_matches_formula(self):
        Q, p = _rand_gram(5, 0)
        obj = QuadraticObjective.from_gram(Q, p)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(5)
            assert obj.value(x) == pytest.approx(0.5 * x @ Q @ x + p @ x, rel=1e-12)

    def test_factored_gram_agreement(self):
        # factored and Gram forms differ exactly by the constant 1/2 ||b||^2
        rng = np.random.default_rng(2)
        A = rng.standard_normal((7, 4))
        b = rng.standard_normal(7)
        fac = QuadraticObjective.from_factored(A, b)
        gram = QuadraticObjective.from_gram(A.T @ A, -(A.T @ b))
        offset = 0.5 * float(b @ b)
        for _ in range(10):
            x = rng.standard_normal(4)
            assert fac.value(x) == pytest.approx(gram.value(x) + offset, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(fac.gradient(x), gram.gradient(x), atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        # central differences, step 1e-5, on random points
        Q, p = _rand_gram(5, 3)
        obj = QuadraticObjective.from_gram(Q, p)
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
            QuadraticObjective.from_gram(Q, np.zeros(2))

    def test_negative_diagonal_rejected(self):
        Q = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(InvalidParameterError):
            QuadraticObjective.from_gram(Q, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        A, b = np.ones((3, 2)), np.ones(3)
        Q, p = np.eye(2), np.zeros(2)
        A[1, 0] = b[2] = Q[0, 0] = p[1] = bad
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective.from_factored(A, np.ones(3))
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective.from_factored(np.ones((3, 2)), b)
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective.from_gram(Q, np.zeros(2))
        with pytest.raises(DataFormatError, match="non-finite"):
            QuadraticObjective.from_gram(np.eye(2), p)

    def test_shape_mismatches(self):
        Q, p = _rand_gram(3, 5)
        obj = QuadraticObjective.from_gram(Q, p)
        with pytest.raises(DimensionMismatchError):
            obj.value(np.zeros(4))
        with pytest.raises(InvalidParameterError):
            QuadraticObjective(Q=Q, p=p, A=np.zeros((2, 3)), b=np.zeros(2))

    def test_coordinate_lipschitz_is_gram_diagonal(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((9, 5))
        b = rng.standard_normal(9)
        obj = QuadraticObjective.from_factored(A, b)
        np.testing.assert_allclose(obj.coordinate_lipschitz(),
                                   np.diag(A.T @ A), rtol=1e-12)

    def test_coordinate_lipschitz_cached_read_only_and_fill_free(self):
        # one value per objective: the Gram fill neither triggers nor changes it
        rng = np.random.default_rng(11)
        A, b = rng.standard_normal((7, 5)), rng.standard_normal(7)
        obj = QuadraticObjective.from_factored(A, b)
        q = obj.coordinate_lipschitz()
        assert obj._Q is None
        obj._ensure_gram()
        assert obj.coordinate_lipschitz() is q
        filled = QuadraticObjective.from_factored(A, b)
        filled._ensure_gram()
        assert filled.coordinate_lipschitz().tobytes() == q.tobytes()
        with pytest.raises(ValueError):
            q[0] = 1.0
        gram = QuadraticObjective.from_gram(*_rand_gram(4, 12))
        assert gram.coordinate_lipschitz() is gram.coordinate_lipschitz()
        assert not gram.coordinate_lipschitz().flags.writeable

    def test_demo_coordinate_lipschitz(self, demo_cons):
        np.testing.assert_allclose(demo_cons.objective.coordinate_lipschitz(),
                                   [2.0, 5.0, 10.0, 17.0, 26.0, 37.0], rtol=1e-12)

    def test_lipschitz_global_matches_eigvalsh(self):
        Q, p = _rand_gram(8, 7)
        obj = QuadraticObjective.from_gram(Q, p)
        expect = float(np.linalg.eigvalsh(Q)[-1])
        assert obj.lipschitz_global() == pytest.approx(expect, rel=1e-9)

    def test_demo_lipschitz_is_92(self, demo_cons):
        assert demo_cons.objective.lipschitz_global() == pytest.approx(DEMO_L, rel=1e-9)

    def test_lanczos_path(self, monkeypatch):
        # r = min(m, n) above the dense limit runs eigsh, to rounding
        monkeypatch.setattr(problem_module, "_DENSE_EIG_LIMIT", 10)
        rng = np.random.default_rng(8)
        A = rng.standard_normal((40, 100))
        obj = QuadraticObjective.from_factored(A, rng.standard_normal(40))
        direct = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert obj.lipschitz_global() == pytest.approx(direct, rel=1e-12)

    def test_gram_submatrix_and_linear_term(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 5))
        b = rng.standard_normal(6)
        obj = QuadraticObjective.from_factored(A, b)
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
        cached = QuadraticObjective.from_factored(A, b)
        monkeypatch.setattr(problem_module, "_GRAM_CACHE_LIMIT", 0)
        factored = QuadraticObjective.from_factored(A, b)
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
        for obj in (QuadraticObjective.from_factored(A, b),
                    QuadraticObjective.from_gram(A.T @ A, -(A.T @ b))):
            assert obj.lipschitz_global() == pytest.approx(expect, rel=1e-12, abs=0)

    def test_corrupted_benchmark_instance(self):
        # 64x256 with 2% of entries x100: a 200-step power estimate stopped
        # 2.8e-10 below the true value here, a step longer than 1/L
        A, b, _ = gen_random(64, 256, 10, noise_scale=10.0, seed=1)
        A = corrupt(A, fraction=0.02, factor=100.0, seed=2)
        L = QuadraticObjective.from_factored(A, b).lipschitz_global()
        assert L == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12, abs=0)

    def test_all_zero_data_give_zero(self, branch):
        for shape in [(8, 12), (12, 8)]:
            obj = QuadraticObjective.from_factored(np.zeros(shape), np.ones(shape[0]))
            assert obj.lipschitz_global() == 0.0
            with pytest.raises(InvalidParameterError, match="zero quadratic"):
                pgm(CompositeProblem(obj, Cardinality(2)), np.zeros(shape[1]))
        assert QuadraticObjective.from_gram(np.zeros((9, 9)), np.ones(9)).lipschitz_global() == 0.0

    def test_cached_gram_takes_the_same_call(self, demo_cons):
        # n <= m and Gram form: eigvalsh of the very Q the solvers read
        A = _designs()["tall"]
        objs = [QuadraticObjective.from_factored(A, np.ones(90)),
                QuadraticObjective.from_gram(*_rand_gram(7, 3)),
                demo_cons.objective, table1_problem("regu").objective]
        for obj in objs:
            assert obj.lipschitz_global() == float(np.linalg.eigvalsh(obj.gram_matrix())[-1])

    def test_wide_data_fill_no_gram_and_call_no_matvec(self, branch):
        A, b, _ = gen_random(20, 300, 4, seed=5)
        obj = QuadraticObjective.from_factored(A, b)
        calls = count_calls(obj, "matvec")
        assert obj.lipschitz_global() == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)
        assert obj._Q is None and calls == []
        pgm(CompositeProblem(obj, Cardinality(4)), np.zeros(300), max_iters=20)
        assert obj._Q is None and calls == []

    @pytest.mark.parametrize("make", [
        lambda: QuadraticObjective.from_factored(np.full((3, 4), 1e200), np.ones(3)),
        lambda: QuadraticObjective.from_factored(np.full((4, 3), 1e200), np.ones(4)),
        lambda: QuadraticObjective.from_gram(np.full((4, 4), 5e307), np.zeros(4)),
    ], ids=["wide", "tall", "gram"])
    def test_overflowing_gram_is_numerical_error(self, branch, make):
        # finite data whose Gram, or its largest eigenvalue, overflows
        with pytest.raises(NumericalError):
            make().lipschitz_global()

    def test_eigensolver_failure_is_numerical_error(self, monkeypatch):
        def fail(G):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        obj = QuadraticObjective.from_gram(*_rand_gram(4, 0))
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
            CompositeProblem(QuadraticObjective.from_gram(Q, p), Cardinality(4))

    def test_term_type_checked(self):
        Q, p = _rand_gram(3, 12)
        with pytest.raises(InvalidParameterError):
            CompositeProblem(QuadraticObjective.from_gram(Q, p), "l0")

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
