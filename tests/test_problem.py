"""Objective containers, sparsity terms, and the infeasible sentinel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import problem as problem_module
from blockdec import (INFEASIBLE, Cardinality, CompositeProblem,
                      DataFormatError, DimensionMismatchError, HalfPenalty,
                      InvalidParameterError, L0Penalty, L1Penalty,
                      QuadraticObjective, composite_value)

from conftest import DEMO_L


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

    def test_power_iteration_path(self):
        # n > dense-eig threshold exercises the iterative spectral estimate
        rng = np.random.default_rng(8)
        A = rng.standard_normal((40, 100))
        obj = QuadraticObjective.from_factored(A, rng.standard_normal(40))
        direct = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert obj.lipschitz_global() == pytest.approx(direct, rel=1e-6)

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
