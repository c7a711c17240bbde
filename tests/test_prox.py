"""Thresholding operators against dense 1-D grid oracles and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import (Cardinality, CompositeProblem, InvalidParameterError,
                      L0Penalty, QuadraticObjective, half_threshold,
                      hard_threshold_topk, prox_l0_penalty, proximal_step,
                      soft_threshold)
from blockdec.prox import smallest_k


def scalar_grid_min(a, penalty, lo=None, hi=None, points=20001):
    """Dense-grid minimizer of 1/2 (z-a)^2 + penalty(z) on [lo, hi]."""
    pad = 2.0 * abs(a) + 2.0
    lo = -pad if lo is None else lo
    hi = pad if hi is None else hi
    z = np.linspace(lo, hi, points)
    z = np.append(z, [0.0, a])  # make sure the two candidate kinks are exact
    vals = 0.5 * (z - a) ** 2 + penalty(z)
    j = int(np.argmin(vals))
    return z[j], float(vals[j])


# integers, signed zeros and infinities, and NaN: nearly every key ties
TIE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan])


def tie_heavy(seed, n):
    return np.random.default_rng(seed).choice(TIE_VALUES, size=n)


class TestSmallestK:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_full_sorts_for_every_k(self, seed):
        n = 1 + seed % 17
        keys = tie_heavy(seed, n)
        stable = np.argsort(keys, kind="stable")
        lex = np.lexsort((np.arange(n), keys))
        for k in range(1, n + 1):
            got = smallest_k(keys, k)
            np.testing.assert_array_equal(got, stable[:k])
            np.testing.assert_array_equal(got, lex[:k])

    def test_signed_zeros_tie_in_index_order(self):
        keys = np.array([0.0, -0.0, 0.0, -0.0, -1.0])
        assert smallest_k(keys, 3).tolist() == [4, 0, 1]

    def test_nan_kth_key_falls_back_to_every_key(self):
        keys = np.array([np.nan, 3.0, np.nan, 1.0])
        assert smallest_k(keys, 3).tolist() == [3, 1, 0]
        assert smallest_k(np.full(4, np.nan), 2).tolist() == [0, 1]

    def test_ties_at_scale(self):
        keys = np.random.default_rng(5).integers(0, 20, size=5000).astype(float)
        stable = np.argsort(keys, kind="stable")
        for k in (1, 7, 250, 4999, 5000):
            np.testing.assert_array_equal(smallest_k(keys, k), stable[:k])


class TestHardThresholdTopK:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_stable_argsort_for_every_s(self, seed):
        n = 1 + seed % 17
        a = tie_heavy(seed, n)
        order = np.argsort(-np.abs(a), kind="stable")
        for s in range(n + 1):
            want = np.zeros(n)
            want[order[:s]] = a[order[:s]]
            out = hard_threshold_topk(a, s)
            # bit for bit: signed zeros and NaN positions included
            assert out.tobytes() == want.tobytes(), (a, s)

    def test_keeps_largest(self):
        out = hard_threshold_topk(np.array([3.0, -5.0, 1.0, 4.0]), 2)
        np.testing.assert_array_equal(out, [0.0, -5.0, 0.0, 4.0])

    def test_ties_keep_lower_index(self):
        out = hard_threshold_topk(np.array([2.0, -2.0, 2.0]), 2)
        np.testing.assert_array_equal(out, [2.0, -2.0, 0.0])

    def test_s_edges(self):
        a = np.array([1.0, -2.0])
        np.testing.assert_array_equal(hard_threshold_topk(a, 0), [0.0, 0.0])
        np.testing.assert_array_equal(hard_threshold_topk(a, 2), a)
        with pytest.raises(InvalidParameterError):
            hard_threshold_topk(a, 3)
        with pytest.raises(InvalidParameterError):
            hard_threshold_topk(a, -1)

    def test_projection_optimality_vs_all_subsets(self):
        # the output must beat every s-sparse restriction of a
        import itertools
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(6)
            s = int(rng.integers(0, 7))
            out = hard_threshold_topk(a, s)
            best = min(
                float(np.sum((np.where(np.isin(np.arange(6), S), a, 0.0) - a) ** 2))
                for r in range(s + 1)
                for S in itertools.combinations(range(6), r))
            assert float(np.sum((out - a) ** 2)) <= best + 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.integers(0, 8))
    @settings(max_examples=50, deadline=None)
    def test_nnz_bound_property(self, vals, s):
        a = np.array(vals)
        if s > a.size:
            return
        out = hard_threshold_topk(a, s)
        assert np.count_nonzero(out) <= s
        kept = out != 0.0
        np.testing.assert_array_equal(out[kept], a[kept])


class TestProxL0Penalty:
    def test_threshold_boundary_maps_to_zero(self):
        lam, step = 0.5, 1.0
        edge = np.sqrt(2.0 * lam * step)
        out = prox_l0_penalty(np.array([edge, edge * 1.0000001, -edge]), step, lam)
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] != 0.0

    def test_grid_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = float(rng.uniform(-4, 4))
            lam = float(rng.uniform(0.05, 2.0))
            step = float(rng.uniform(0.1, 3.0))
            x = float(prox_l0_penalty(np.array([a]), step, lam)[0])
            pen = lambda z: step * lam * (z != 0.0)
            _, fmin = scalar_grid_min(a, pen)
            fx = 0.5 * (x - a) ** 2 + step * lam * (x != 0.0)
            assert fx <= fmin + 1e-9

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            prox_l0_penalty(np.ones(2), 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            prox_l0_penalty(np.ones(2), 1.0, -1.0)


class TestSoftThreshold:
    def test_formula(self):
        out = soft_threshold(np.array([3.0, -0.5, 0.2]), 1.0)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0])

    def test_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = float(rng.uniform(-4, 4))
            t = float(rng.uniform(0.01, 2.0))
            x = float(soft_threshold(np.array([a]), t)[0])
            _, fmin = scalar_grid_min(a, lambda z: t * np.abs(z))
            fx = 0.5 * (x - a) ** 2 + t * abs(x)
            assert fx <= fmin + 1e-9

    @given(st.floats(-1e8, 1e8), st.floats(0.0, 1e8))
    @settings(max_examples=100, deadline=None)
    def test_shrinkage_properties(self, a, t):
        x = float(soft_threshold(np.array([a]), t)[0])
        assert abs(x) <= abs(a) + 1e-12  # never grows magnitude
        assert x * a >= 0.0  # never flips sign


class TestHalfThreshold:
    def test_zero_below_cutoff(self):
        t = 1.0
        lam = 2.0 * t
        cutoff = (54.0 ** (1 / 3) / 4.0) * lam ** (2 / 3)
        out = half_threshold(np.array([cutoff * 0.99, -cutoff * 0.99]), t)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = float(rng.uniform(-5, 5))
            t = float(rng.uniform(0.05, 1.5))
            x = float(half_threshold(np.array([a]), t)[0])
            _, fmin = scalar_grid_min(a, lambda z: t * np.sqrt(np.abs(z)), points=100001)
            fx = 0.5 * (x - a) ** 2 + t * np.sqrt(abs(x))
            assert fx <= fmin + 1e-6

    def test_surviving_value_is_stationary(self):
        # nonzero outputs satisfy the first-order condition x - a + t/(2 sqrt(x)) sign = 0
        rng = np.random.default_rng(4)
        for _ in range(30):
            t = float(rng.uniform(0.05, 1.0))
            a = float(rng.uniform(2.0, 6.0)) * (1 if rng.random() < 0.5 else -1)
            x = float(half_threshold(np.array([a]), t)[0])
            if x != 0.0:
                resid = x - a + 0.5 * t * np.sign(x) / np.sqrt(abs(x))
                assert abs(resid) < 1e-8

    def test_odd_symmetry(self):
        a = np.linspace(-6, 6, 41)
        t = 0.3
        np.testing.assert_allclose(half_threshold(-a, t), -half_threshold(a, t),
                                   atol=1e-12)


class TestProximalStep:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 5))
        b = rng.standard_normal(8)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), Cardinality(2))
        x = rng.standard_normal(5)
        beta = 0.05
        manual = hard_threshold_topk(x - beta * (A.T @ (A @ x - b)), 2)
        np.testing.assert_allclose(proximal_step(prob, x, beta), manual, rtol=1e-12)

    def test_l0_penalty_step(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L0Penalty(0.3))
        x = rng.standard_normal(4)
        beta = 0.1
        a = x - beta * (A.T @ (A @ x - b))
        manual = np.where(a * a > 2 * 0.3 * beta, a, 0.0)
        np.testing.assert_allclose(proximal_step(prob, x, beta), manual, rtol=1e-12)

    def test_step_validation(self, demo_cons):
        with pytest.raises(InvalidParameterError):
            proximal_step(demo_cons, np.zeros(6), 0.0)
