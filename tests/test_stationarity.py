"""Stationarity checkers and the landscape census.

The six-variable demo problem has closed-form restricted minimizers
(Sherman-Morrison on Q = cc' + I), which this file uses as an independent
oracle for membership tests, alongside frozen reference sets computed once
from that closed form.
"""

import itertools

import numpy as np
import pytest

from blockdec import (BudgetExceededError, Cardinality, CompositeProblem,
                      InvalidParameterError, L0Penalty, L1Penalty,
                      QuadraticObjective, enumerate_basic_points, is_basic,
                      is_block_k, is_l_stationary, landscape_table,
                      table1_problem)
from blockdec.stationarity import ZERO_TOL

from conftest import CONS_GLOBAL_X, REGU_GLOBAL_F, count_calls, random_gram_problem

# Frozen reference sets for the demo problem (independently derived from the
# closed form x_i = -1 + c_i * sigma_S / (1 + q_S) on each support S):
# the one size-4 support that is NOT L-stationary in the constrained case,
CONS_NON_LSTAT_SUPPORT = (0, 2, 3, 4)
# and the eleven supports whose basic points are block-1 optimal under the
# 0.01 count penalty.
REGU_BLOCK1_SUPPORTS = {
    (0, 1, 4), (0, 1, 5), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 3, 5),
    (0, 1, 4, 5), (0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 5),
    (0, 1, 3, 4, 5), (0, 1, 2, 3, 4, 5),
}
REGU_BLOCK2_SUPPORTS = {(0, 1, 2, 5), (0, 1, 2, 4, 5)}


def l_stationary_penalty_loop(prob, x, L, tol):
    """Per-coordinate reference for the count-penalty L-stationarity test."""
    g = prob.objective.gradient(x)
    thresh = 2.0 * prob.term.lam / L
    for i in range(prob.n):
        if abs(x[i]) > ZERO_TOL:
            if abs(g[i]) > tol or x[i] * x[i] < thresh - tol:
                return False
        elif (g[i] / L) ** 2 > thresh + tol:
            return False
    return True


def demo_basic_point(S):
    """Restricted minimizer on support S for the demo problem (numpy only)."""
    c = np.arange(1.0, 7.0)
    Q = np.outer(c, c) + np.eye(6)
    x = np.zeros(6)
    if S:
        idx = list(S)
        x[idx] = np.linalg.solve(Q[np.ix_(idx, idx)], -np.ones(len(idx)))
    return x


class TestIsBasic:
    def test_global_point_is_basic(self, demo_cons):
        assert is_basic(demo_cons, CONS_GLOBAL_X)

    def test_zero_is_basic(self, demo_cons):
        assert is_basic(demo_cons, np.zeros(6))

    def test_perturbed_point_is_not(self, demo_cons):
        x = CONS_GLOBAL_X.copy()
        x[0] += 1e-3
        assert not is_basic(demo_cons, x)

    def test_infeasible_support_fails(self, demo_cons):
        x = demo_basic_point((0, 1, 2, 3, 4))  # 5 nonzeros > s = 4
        assert not is_basic(demo_cons, x)

    def test_every_enumerated_point_is_basic(self, demo_regu):
        for S, x in enumerate_basic_points(demo_regu):
            assert is_basic(demo_regu, x), S


class TestIsLStationaryCons:
    def test_fourteen_of_fifteen_size4_supports(self, demo_cons):
        good = []
        for S in itertools.combinations(range(6), 4):
            if is_l_stationary(demo_cons, demo_basic_point(S)):
                good.append(S)
        assert len(good) == 14
        assert CONS_NON_LSTAT_SUPPORT not in good

    def test_small_supports_are_not_l_stationary(self, demo_cons):
        # with room under the cap, L-stationarity needs a near-zero full
        # gradient, which no strict subset of coordinates achieves here
        for S in [(0,), (0, 1), (0, 1, 2)]:
            assert not is_l_stationary(demo_cons, demo_basic_point(S))

    def test_explicit_l_constant_override(self, demo_cons):
        x = demo_basic_point((0, 1, 2, 5))
        assert is_l_stationary(demo_cons, x, l_const=92.0)

    def test_rejects_relaxation_terms(self):
        prob = CompositeProblem(
            QuadraticObjective(Q=np.eye(2), p=np.zeros(2)), L1Penalty(0.1))
        with pytest.raises(InvalidParameterError):
            is_l_stationary(prob, np.zeros(2))


class TestIsLStationaryRegu:
    def test_borderline_support_is_l_stationary(self, demo_regu):
        # on support (1,4,5) the smallest coordinate satisfies
        # x_4^2 = 1/4356 > 2 lam / L = 1/4600 -- inside by a hair
        x = demo_basic_point((1, 4, 5))
        assert x[4] ** 2 > 2 * 0.01 / 92.0
        assert is_l_stationary(demo_regu, x, l_const=92.0)

    def test_magnitude_condition_rejects_small_coordinates(self):
        # shrink the penalty's threshold side: a tiny-but-nonzero coordinate
        # below sqrt(2 lam / L) must fail
        prob = table1_problem("regu")
        x = demo_basic_point((0, 1, 2, 5))
        x[3] = 1e-3  # breaks both the gradient and the magnitude condition
        assert not is_l_stationary(prob, x)

    def test_round_off_support_classification_is_stable(self, demo_regu):
        # entries at the 1e-16 level are solver round-off, not support
        x = demo_basic_point((0, 2, 4))
        verdict = is_l_stationary(demo_regu, x)
        x_noisy = x.copy()
        x_noisy[3] = 1.7e-16
        assert is_l_stationary(demo_regu, x_noisy) == verdict

    def test_global_is_l_stationary(self, demo_regu):
        assert is_l_stationary(demo_regu, demo_basic_point((0, 1, 2, 4, 5)))

    def test_matches_per_coordinate_loop_on_boundaries(self):
        # L = 1, lam = 13/16, tol = 5/8: thresh - tol = 1 and thresh + tol
        # = 9/4, so x_i = +-1, g_i = +-5/8 on the support and g_i = +-3/2 off
        # it sit exactly on a boundary, and their floating-point neighbours
        # just inside or just outside; the gradient is set directly
        L, tol = 1.0, 0.625
        prob = CompositeProblem(QuadraticObjective(Q=np.eye(6), p=np.zeros(6)),
                                L0Penalty(0.8125))

        def near(v):
            return [v, np.nextafter(v, 0.0), np.nextafter(v, 4.0), -v]

        on_x = near(1.0) + [2.0, 0.3]
        on_g = near(0.625) + [0.0, 0.1]
        off_x = [0.0, 1e-13, -1e-13]
        off_g = near(1.5) + [0.0, 0.2]
        rng = np.random.default_rng(0)
        verdicts = set()
        for _ in range(3000):
            on = rng.random(6) < 0.5
            x = np.where(on, rng.choice(on_x, 6), rng.choice(off_x, 6))
            g = np.where(on, rng.choice(on_g, 6), rng.choice(off_g, 6))
            prob.objective.gradient = lambda _, g=g: g
            want = l_stationary_penalty_loop(prob, x, L, tol)
            assert is_l_stationary(prob, x, l_const=L, tol=tol) == want, (x, g)
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_coordinate_loop_on_random_points(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_gram_problem(7, 60 + seed, L0Penalty(0.05 + rng.random()))
        L = prob.objective.lipschitz_global()
        points = [x for _, x in enumerate_basic_points(prob)]
        points += [rng.standard_normal(7) * (rng.random(7) < 0.5) for _ in range(200)]
        got = [is_l_stationary(prob, x) for x in points]
        assert got == [l_stationary_penalty_loop(prob, x, L, 1e-8) for x in points]
        assert any(got)


class TestIsBlockK:
    def test_cons_global_is_block_k_for_all_k(self, demo_cons):
        for k in range(2, 7):
            assert is_block_k(demo_cons, CONS_GLOBAL_X, k)

    def test_cons_block2_count_is_two(self, demo_cons):
        count = 0
        for r in range(5):
            for S in itertools.combinations(range(6), r):
                if is_block_k(demo_cons, demo_basic_point(S), 2):
                    count += 1
        assert count == 2

    def test_regu_block1_membership_matches_reference(self, demo_regu):
        got = set()
        for r in range(7):
            for S in itertools.combinations(range(6), r):
                if is_block_k(demo_regu, demo_basic_point(S), 1):
                    got.add(S)
        assert got == REGU_BLOCK1_SUPPORTS

    def test_regu_block2_membership(self, demo_regu):
        for S in REGU_BLOCK1_SUPPORTS:
            expected = S in REGU_BLOCK2_SUPPORTS
            assert is_block_k(demo_regu, demo_basic_point(S), 2) == expected, S

    def test_cons_k1_refused(self, demo_cons):
        with pytest.raises(InvalidParameterError):
            is_block_k(demo_cons, CONS_GLOBAL_X, 1)

    def test_sampled_mode_confirms_global(self, demo_regu):
        x = demo_basic_point((0, 1, 2, 4, 5))
        assert is_block_k(demo_regu, x, 2, mode="sampled", trials=60, seed=0)

    def test_sampled_mode_finds_violation(self, demo_regu):
        # a clearly non-stationary point: plenty of improving single blocks
        x = demo_basic_point((3,))
        assert not is_block_k(demo_regu, x, 1, mode="sampled", trials=60, seed=0)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_one_gradient_per_call(self, demo_regu, mode):
        # all 15 (or 60 sampled) blocks read the one gradient at x
        calls = count_calls(demo_regu.objective, "gradient")
        x = demo_basic_point((0, 1, 2, 4, 5))
        assert is_block_k(demo_regu, x, 2, mode=mode, trials=60)
        assert len(calls) == 1

    def test_infeasible_point_is_not_stationary(self, demo_cons):
        assert not is_block_k(demo_cons, np.ones(6), 2)

    def test_budget_error(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((42, 40))
        prob = CompositeProblem(
            QuadraticObjective(Q=G.T @ G + np.eye(40), p=rng.standard_normal(40)),
            L0Penalty(0.1))
        with pytest.raises(BudgetExceededError, match="landscape too large"):
            is_block_k(prob, np.zeros(40), 8)

    def test_mode_validation(self, demo_cons):
        with pytest.raises(InvalidParameterError):
            is_block_k(demo_cons, CONS_GLOBAL_X, 2, mode="guess")


class TestEnumerateBasicPoints:
    def test_cons_count(self, demo_cons):
        pts = enumerate_basic_points(demo_cons)
        assert len(pts) == 57  # sum_{i<=4} C(6,i)
        assert len({S for S, _ in pts}) == 57

    def test_regu_count(self, demo_regu):
        assert len(enumerate_basic_points(demo_regu)) == 64

    def test_points_match_closed_form(self, demo_cons):
        for S, x in enumerate_basic_points(demo_cons):
            np.testing.assert_allclose(x, demo_basic_point(S), atol=1e-9)

    def test_min_norm_on_singular_support(self):
        # rank-one Q with consistent rhs: the enumerated point must be the
        # minimum-norm solution c_S / ||c_S||^2
        c = np.array([1.0, 2.0, 3.0])
        prob = CompositeProblem(
            QuadraticObjective(Q=np.outer(c, c), p=-c), L0Penalty(0.1))
        pts = dict(enumerate_basic_points(prob))
        x = pts[(0, 1)]
        np.testing.assert_allclose(x[:2], c[:2] / (c[:2] @ c[:2]), atol=1e-8)

    def test_budget_error(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((32, 30))
        prob = CompositeProblem(
            QuadraticObjective(Q=G.T @ G + np.eye(30), p=rng.standard_normal(30)),
            Cardinality(7))
        with pytest.raises(BudgetExceededError):
            enumerate_basic_points(prob)


class TestLandscapeTable:
    def test_demo_cons_row(self, demo_cons):
        counts = landscape_table(demo_cons)
        assert counts.basic == 57
        assert counts.l_stationary == 14
        assert counts.block == {2: 2, 3: 1, 4: 1, 5: 1, 6: 1}
        assert counts.row() == [57, 14, 2, 1, 1, 1, 1]

    def test_demo_regu_row(self, demo_regu):
        counts = landscape_table(demo_regu)
        assert counts.basic == 64
        assert counts.l_stationary == 57
        assert counts.block == {1: 11, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1}

    def test_k_max_truncates(self, demo_cons):
        counts = landscape_table(demo_cons, k_max=3)
        assert sorted(counts.block) == [2, 3]

    def test_k_max_above_n_rejected(self, demo_cons):
        with pytest.raises(InvalidParameterError):
            landscape_table(demo_cons, k_max=7)

    @pytest.mark.parametrize("mode, points", [("cons", 55), ("regu", 62)])
    def test_one_gradient_and_value_per_point(self, mode, points):
        # the L-stationarity check and every block-k check on a point share
        # one gradient and one F
        prob = table1_problem(mode)
        distinct = {tuple(np.round(x, 8)) for _, x in enumerate_basic_points(prob)}
        assert len(distinct) == points
        gradients = count_calls(prob.objective, "gradient")
        values = count_calls(prob.objective, "value")
        landscape_table(prob)
        assert len(gradients) == points
        assert len(values) == points

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_rows_match_the_public_checks(self, mode, seed):
        # the census counts what is_l_stationary and is_block_k decide
        prob = random_gram_problem(6, seed, Cardinality(3) if mode == "cons"
                                   else L0Penalty(0.05))
        counts = landscape_table(prob)
        reps = {}  # first point of each rounded class, as the census keeps
        for _, x in enumerate_basic_points(prob):
            reps.setdefault(tuple(np.round(x, 8)), x)
        L = prob.objective.lipschitz_global()
        assert counts.l_stationary == sum(is_l_stationary(prob, x, l_const=L)
                                          for x in reps.values())
        for k in counts.block:
            assert counts.block[k] == sum(
                all(is_block_k(prob, x, j) for j in range(min(counts.block), k + 1))
                for x in reps.values())


class TestHierarchy:
    """Containment chain on the demo problem and random instances."""

    def _check_chain(self, prob, points, k_cap):
        k_min = 2 if isinstance(prob.term, Cardinality) else 1
        for S, x in points:
            lstat = is_l_stationary(prob, x)
            if lstat:
                assert is_basic(prob, x), (S, "L-stationary but not basic")
            flags = {}
            for k in range(k_min, k_cap + 1):
                flags[k] = is_block_k(prob, x, k)
            for k in range(k_min, k_cap):
                assert not (flags[k + 1] and not flags[k]), \
                    (S, f"block-{k+1} but not block-{k}")
            if flags[k_min] and not lstat:
                raise AssertionError((S, f"block-{k_min} but not L-stationary"))

    def test_demo_both_modes(self, demo_cons, demo_regu):
        self._check_chain(demo_cons, enumerate_basic_points(demo_cons), 4)
        self._check_chain(demo_regu, enumerate_basic_points(demo_regu), 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances(self, seed):
        for term in (Cardinality(2), L0Penalty(0.15)):
            prob = random_gram_problem(6, 200 + seed, term)
            self._check_chain(prob, enumerate_basic_points(prob), 3)


class TestTable1Problem:
    def test_structure(self):
        prob = table1_problem("cons")
        c = np.arange(1.0, 7.0)
        np.testing.assert_allclose(prob.objective.gram_matrix(),
                                   np.outer(c, c) + np.eye(6))
        np.testing.assert_allclose(prob.objective.linear_term(), np.ones(6))
        assert isinstance(prob.term, Cardinality) and prob.term.s == 4
        regu = table1_problem("regu")
        assert isinstance(regu.term, L0Penalty) and regu.term.lam == 0.01

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            table1_problem("both")
