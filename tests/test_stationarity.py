"""Stationarity checkers and the landscape census.

The six-variable demo problem has closed-form restricted minimizers
(Sherman-Morrison on Q = cc' + I), which this file uses as an independent
oracle for membership tests, alongside frozen reference sets computed once
from that closed form.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from blockdec import problem as problem_module
from blockdec import stationarity as stationarity_module
from blockdec import subproblem as subproblem_module
from blockdec import (BudgetExceededError, Cardinality, CompositeProblem,
                      DegenerateSystemError, DimensionMismatchError,
                      InvalidParameterError, L0Penalty,
                      L1Penalty, NumericalError, QuadraticObjective,
                      composite_value, enumerate_basic_points, gen_random, is_basic,
                      is_block_k, is_l_stationary, landscape_table, solve_block,
                      table1_problem)
from blockdec.problem import INFEASIBLE, composite_values
from blockdec.stationarity import ROUND_REL, ZERO_TOL
from blockdec.subproblem import OK, TIE_TOL, pattern_deltas
from blockdec.working_set import random_set

from conftest import CONS_GLOBAL_X, REGU_GLOBAL_F, SRC, count_calls, random_gram_problem

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


def l_stationary_cardinality_loop(prob, x, L, tol):
    """Per-coordinate reference for the cardinality L-stationarity test."""
    g = prob.objective.gradient(x)
    on = [i for i in range(prob.n) if abs(x[i]) > ZERO_TOL]
    if len(on) > prob.term.s:
        return False
    # off the support, |x_i - g_i/L| may not pass the least of it on the
    # support, or tol while the support has room
    if len(on) < prob.term.s:
        bar = tol
    else:
        bar = min(abs(x[i] - g[i] / L) for i in on) + tol
    for i in range(prob.n):
        if i in on:
            if abs(g[i]) / L > tol:
                return False
        elif abs(x[i] - g[i] / L) > bar:
            return False
    return True


def reference_no_improving_block(prob, x, g, f_x, blocks, tol):
    """The per-block loop the batched certificate replaced: one solve_block per block."""
    slack = tol * (1.0 + abs(f_x))
    for B in blocks:
        result = solve_block(prob, x, g, B, theta=0.0)
        if result.composite_delta < -slack:
            return False
    return True


def reference_is_block_k(prob, x, k, tol=1e-9, mode="exhaustive", trials=1000, seed=0):
    """is_block_k on valid arguments, through reference_no_improving_block."""
    f_x = composite_value(prob, x)
    if f_x is INFEASIBLE:
        return False
    if mode == "exhaustive":
        blocks = itertools.combinations(range(prob.n), k)
    else:
        rng = np.random.default_rng(seed)
        blocks = (random_set(prob.n, k, rng) for _ in range(trials))
    return reference_no_improving_block(prob, x, prob.objective.gradient(x), f_x, blocks, tol)


def reference_basic_points(prob):
    """The definition: on every support, the minimum-norm least-squares solution."""
    n = prob.n
    sizes = range(prob.term.s + 1) if isinstance(prob.term, Cardinality) else range(n + 1)
    points = []
    for S in itertools.chain.from_iterable(itertools.combinations(range(n), r) for r in sizes):
        x = np.zeros(n)
        if S:
            idx = np.asarray(S, dtype=int)
            x[idx] = np.linalg.lstsq(prob.objective.gram_submatrix(idx),
                                     -prob.objective.linear_term(idx), rcond=None)[0]
        points.append((S, x))
    return points


def outcome(check, *args, **kw):
    """A check's verdict, or the type of the numerical or budget error it raised."""
    try:
        return check(*args, **kw)
    except (BudgetExceededError, DegenerateSystemError, NumericalError) as exc:
        return type(exc)


def singular_design(kind, seed):
    """An 8x7 design with a zero column or a duplicated column pair.

    ``duplicate`` copies column 1 to column 4 (negated on even seeds);
    ``near`` copies it up to a 1e-9 perturbation.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 7))
    b = 2.0 * rng.standard_normal(8)
    if kind == "duplicate":
        A[:, 4] = A[:, 1] if seed % 2 else -A[:, 1]
    elif kind == "near":
        A[:, 4] = A[:, 1] + 1e-9 * rng.standard_normal(8)
    else:
        A[:, 5] = 0.0
    return A, b


def demo_basic_point(S):
    """Restricted minimizer on support S for the demo problem (numpy only)."""
    c = np.arange(1.0, 7.0)
    Q = np.outer(c, c) + np.eye(6)
    x = np.zeros(6)
    if S:
        idx = list(S)
        x[idx] = np.linalg.solve(Q[np.ix_(idx, idx)], -np.ones(len(idx)))
    return x


@pytest.mark.parametrize("tol", [float("nan"), -1e-8, float("inf")])
@pytest.mark.parametrize("check", [
    lambda prob, tol: is_basic(prob, np.zeros(6), tol=tol),
    lambda prob, tol: is_l_stationary(prob, np.zeros(6), tol=tol),
    lambda prob, tol: is_block_k(prob, np.zeros(6), 2, tol=tol),
], ids=["basic", "lstat", "blockk"])
def test_checks_reject_a_tolerance_that_is_not_nonnegative_and_finite(demo_cons, check, tol):
    # every comparison with a NaN slack is false, so a NaN tol certified any point
    with pytest.raises(InvalidParameterError, match="tol"):
        check(demo_cons, tol)


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

    def test_infinite_l_constant_rejected(self, demo_cons):
        # at L = inf the proximal step leaves every point where it is
        x = 5.0 * np.eye(6)[0]
        assert not is_l_stationary(demo_cons, x)
        with pytest.raises(InvalidParameterError, match="finite"):
            is_l_stationary(demo_cons, x, l_const=np.inf)

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


class TestStackedLStationarity:
    """_l_stationary_at over a stack of points against the per-coordinate loops."""

    @staticmethod
    def _check(prob, points):
        L = prob.objective.lipschitz_global()
        loop = (l_stationary_cardinality_loop if isinstance(prob.term, Cardinality)
                else l_stationary_penalty_loop)
        X = np.array(points)
        G = np.array([prob.objective.gradient(x) for x in X])
        got = stationarity_module._l_stationary_at(prob, X, G, L, 1e-8)
        assert got.tolist() == [loop(prob, x, L, 1e-8) for x in X]
        return got

    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_every_basic_point_of_table1(self, mode):
        prob = table1_problem(mode)
        got = self._check(prob, [x for _, x in enumerate_basic_points(prob)])
        assert got.any() and not got.all()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_random_problems(self, mode, seed):
        prob = random_gram_problem(7, 80 + seed, Cardinality(3) if mode == "cons"
                                   else L0Penalty(0.1))
        points = random_points(prob, np.random.default_rng(seed), 100)
        if mode == "cons":
            # basic points with one nonzero more than the cap allows
            wider = CompositeProblem(prob.objective, Cardinality(4))
            points += [x for S, x in enumerate_basic_points(wider) if len(S) == 4]
        got = self._check(prob, points)
        assert got.any()


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

    @pytest.mark.parametrize("mode, k", [("cons", 2.5), ("regu", 2.5), ("regu", True),
                                         ("regu", np.float64(2.0))])
    def test_block_size_must_be_an_integer(self, demo_cons, demo_regu, mode, k):
        prob = demo_cons if mode == "cons" else demo_regu
        with pytest.raises(InvalidParameterError, match="block size"):
            is_block_k(prob, CONS_GLOBAL_X, k)

    @pytest.mark.parametrize("trials", [1.5, True])
    def test_sampled_trials_must_be_an_integer(self, demo_regu, trials):
        with pytest.raises(InvalidParameterError, match="trials"):
            is_block_k(demo_regu, demo_basic_point((3,)), 1, mode="sampled", trials=trials)

    @pytest.mark.parametrize("x", [CONS_GLOBAL_X, np.ones(6)], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("bad", [dict(seed=-1), dict(seed=0.5), dict(trials=0)],
                             ids=["seed-neg", "seed-frac", "no-trials"])
    def test_sampled_mode_rejects_a_bad_seed_or_no_trials(self, demo_cons, x, bad):
        # zero draws would certify any point; checked before the point is read
        with pytest.raises(InvalidParameterError, match="seed|trials"):
            is_block_k(demo_cons, x, 2, mode="sampled", **bad)


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
        # a duplicated column pair a_4 = +-a_1 factors with a tiny pivot; the
        # minimum-norm point splits a_1'b / a_1'a_1 evenly between the two
        for seed in (1, 2):
            A, b = singular_design("duplicate", seed)
            sign = A[0, 4] / A[0, 1]
            prob = CompositeProblem(QuadraticObjective(A=A, b=b), L0Penalty(0.1))
            x = dict(enumerate_basic_points(prob))[(1, 4)]
            half = 0.5 * (A[:, 1] @ b) / (A[:, 1] @ A[:, 1])
            np.testing.assert_allclose(x[[1, 4]], [half, sign * half], rtol=1e-10)

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
        # one gradient and one F, all formed in one stacked call
        prob = table1_problem(mode)
        distinct = {tuple(np.round(x, 8)) for _, x in enumerate_basic_points(prob)}
        assert len(distinct) == points
        stacked = count_calls(prob.objective, "values_and_gradients")
        gradients = count_calls(prob.objective, "gradient")
        values = count_calls(prob.objective, "value")
        landscape_table(prob)
        assert [len(X) for X, in stacked] == [points]
        assert not gradients and not values

    @pytest.mark.parametrize("mode, k_max", [
        ("cons", 1), ("cons", 0), ("cons", -3), ("cons", True), ("cons", 2.5), ("cons", 31),
        ("regu", 0), ("regu", True), ("regu", 2.5), ("regu", np.float64(3.0)), ("regu", 31)])
    def test_bad_k_max_rejected_before_enumeration(self, mode, k_max):
        # k_max must be an integer from the least block size (2 under the
        # cap, 1 under the penalty) to n = 30; the problem has too many
        # supports to enumerate, so only a check made first can name k_max
        rng = np.random.default_rng(1)
        G = rng.standard_normal((32, 30))
        term = Cardinality(7) if mode == "cons" else L0Penalty(0.1)
        prob = CompositeProblem(
            QuadraticObjective(Q=G.T @ G + np.eye(30), p=rng.standard_normal(30)), term)
        with pytest.raises(InvalidParameterError, match="k_max"):
            landscape_table(prob, k_max=k_max)

    def test_integer_k_max_of_any_kind(self, demo_cons):
        assert landscape_table(demo_cons, k_max=np.int64(3)).row() == [57, 14, 2, 1]

    def test_default_k_max_below_least_block_size(self):
        # n = 1 under a cap admits no block size (k >= 2): the default k_max
        # gives the basic and L counts with no block columns
        prob = CompositeProblem(QuadraticObjective(Q=np.eye(1), p=-np.ones(1)), Cardinality(1))
        counts = landscape_table(prob)
        assert (counts.basic, counts.l_stationary, counts.block) == (2, 1, {})
        with pytest.raises(InvalidParameterError, match="k_max"):
            landscape_table(prob, k_max=1)

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

    def test_census_and_solves_leave_scipy_linalg_unloaded(self):
        # the package solves every system with numpy, singular supports
        # included (the duplicated column pair); a fresh interpreter sees
        # what it loads
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "import blockdec as bd",
            "for mode in ('cons', 'regu'):",
            "    bd.landscape_table(bd.table1_problem(mode))",
            "A = np.random.default_rng(1).standard_normal((8, 7))",
            "A[:, 4] = A[:, 1]",
            "bd.enumerate_basic_points(bd.CompositeProblem(",
            "    bd.QuadraticObjective(A=A, b=np.ones(8)), bd.L0Penalty(0.2)))",
            "A, b, _ = bd.gen_random(20, 40, 4, seed=0)",
            "prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b),",
            "                           bd.Cardinality(4))",
            "x0 = bd.init_solution(40, prob.term, 0)",
            "bd.run_dec(prob, x0, bd.DecConfig(max_iters=50))",
            "bd.pgm(prob, x0, max_iters=50)",
            "print('scipy.linalg' in sys.modules)",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"


class TestStackedValues:
    """landscape_table's stacked f, gradient and F against the per-point calls.

    Bit for bit: a last-digit change in a gradient can move a verdict near a
    tie, so values_and_gradients must make each row's own products.
    """

    @staticmethod
    def _check(prob, X):
        obj = prob.objective
        f, G = obj.values_and_gradients(X)
        assert np.array_equal(f, [obj.value(x) for x in X])
        assert np.array_equal(G, [obj.gradient(x) for x in X])
        F, G_F = composite_values(prob, X)
        want = [composite_value(prob, x) for x in X]
        assert np.array_equal(G_F, G)
        assert np.array_equal(F, [np.inf if v is INFEASIBLE else v for v in want])
        return F < np.inf

    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_table1_gram_form(self, mode):
        prob = table1_problem(mode)
        feasible = self._check(prob, np.array(random_points(prob, np.random.default_rng(0), 20)))
        assert (not feasible.all()) == (mode == "cons")  # random points overfill the cap

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_census_problems(self, mode, seed):
        A, b, _ = gen_random(20, 8, 4, noise_scale=1.0, seed=seed)
        term = Cardinality(4) if mode == "cons" else L0Penalty(0.5)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), term)
        self._check(prob, np.array([x for _, x in enumerate_basic_points(prob)]))

    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_near_duplicated_columns(self, mode):
        A, b = singular_design("near", 0)
        term = Cardinality(3) if mode == "cons" else L0Penalty(0.2)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), term)
        self._check(prob, np.array(random_points(prob, np.random.default_rng(1), 20)))

    def test_support_path_rows(self):
        # at 1024x64 a point with nnz <= 2 takes residual's support path,
        # A[:, S] x_S - b; the denser random points take the dense product
        rng = np.random.default_rng(2)
        A, b = rng.standard_normal((1024, 64)), rng.standard_normal(1024)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), Cardinality(2))
        basic = np.array([x for _, x in enumerate_basic_points(prob)])
        assert all(prob.objective._sparse_support(x) is not None for x in basic)
        dense = rng.standard_normal((20, 64)) * (rng.random((20, 64)) < 0.2)
        assert all(prob.objective._sparse_support(x) is None for x in dense)
        self._check(prob, np.vstack([dense[:10], basic, dense[10:]]))

    def test_shape_checked(self, demo_cons):
        with pytest.raises(DimensionMismatchError):
            demo_cons.objective.values_and_gradients(np.zeros(6))


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


def random_points(prob, rng, count):
    """Basic points plus random points with a random support."""
    n = prob.n
    points = [x for _, x in enumerate_basic_points(prob)]
    points += [rng.standard_normal(n) * (rng.random(n) < 0.5) for _ in range(count)]
    return points


class TestBatchedCertificateMatchesLoop:
    """is_block_k and landscape_table against reference_no_improving_block.

    The verdict, or the type of the error raised, must be the loop's on
    every point, block size and mode.
    """

    @staticmethod
    def _compare(prob, points, ks, **kw):
        seen = set()
        for i, x in enumerate(points):
            for k in ks:
                want = outcome(reference_is_block_k, prob, x, k, **kw)
                got = outcome(is_block_k, prob, x, k, **kw)
                assert got is want, (i, k, want, got)
                seen.add(want)
        return seen

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_random_problems(self, mode, seed):
        term = Cardinality(3) if mode == "cons" else L0Penalty(0.05 + 0.1 * seed)
        prob = random_gram_problem(6, 300 + seed, term)
        points = random_points(prob, np.random.default_rng(seed), 30)
        k_min = 2 if mode == "cons" else 1
        assert self._compare(prob, points, range(k_min, 7)) == {True, False}

    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_every_basic_point_of_table1(self, mode):
        prob = table1_problem(mode)
        points = [x for _, x in enumerate_basic_points(prob)]
        k_min = 2 if mode == "cons" else 1
        assert self._compare(prob, points, range(k_min, 7)) == {True, False}

    def test_factored_objective(self, monkeypatch):
        # above the Gram cache limit the block systems come from A's columns
        monkeypatch.setattr(problem_module, "_GRAM_CACHE_LIMIT", 0)
        rng = np.random.default_rng(6)
        A, b = rng.standard_normal((9, 7)), rng.standard_normal(9)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L0Penalty(0.1))
        assert prob.objective._Q is None
        points = random_points(prob, rng, 10)
        assert self._compare(prob, points, [1, 2, 3]) == {True, False}
        assert self._compare(prob, points, [2], mode="sampled", trials=15) == {True, False}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_sampled_mode(self, mode, seed):
        term = Cardinality(4) if mode == "cons" else L0Penalty(0.3)
        prob = random_gram_problem(12, 400 + seed, term)
        # the lowest basic points pass often, the others seldom
        basic = sorted((x for _, x in enumerate_basic_points(prob)),
                       key=lambda x: composite_value(prob, x))
        rng = np.random.default_rng(seed)
        points = basic[:4] + basic[4::80] + [rng.standard_normal(12) * (rng.random(12) < 0.3)
                                             for _ in range(5)]
        seen = self._compare(prob, points, [2, 3, 5], mode="sampled", trials=25, seed=seed)
        assert seen == {True, False}

    @pytest.mark.parametrize("kind", ["duplicate", "near", "zero"])
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_singular_designs(self, kind, mode):
        # at theta = 0 a duplicated column pair makes systems singular, which
        # solve_block ridges, and a nearly duplicated one makes them
        # ill-conditioned; a zero column makes them degenerate, which
        # solve_block refuses
        seen = set()
        for seed in range(3):
            A, b = singular_design(kind, seed)
            term = Cardinality(3) if mode == "cons" else L0Penalty(0.2)
            prob = CompositeProblem(QuadraticObjective(A=A, b=b), term)
            points = random_points(prob, np.random.default_rng(seed), 20)[::2]
            seen |= self._compare(prob, points, [2, 3])
        if kind == "zero":
            assert {False, DegenerateSystemError} <= seen
        else:
            assert {True, False} <= seen

    def test_the_failing_block_is_the_loops(self, monkeypatch):
        # the error comes from the first failing block before the first
        # improving one, in combinations order
        A, b = singular_design("zero", 0)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L0Penalty(0.2))
        raised = []

        def recording(prob, x, g, B, theta):
            try:
                return solve_block(prob, x, g, B, theta)
            except DegenerateSystemError:
                raised.append(tuple(int(i) for i in B))
                raise

        monkeypatch.setattr(stationarity_module, "solve_block", recording)
        blocks = set()
        for x in random_points(prob, np.random.default_rng(1), 30):
            g, f_x = prob.objective.gradient(x), composite_value(prob, x)
            for k in (1, 2, 3):
                del raised[:]
                want = outcome(reference_no_improving_block, prob, x, g, f_x,
                               itertools.combinations(range(7), k), 1e-9)
                # the reference calls blockdec.solve_block, not the recorder
                assert not raised
                if want is not DegenerateSystemError:
                    assert outcome(is_block_k, prob, x, k) is want
                    continue
                first = next(B for B in itertools.combinations(range(7), k) if 5 in B
                             and outcome(solve_block, prob, x, g, B, 0.0)
                             is DegenerateSystemError)
                with pytest.raises(DegenerateSystemError):
                    is_block_k(prob, x, k)
                assert raised == [first]
                blocks.add(first)
        assert len(blocks) > 1

    @pytest.mark.parametrize("kind", ["duplicate", "near"])
    def test_singular_systems_stay_with_their_block(self, kind, monkeypatch):
        # a duplicated pair, which solve_block ridges, or a nearly duplicated
        # one, whose systems factor with a tiny pivot, leaves only the blocks
        # holding both columns to solve_block: no other block is ridged
        A, b = singular_design(kind, 1)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L0Penalty(0.2))
        blocks = []
        monkeypatch.setattr(stationarity_module, "solve_block",
                            lambda *args, **kw: blocks.append(set(args[3].tolist()))
                            or solve_block(*args, **kw))
        got = outcome(lambda: landscape_table(prob, k_max=3).row())
        assert blocks and all({1, 4} <= B for B in blocks)
        assert got == outcome(self._reference_census, prob, 3)

    def test_solutions_off_their_systems_are_left_to_solve_block(self, monkeypatch):
        # batched solutions 1e-6 relative off fail the residual check, so
        # every block goes to solve_block and the verdicts stay the loop's
        prob = random_gram_problem(5, 7, L0Penalty(0.1))
        points = [x for _, x in enumerate_basic_points(prob)]
        X = np.array(points)
        G = np.array([prob.objective.gradient(x) for x in points])
        blocks = np.array(list(itertools.combinations(range(5), 2)))
        engine, solve = stationarity_module.pattern_deltas, subproblem_module._cho_solve

        def off(*args, **kw):  # the certificate's solutions only, not solve_block's
            with monkeypatch.context() as patch:
                patch.setattr(subproblem_module, "_cho_solve",
                              lambda L, B: solve(L, B) * (1.0 + 1e-6))
                return engine(*args, **kw)

        monkeypatch.setattr(stationarity_module, "pattern_deltas", off)
        outcomes = stationarity_module._block_outcomes(prob, X, G, np.full(len(X), 1e-9), blocks)
        assert (outcomes == stationarity_module.UNSURE).all()
        assert [is_block_k(prob, x, 2) for x in points] == [
            reference_is_block_k(prob, x, 2) for x in points]

    @pytest.mark.parametrize("kind", ["duplicate", "near", "zero"])
    def test_landscape_table_raises_where_the_loop_raises(self, kind, monkeypatch):
        # with a block budget of 100 patterns, block size 3 (280 patterns)
        # is refused at the first point that reaches it, which may come
        # before or after points that fail at block size 2
        seen = set()
        for budget in (stationarity_module.BLOCK_BUDGET, 100):
            monkeypatch.setattr(stationarity_module, "BLOCK_BUDGET", budget)
            for seed in range(5):
                A, b = singular_design(kind, seed)
                for term in (Cardinality(3), L0Penalty(0.2)):
                    prob = CompositeProblem(QuadraticObjective(A=A, b=b), term)
                    want = outcome(self._reference_census, prob, 3)
                    got = outcome(lambda: landscape_table(prob, k_max=3).row())
                    assert got == want, (kind, seed, term, budget)
                    seen.add(want if isinstance(want, type) else list)
        assert {"zero": DegenerateSystemError, "near": NumericalError}.get(
            kind, BudgetExceededError) in seen

    @staticmethod
    def _reference_census(prob, k_max):
        """landscape_table's row through the loop, point by point."""
        reps = {}
        for _, x in enumerate_basic_points(prob):
            reps.setdefault(tuple(np.round(x, 8)), x)
        L = prob.objective.lipschitz_global()
        k_min = 2 if isinstance(prob.term, Cardinality) else 1
        block = {k: 0 for k in range(k_min, k_max + 1)}
        for x in reps.values():
            g, f_x = prob.objective.gradient(x), composite_value(prob, x)
            for k in block:
                blocks = stationarity_module._all_blocks(prob.n, k)  # may refuse k
                if not reference_no_improving_block(prob, x, g, f_x, blocks, 1e-9):
                    break
                block[k] += 1
        l_count = sum(is_l_stationary(prob, x, l_const=L) for x in reps.values())
        return [len(enumerate_basic_points(prob)), l_count] + list(block.values())

    def test_tie_rule_keeps_the_first_of_two_equal_size_patterns(self):
        # the two single-coordinate moves change F by -5e-4 and -5e-4 - 2.5e-13;
        # the loop keeps the first, within TIE_TOL, so its best change is
        # -5e-4 although the least is lower.  A slack between the two passes.
        prob = CompositeProblem(
            QuadraticObjective(Q=np.eye(2), p=-np.sqrt([1e-3, 1e-3 + 5e-13])), Cardinality(1))
        x = np.zeros(2)  # F(x) = 0, so the slack is tol
        g = prob.objective.gradient(x)
        assert solve_block(prob, x, g, [0, 1], 0.0).composite_delta == pytest.approx(
            -5e-4, rel=1e-14, abs=0.0)
        assert is_block_k(prob, x, 2, tol=5e-4 + 1.25e-13)
        assert reference_is_block_k(prob, x, 2, tol=5e-4 + 1.25e-13)
        assert not is_block_k(prob, x, 2, tol=5e-4 - 1e-13)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_slack_at_the_best_change(self, mode, scale):
        # -slack placed on the loop's best change, a few ULPs either side of
        # it, and within TIE_TOL of it
        term = Cardinality(3) if mode == "cons" else L0Penalty(0.05 * scale)
        base = random_gram_problem(6, 11, term)
        prob = CompositeProblem(QuadraticObjective(Q=scale * base.objective.gram_matrix(),
                                                   p=scale * base.objective.linear_term()),
                                term)
        blocks = list(itertools.combinations(range(6), 2))
        verdicts = set()
        for x in random_points(prob, np.random.default_rng(3), 10)[::5]:
            f_x = composite_value(prob, x)
            if f_x is INFEASIBLE:
                continue
            g = prob.objective.gradient(x)
            best = min(solve_block(prob, x, g, B, 0.0).composite_delta for B in blocks)
            if best == 0.0:
                continue
            targets = [best + j * np.spacing(best) for j in range(-3, 4)]
            targets += [best + f * TIE_TOL for f in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)]
            for target in targets:
                tol = -target / (1.0 + abs(f_x))
                want = reference_is_block_k(prob, x, 2, tol=tol)
                assert is_block_k(prob, x, 2, tol=tol) == want, (x, target)
                verdicts.add(want)
        assert verdicts == {True, False}


class TestCertificateChunks:
    def test_small_chunks_match_the_default(self, monkeypatch):
        # batches of a few systems split the points and the blocks
        probs = [random_gram_problem(6, 20, Cardinality(3)),
                 random_gram_problem(6, 21, L0Penalty(0.1))]
        want = [landscape_table(prob).row() for prob in probs]
        x = [x for _, x in enumerate_basic_points(probs[1])][-1]
        single = [is_block_k(probs[1], x, k) for k in range(1, 7)]
        monkeypatch.setattr(stationarity_module, "CERT_CHUNK", 8)
        assert [landscape_table(prob).row() for prob in probs] == want
        assert [is_block_k(probs[1], x, k) for k in range(1, 7)] == single

    def test_an_early_failure_reads_few_blocks(self, monkeypatch):
        # x = 0 improves on its first pair, so the first batch of 64 blocks
        # decides it, out of 4950
        rng = np.random.default_rng(1)
        prob = CompositeProblem(QuadraticObjective(A=rng.standard_normal((30, 100)),
                                                   b=rng.standard_normal(30)), Cardinality(5))
        read = count_calls(prob.objective, "gram_blocks")
        assert not is_block_k(prob, np.zeros(100), 2)
        assert [len(args[0]) for args in read] == [64]

    def test_memory_does_not_grow_with_the_number_of_systems(self):
        """An exhaustive k = 2 check at n = 300 peaks below 6 MB.

        It solves 179,400 (block, pattern) systems, over five times
        CERT_CHUNK.  Measured under tracemalloc with numpy 2.4: 2.4 MB with
        the default CERT_CHUNK, and 9.3 MB with no cap, when the doubling
        batches grow to 16,384 blocks; the bound exists to catch the latter.
        """
        rng = np.random.default_rng(0)
        A, b = rng.standard_normal((60, 300)), rng.standard_normal(60)
        # no pair of coordinates can pay the penalty, so every block is solved
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), L0Penalty(float(b @ b)))
        prob.objective.gram_matrix()  # the 720 kB Gram cache is not the check's
        tracemalloc.start()
        try:
            assert is_block_k(prob, np.zeros(300), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"


class TestCholesky:
    def test_failing_and_weak_systems_are_flagged_alone(self):
        # five blocks of four SPD systems; block 1 holds an indefinite
        # system, which fails the whole stack, and block 3 one whose third
        # column nearly copies its first
        rng = np.random.default_rng(2)
        G = rng.standard_normal((5, 4, 6, 3))
        G[3, 0, :, 2] = G[3, 0, :, 0] + 1e-5 * rng.standard_normal(6)
        M = G.swapaxes(-1, -2) @ G
        M[1, 2] = -np.eye(3)
        L, failed = subproblem_module._cholesky(M)
        np.testing.assert_array_equal(failed, [False, True, False, False, False])
        want = np.zeros((5, 4), dtype=bool)
        want[1] = True  # every system of the block with the failing one
        for i, j in zip(*np.nonzero(~want)):
            np.testing.assert_array_equal(L[i, j], np.linalg.cholesky(M[i, j]))
        # the engine stacks each system on its own, so it flags only the
        # failing system and the weak one: block n's Q holds its four systems
        # on the diagonal, and pattern j picks out system j
        Q_B = np.zeros((5, 12, 12))
        T = np.arange(12).reshape(4, 3)
        for j in range(4):
            Q_B[:, T[j, :, None], T[j]] = M[:, j]
        _, _, status = pattern_deltas(Q_B, np.zeros((5, 1, 12)), rng.standard_normal((5, 1, 12)),
                                      0.0, 0.0, np.array([7 << 3 * j for j in range(4)]),
                                      [(np.arange(4), T)], certify=True)
        want = np.zeros((5, 4), dtype=bool)
        want[1, 2] = want[3, 0] = True
        np.testing.assert_array_equal(status[..., 0] != OK, want)


class TestStackedEngine:
    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_stacked_deltas_within_the_rounding_bound(self, mode, factored, monkeypatch):
        # the certificate reads every (block, pattern, point) change from one
        # stacked call; each must be within ROUND_REL times the certificate's
        # scale bound of the change solve_block's one-block, one-point call
        # forms.  With the Gram cached, the stack slices it and the single
        # block reads A; at k = 1 and k = 12 that product runs another BLAS
        # kernel than the cache fill, so those cases take a few blocks too
        if factored:
            monkeypatch.setattr(problem_module, "_GRAM_CACHE_LIMIT", 0)
        rng = np.random.default_rng(8 + factored)
        lam = 0.0 if mode == "cons" else 0.2
        # (rows, columns, k, blocks, points)
        for m, n, k, n_blocks, n_points in [(12, 9, 4, 25, 7), (40, 9, 1, 6, 3),
                                            (20, 14, 12, 3, 2)]:
            prob = CompositeProblem(QuadraticObjective(A=rng.standard_normal((m, n)),
                                                       b=rng.standard_normal(m)),
                                    Cardinality(4) if mode == "cons" else L0Penalty(lam))
            assert prob.objective._gram_cached != factored
            X = rng.standard_normal((n_points, n)) * (rng.random((n_points, n)) < 0.5)
            G = np.array([prob.objective.gradient(x) for x in X])
            blocks = np.sort([rng.choice(n, k, replace=False) for _ in range(n_blocks)], axis=1)
            masks, stacks = subproblem_module._pattern_tables(
                k, min(k, 4) if mode == "cons" else k, 0)
            _, delta, status = pattern_deltas(prob.objective.gram_blocks(blocks),
                                              X[:, blocks].swapaxes(0, 1),
                                              G[:, blocks].swapaxes(0, 1),
                                              0.0, lam, masks, stacks, certify=True)
            compared = 0
            for b, B in enumerate(blocks):
                Q_BB = prob.objective.gram_submatrix(B)
                for r, (x, g) in enumerate(zip(X, G)):
                    Z, alone, failed = pattern_deltas(Q_BB[None], x[B][None, None],
                                                      g[B][None, None], 0.0, lam, masks, stacks)
                    Z, alone, ok = Z[0, :, 0], alone[0, :, 0], status[b, :, r] == OK
                    assert not failed.any()
                    d2 = np.sum((Z - x[B]) ** 2, axis=1)
                    scale = (np.sqrt(d2) * np.linalg.norm(g[B])
                             + 0.5 * d2 * np.linalg.norm(Q_BB)
                             + lam * np.abs(np.count_nonzero(Z, axis=1) - np.count_nonzero(x[B])))
                    assert np.all(np.abs(delta[b, ok, r] - alone[ok]) <= ROUND_REL * scale[ok])
                    compared += np.count_nonzero(ok)
            assert compared >= 0.9 * delta.size


class TestBatchedBasicPoints:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["cons", "regu"])
    def test_match_the_per_support_loop(self, mode, seed):
        term = Cardinality(4) if mode == "cons" else L0Penalty(0.1)
        problems = [random_gram_problem(7, 500 + seed, term),
                    CompositeProblem(QuadraticObjective(A=singular_design("duplicate", seed)[0],
                                                        b=np.ones(8)), term)]
        for prob in problems:
            got = enumerate_basic_points(prob)
            want = reference_basic_points(prob)
            assert [S for S, _ in got] == [S for S, _ in want]
            for (S, x), (_, x_ref) in zip(got, want):
                assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref), S
