"""End-to-end acceptance battery.

Each test covers one headline guarantee and prints a single PASS/FAIL line
(outside pytest's capture, so the lines always reach the terminal) before
asserting.  The checks here re-derive everything through independent oracles:
brute-force support enumeration, dense scalar grids, byte comparisons of CLI
output, and direct recomputation of objectives from stored traces.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from blockdec import (Cardinality, CompositeProblem, DecConfig, L0Penalty,
                      QuadraticObjective, composite_value, corrupt,
                      enumerate_basic_points, gen_random, half_threshold,
                      hard_threshold_topk, init_solution, is_basic,
                      is_block_k, is_l_stationary, omp, pgm, prox_l0_penalty,
                      run_dec, soft_threshold, table1_problem)
from blockdec.data import load_sparse_text, save_sparse_text

from conftest import brute_force_cons, run_cli
from test_harness import MALFORMED, MALFORMED_LINES


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. landscape census of the six-variable example


def _census_via_cli(mode):
    out = run_cli("table1", "--mode", mode, check=True)
    return tuple(int(v) for v in out.stdout.strip().split("\n")[1].split(","))


def test_criterion_1_census_rows(capsys):
    tic = time.perf_counter()
    got_cons = _census_via_cli("cons")
    got_regu = _census_via_cli("regu")
    elapsed = time.perf_counter() - tic
    exp_cons = (57, 14, 2, 1, 1, 1, 1)
    exp_regu = (64, 56, 9, 3, 1, 1, 1, 1)
    ok = got_cons == exp_cons and got_regu == exp_regu and elapsed < 60
    report(capsys, 1, ok,
           f"census cons={got_cons} regu={got_regu} in {elapsed:.1f}s "
           f"(reference: cons={exp_cons} regu={exp_regu})")
    assert elapsed < 60
    assert got_cons == exp_cons
    assert got_regu == exp_regu, (
        f"penalized census is {got_regu}, reference row is {exp_regu}. "
        "The l_stationary column reaches 56 only if a 1.7e-16 round-off "
        "coordinate of one basic point is counted as genuine support; this "
        "library reads supports at the 1e-12 level and classifies that point "
        "as L-stationary, giving 57. The block-1/block-2 reference values "
        "(9, 3) are not attained under any support convention we tested; the "
        "faithful counts are 11 and 2.")


# ---------------------------------------------------------------------------
# 2. full-block DEC equals brute-force enumeration


def test_criterion_2_global_oracle(capsys):
    tic = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        A, b, _ = gen_random(8, 10, 3, noise_scale=0.5, seed=seed)
        prob = CompositeProblem(QuadraticObjective(A=A, b=b), Cardinality(3))
        cfg = DecConfig(n_random=10, n_greedy=0, seed=seed)
        x, _ = run_dec(prob, init_solution(10, prob.term, seed), cfg)
        f_dec = composite_value(prob, x)
        f_ref = brute_force_cons(A, b, 3)
        worst = max(worst, (f_dec - f_ref) / max(1.0, abs(f_ref)))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-8 and elapsed < 10
    report(capsys, 2, ok,
           f"20/20 instances within rel. gap {worst:.2e} of brute force "
           f"in {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 3. sufficient decrease holds at every recorded iteration


def test_criterion_3_sufficient_decrease(capsys):
    theta = 1e-3
    runs = []
    for mode in ("cons", "regu"):
        prob = table1_problem(mode)
        for seed in range(3):
            runs.append((prob, init_solution(6, prob.term, seed),
                         DecConfig(theta=theta, seed=seed)))
    for seed in range(4):
        A, b, _ = gen_random(12, 24, 5, noise_scale=2.0, seed=seed)
        obj = QuadraticObjective(A=A, b=b)
        for term in (Cardinality(5), L0Penalty(0.3)):
            runs.append((CompositeProblem(obj, term),
                         init_solution(24, term, seed),
                         DecConfig(theta=theta, seed=seed, max_iters=300)))

    checked = 0
    violations = 0
    worst_final_gap = 0.0
    for prob, x0, cfg in runs:
        x, trace = run_dec(prob, x0, cfg)
        objs = list(trace.objectives()) + [trace.final_objective]
        for rec, f_next in zip(trace.records, objs[1:]):
            if f_next + 0.5 * theta * rec.step_norm ** 2 > rec.objective + 1e-10:
                violations += 1
            checked += 1
        # the recorded objectives must be real, not merely self-consistent
        worst_final_gap = max(worst_final_gap, abs(
            trace.final_objective - composite_value(prob, x)))
    ok = violations == 0 and worst_final_gap < 1e-9
    report(capsys, 3, ok,
           f"{checked} iterations across {len(runs)} runs, {violations} "
           f"violations; recorded vs recomputed final objective "
           f"gap {worst_final_gap:.1e}")
    assert violations == 0
    assert worst_final_gap < 1e-9


# ---------------------------------------------------------------------------
# 4. stationarity hierarchy


def test_criterion_4_hierarchy(capsys):
    tic = time.perf_counter()
    cases = [(table1_problem("cons"), 4), (table1_problem("regu"), 4)]
    for seed in range(10):
        A, b, _ = gen_random(6, 8, 3, noise_scale=1.0, seed=100 + seed)
        obj = QuadraticObjective(A=A, b=b)
        cases.append((CompositeProblem(obj, Cardinality(3)), 3))
        cases.append((CompositeProblem(obj, L0Penalty(0.1)), 3))

    points = 0
    violations = []
    for prob, k_cap in cases:
        k_min = 2 if isinstance(prob.term, Cardinality) else 1
        for S, x in enumerate_basic_points(prob):
            points += 1
            lstat = is_l_stationary(prob, x)
            if lstat and not is_basic(prob, x):
                violations.append((S, "L-stationary but not basic"))
            flags = {k: is_block_k(prob, x, k) for k in range(k_min, k_cap + 1)}
            for k in range(k_min, k_cap):
                if flags[k + 1] and not flags[k]:
                    violations.append((S, f"block-{k + 1} without block-{k}"))
            if flags[k_min] and not lstat:
                violations.append((S, f"block-{k_min} without L-stationarity"))
    elapsed = time.perf_counter() - tic
    ok = not violations
    report(capsys, 4, ok,
           f"{points} basic points over {len(cases)} problems, "
           f"{len(violations)} hierarchy violations in {elapsed:.1f}s")
    assert not violations, violations[:5]


# ---------------------------------------------------------------------------
# 5. decomposition beats plain hard-thresholding descent on corrupted data


def test_criterion_5_dec_vs_iht(capsys):
    tic = time.perf_counter()
    dec_finals, pgm_finals = [], []
    for s in (10, 20):
        for seed in range(5):
            A, b, _ = gen_random(64, 256, s, seed=seed)
            A = corrupt(A, fraction=0.02, factor=100.0, seed=seed + 1)
            prob = CompositeProblem(QuadraticObjective(A=A, b=b),
                                    Cardinality(s))
            x0 = init_solution(256, prob.term, seed)
            cfg = DecConfig(n_random=4, n_greedy=2, seed=seed)
            x, _ = run_dec(prob, x0, cfg)
            dec_finals.append(composite_value(prob, x))
            y, _ = pgm(prob, x0)
            pgm_finals.append(composite_value(prob, y))
    med_dec = float(np.median(dec_finals))
    med_pgm = float(np.median(pgm_finals))
    elapsed = time.perf_counter() - tic
    ok = med_dec <= med_pgm and elapsed < 300
    report(capsys, 5, ok,
           f"median final objective dec-R4G2={med_dec:.2f} vs "
           f"pgm={med_pgm:.2f} over 10 corrupted instances in {elapsed:.1f}s")
    assert med_dec <= med_pgm
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 6. thresholding operators against dense scalar grids


def _grid_best(objective_fn, amax):
    # the exact zero matters: linspace midpoints are only *nearly* zero,
    # which would hide the "drop the coordinate" candidate from the oracle
    grid = np.concatenate([np.linspace(-amax - 2.0, amax + 2.0, 4001), [0.0]])
    vals = objective_fn(grid[None, :])  # (cases, grid)
    return np.min(vals, axis=1)


def test_criterion_6_prox_grid_oracles(capsys):
    rng = np.random.default_rng(6)
    a = rng.uniform(-3, 3, size=1000)
    t = rng.uniform(0.05, 1.5, size=1000)
    lam = rng.uniform(0.01, 1.0, size=1000)
    worst = {}

    # hard thresholding on scalars: keep (s=1) or drop (s=0)
    s_choice = rng.integers(0, 2, size=1000)
    f_hard = np.array([
        0.5 * (hard_threshold_topk(np.array([ai]), si)[0] - ai) ** 2
        for ai, si in zip(a, s_choice)])
    grid = np.concatenate([np.linspace(-5.0, 5.0, 4001), [0.0]])
    feas = np.where(s_choice[:, None] == 0, grid[None, :] == 0.0, True)
    vals = 0.5 * (grid[None, :] - a[:, None]) ** 2
    vals = np.where(feas, vals, np.inf)
    worst["hard"] = float(np.max(f_hard - np.min(vals, axis=1)))

    # l0 penalty prox
    x_l0 = np.array([prox_l0_penalty(np.array([ai]), ti, li)[0]
                     for ai, li, ti in zip(a, lam, t)])
    def f_l0(z):
        return (0.5 * (z - a[:, None]) ** 2
                + t[:, None] * lam[:, None] * (np.abs(z) > 0))
    worst["l0"] = float(np.max(
        f_l0(x_l0[:, None])[:, 0] - _grid_best(f_l0, 3.0)))

    # soft thresholding
    x_soft = np.array([soft_threshold(np.array([ai]), li * ti)[0]
                       for ai, li, ti in zip(a, lam, t)])
    def f_soft(z):
        return 0.5 * (z - a[:, None]) ** 2 + t[:, None] * lam[:, None] * np.abs(z)
    worst["soft"] = float(np.max(
        f_soft(x_soft[:, None])[:, 0] - _grid_best(f_soft, 3.0)))

    # half-power penalty
    x_half = np.array([half_threshold(np.array([ai]), li * ti)[0]
                       for ai, li, ti in zip(a, lam, t)])
    def f_half(z):
        return (0.5 * (z - a[:, None]) ** 2
                + t[:, None] * lam[:, None] * np.sqrt(np.abs(z)))
    worst["half"] = float(np.max(
        f_half(x_half[:, None])[:, 0] - _grid_best(f_half, 3.0)))

    ok = (worst["hard"] <= 1e-9 and worst["l0"] <= 1e-9
          and worst["soft"] <= 1e-9 and worst["half"] <= 1e-6)
    report(capsys, 6, ok,
           "worst objective slack vs grid: "
           + " ".join(f"{k}={v:.1e}" for k, v in worst.items()))
    assert worst["hard"] <= 1e-9
    assert worst["l0"] <= 1e-9
    assert worst["soft"] <= 1e-9
    assert worst["half"] <= 1e-6


# ---------------------------------------------------------------------------
# 7. greedy support recovery on clean data


def test_criterion_7_omp_recovery(capsys):
    hits = 0
    for seed in range(100):
        A, b, x_true = gen_random(40, 100, 5, noise_scale=0.0, seed=seed)
        x = omp(A, b, 5)
        if set(np.flatnonzero(x)) == set(np.flatnonzero(x_true)):
            hits += 1
    ok = hits >= 95
    report(capsys, 7, ok, f"exact support recovery on {hits}/100 seeds")
    assert hits >= 95


# ---------------------------------------------------------------------------
# 8. sparse-text parser: exact round trips, line-numbered rejections


def test_criterion_8_parser(capsys, tmp_path):
    rng = np.random.default_rng(8)
    trips = 0
    for i in range(50):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 25))
        A = rng.standard_normal((m, n))
        A[rng.random((m, n)) < 0.6] = 0.0
        b = rng.standard_normal(m)
        path = tmp_path / f"inst{i}.txt"
        save_sparse_text(path, A, b)
        A2, b2 = load_sparse_text(path)
        if A2.shape[1] < n:  # trailing all-zero columns are not recoverable
            A2 = np.hstack([A2, np.zeros((m, n - A2.shape[1]))])
        np.testing.assert_array_equal(A, A2)
        np.testing.assert_array_equal(b, b2)
        trips += 1

    rejected = 0
    from blockdec import DataFormatError
    for fname, line in MALFORMED_LINES.items():
        try:
            load_sparse_text(os.path.join(MALFORMED, fname))
        except DataFormatError as err:
            if err.line == line:
                rejected += 1
    ok = trips == 50 and rejected == len(MALFORMED_LINES)
    report(capsys, 8, ok,
           f"{trips}/50 exact round trips; {rejected}/{len(MALFORMED_LINES)} "
           f"malformed files rejected at the expected line")
    assert trips == 50
    assert rejected == len(MALFORMED_LINES)


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_criterion_9_cli_determinism(capsys, tmp_path):
    inst = tmp_path / "inst.txt"
    checked = []

    def twice(label, args, files=()):
        first = run_cli(*args)
        assert first.returncode == 0, (label, first.stderr)
        snap = [(f, open(f, "rb").read()) for f in files]
        second = run_cli(*args)
        same = first.stdout == second.stdout
        for f, blob in snap:
            same = same and open(f, "rb").read() == blob
        checked.append((label, same))

    twice("generate",
          ["generate", "--m", "10", "--n", "16", "--support", "3",
           "--noise", "0.5", "--seed", "1", "--out", str(inst)],
          files=[str(inst)])
    trace = tmp_path / "trace.csv"
    point = tmp_path / "x.txt"
    twice("solve",
          ["solve", "--instance", str(inst), "--solver", "dec", "--mode",
           "cons", "--s", "3", "--max-iters", "150", "--trace", str(trace),
           "--out", str(point)],
          files=[str(trace), str(point)])
    twice("verify",
          ["verify", "--instance", str(inst), "--point", str(point),
           "--check", "blockk", "--k", "2", "--s", "3"])
    twice("table1", ["table1", "--mode", "cons"])

    cfg = {"mode": "cons", "params": [3], "init_seeds": [0, 1],
           "max_iters": 80,
           "instances": [{"kind": "random-corrupt", "m": 12, "n": 20,
                          "support": 3, "noise": 1.0, "seed": 0}],
           "solvers": [{"name": "dec"}, {"name": "pgm"}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "bench"
    bench_files = [str(out_dir / "results.csv"), str(out_dir / "summary.csv")]
    first = run_cli("benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir))
    assert first.returncode == 0, first.stderr
    bench_files += [os.path.join(out_dir, "traces", f)
                    for f in sorted(os.listdir(out_dir / "traces"))]
    twice("benchmark",
          ["benchmark", "--config", str(cfg_path), "--out-dir", str(out_dir)],
          files=bench_files)

    bad = [label for label, same in checked if not same]
    report(capsys, 9, not bad,
           f"{len(checked)} subcommands byte-identical across repeat runs"
           + (f"; differing: {bad}" if bad else ""))
    assert not bad
