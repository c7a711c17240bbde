"""Instance generation, file formats, the benchmark runner, and the CLI."""

import os
import tracemalloc

import numpy as np
import pytest

import blockdec
from blockdec import (Cardinality, CompositeProblem, DataFormatError,
                      HalfPenalty, InvalidParameterError, L0Penalty, L1Penalty,
                      QuadraticObjective, composite_value, corrupt, gen_random,
                      load_instance, load_point, save_instance, save_point)
from blockdec.bench import (RESULTS_HEADER, SOLVERS, TRACE_HEADER, benchmark,
                            make_term, run_solver, write_trace)
from blockdec.data import (FLOAT_FMT, load_dense_instance, load_sparse_text,
                           save_sparse_text)

from conftest import run_cli as cli

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.join(os.path.dirname(HERE), "bench")
MALFORMED = os.path.join(HERE, "data", "malformed")

# file -> 1-based line where the loader must point its complaint
MALFORMED_LINES = {
    "bad_label.txt": 1,
    "bare_colon.txt": 1,
    "descending_index.txt": 2,
    "double_colon.txt": 1,
    "empty_value.txt": 1,
    "index_zero.txt": 1,
    "inf_value.txt": 4,
    "missing_colon.txt": 2,
    "nan_value.txt": 2,
    "negative_index.txt": 3,
    "non_numeric_value.txt": 2,
    "non_utf8.txt": 2,
    "repeated_index.txt": 1,
}

# name -> (loader, file text, message substring, 1-based line of the complaint);
# bytes are written as they are, so a byte that is not UTF-8 stays one
DENSE_POINT_ERRORS = {
    "empty": (load_dense_instance, "", "missing 'm n' header", 1),
    "non_integer_header": (load_dense_instance, "\n2 x\n1 2\n", "header entry 'x'", 2),
    "non_positive_header": (load_dense_instance, "0 2\n", "must be positive", 1),
    "data_on_header_line": (load_dense_instance, "1 1 5.0\n2.0\n", "header line", 1),
    "short_header_line": (load_dense_instance, "1\n1 5.0 2.0\n", "missing 'm n' header", 1),
    "bad_token": (load_dense_instance, "2 2\n1 2\n\n3 three\n5 6\n", "'three' is not a number", 4),
    # every number is parsed before any is checked for finiteness
    "bad_token_after_non_finite": (load_dense_instance, "2 2\n1 nan\n3 4\nx 6\n",
                                   "'x' is not a number", 4),
    "non_finite_token": (load_dense_instance, "2 2\n1 2\n3 4\n-inf 6\n",
                         "'-inf' is not a finite", 4),
    "ends_early": (load_dense_instance, "2 2\n1 2\n3 4\n5\n\n", "expected 8 numbers, found 7", 4),
    "trailing_data": (load_dense_instance, "1 2\n1 2\n3\n\n4 5\n", "trailing data after b", 5),
    "header_claims_1e15_columns": (load_dense_instance, "1 1000000000000000\n1 2\n3\n",
                                   "file ends early", 3),
    "point_bad_token": (load_point, "0.0\n1.0 2.0\n\n0x10\n", "'0x10' is not a number", 4),
    "point_non_finite_token": (load_point, "0.0\n1.0 1e999\n", "'1e999' is not a finite", 2),
    "non_utf8": (load_dense_instance, b"2 2\n1 2\n\xff 4\n5 6\n", "not UTF-8", 3),
    "point_non_utf8": (load_point, b"0.0\n\n1.0 2\xe9\n", "not UTF-8", 3),
}

# tokens float() accepts whose parse is easy to get wrong: underscores, bare
# signs and points, underflow to zero, the smallest subnormal, negative zero,
# the largest finite double
EDGE_TOKENS = ["1_000", "+.5", "5.", "1e-400", "4.9e-324", "-0", "-0.0e5", "1.7976931348623157e308"]


class TestGenRandom:
    def test_shapes_and_support(self):
        A, b, x = gen_random(12, 20, 5, seed=3)
        assert A.shape == (12, 20) and b.shape == (12,)
        assert np.count_nonzero(x) == 5

    def test_zero_noise_is_consistent(self):
        A, b, x = gen_random(10, 8, 3, noise_scale=0.0, seed=1)
        np.testing.assert_allclose(A @ x, b, atol=1e-12)

    def test_deterministic(self):
        first = gen_random(6, 9, 2, seed=7)
        second = gen_random(6, 9, 2, seed=7)
        for u, v in zip(first, second):
            np.testing.assert_array_equal(u, v)

    def test_noise_scale_shifts_b_only(self):
        A0, b0, x0 = gen_random(6, 9, 2, noise_scale=0.0, seed=7)
        A1, b1, x1 = gen_random(6, 9, 2, noise_scale=2.0, seed=7)
        np.testing.assert_array_equal(A0, A1)
        np.testing.assert_array_equal(x0, x1)
        assert np.linalg.norm(b1 - b0) > 0.1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gen_random(0, 5, 1)
        with pytest.raises(InvalidParameterError):
            gen_random(5, 5, 6)
        with pytest.raises(InvalidParameterError):
            gen_random(5, 5, 2, noise_scale=-1.0)


class TestCorrupt:
    def test_fraction_zero_is_identity(self):
        A = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(corrupt(A, fraction=0.0), A)

    def test_exact_count_and_multiplicative(self):
        A = np.ones((10, 10))
        C = corrupt(A, fraction=0.02, factor=100.0, seed=5)
        changed = np.flatnonzero(C != A)
        assert changed.size == 2  # round(0.02 * 100)
        np.testing.assert_allclose(C.flat[changed], 100.0)
        # untouched entries are bitwise identical
        mask = np.ones(100, dtype=bool)
        mask[changed] = False
        np.testing.assert_array_equal(C.flat[mask], A.flat[mask])

    def test_does_not_modify_input(self):
        A = np.ones((4, 4))
        corrupt(A, fraction=0.5, seed=0)
        np.testing.assert_array_equal(A, np.ones((4, 4)))

    def test_deterministic(self):
        A = np.random.default_rng(0).standard_normal((8, 8))
        np.testing.assert_array_equal(corrupt(A, 0.1, seed=4),
                                      corrupt(A, 0.1, seed=4))

    def test_fraction_validation(self):
        with pytest.raises(InvalidParameterError):
            corrupt(np.ones((2, 2)), fraction=1.5)


class TestDenseFormat:
    def test_round_trip_exact(self, tmp_path):
        A, b, _ = gen_random(7, 11, 3, seed=9)
        path = tmp_path / "inst.txt"
        save_instance(path, A, b)
        A2, b2 = load_dense_instance(path)
        np.testing.assert_array_equal(A, A2)
        np.testing.assert_array_equal(b, b2)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 -1\n")
        with pytest.raises(DataFormatError):
            load_dense_instance(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="end"):
            load_dense_instance(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("1 1\n1.0\n2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="trail"):
            load_dense_instance(path)

    def test_non_numeric_token_has_line_number(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("2 2\n1.0 2.0\nthree 4.0\n")
        with pytest.raises(DataFormatError) as err:
            load_dense_instance(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e999"])
    def test_non_finite_token_has_line_number(self, tmp_path, token):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"2 2\n1.0 2.0\n3.0 4.0\n0.5 {token}\n")
        with pytest.raises(DataFormatError, match="finite") as err:
            load_dense_instance(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("name", sorted(DENSE_POINT_ERRORS))
    def test_error_table(self, tmp_path, name):
        loader, text, message, line = DENSE_POINT_ERRORS[name]
        path = tmp_path / "bad.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(DataFormatError) as err:
            loader(path)
        assert message in str(err.value)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    def test_values_equal_float_bit_for_bit(self, tmp_path):
        path = tmp_path / "edge.txt"
        k = len(EDGE_TOKENS)
        path.write_text(f"1 {k - 1}\n" + " ".join(EDGE_TOKENS[:-1]) + "\n" + EDGE_TOKENS[-1] + "\n")
        A, b = load_dense_instance(path)
        expected = np.array([float(tok) for tok in EDGE_TOKENS])
        assert np.concatenate([A.ravel(), b]).tobytes() == expected.tobytes()
        path.write_text("\n".join(EDGE_TOKENS[::2]) + "\n" + " ".join(EDGE_TOKENS[1::2]))
        order = EDGE_TOKENS[::2] + EDGE_TOKENS[1::2]
        assert load_point(path).tobytes() == np.array([float(tok) for tok in order]).tobytes()

    def test_load_memory_grows_with_floats_not_tokens(self, tmp_path):
        """Loading a 200x2000 file peaks below 4x the bytes of A.

        Measured under tracemalloc with numpy 2.4: 6.8 MB with one float
        array per line, and 59.7 MB when every token is first held as a
        (string, line) tuple, which is what this bound exists to catch.
        """
        A, b, _ = gen_random(200, 2000, 5, seed=3)
        path = tmp_path / "inst.txt"
        save_instance(path, A, b)
        tracemalloc.start()
        try:
            A2, b2 = load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(A2, A)
        np.testing.assert_array_equal(b2, b)
        assert peak < 4 * A.nbytes, f"peak {peak / 1e6:.1f} MB"


    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_any_line_end(self, tmp_path, end):
        # lines end as text files end them on any platform; a bad token is
        # reported at the same line whichever end is used
        path = tmp_path / "ends.txt"
        path.write_bytes(end.join(["2 2", "1 2", "3 4", "5 6", ""]).encode())
        A, b = load_dense_instance(path)
        np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(b, [5.0, 6.0])
        path.write_bytes(end.join(["2 2", "1 2", "3 x", "5 6", ""]).encode())
        with pytest.raises(DataFormatError, match="line 3: 'x' is not a number"):
            load_dense_instance(path)


class TestSparseFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 9))
        A[rng.random((6, 9)) < 0.5] = 0.0
        b = rng.standard_normal(6)
        path = tmp_path / "sp.txt"
        save_sparse_text(path, A, b)
        A2, b2 = load_sparse_text(path)
        np.testing.assert_array_equal(A, A2)
        np.testing.assert_array_equal(b, b2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("1.5 1:2.0\n\n-0.5 3:4.0\n")
        A, b = load_sparse_text(path)
        assert A.shape == (2, 3)
        np.testing.assert_array_equal(b, [1.5, -0.5])
        assert A[1, 2] == 4.0

    def test_load_memory_grows_with_floats_not_tokens(self, tmp_path):
        """Loading a 100x1000 Gaussian sparse-text file peaks below 4x the bytes of A.

        Measured under tracemalloc with numpy 2.4: 2.6 MB (3.3x) with one
        index array and one value array per row, and 7.5 MB (9.4x) when each
        row is held as lists of Python ints and floats until A is filled,
        which is what this bound exists to catch.
        """
        A, b, _ = gen_random(100, 1000, 5, seed=3)
        path = tmp_path / "inst.txt"
        save_sparse_text(path, A, b)
        tracemalloc.start()
        try:
            A2, b2 = load_sparse_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(A2, A)
        np.testing.assert_array_equal(b2, b)
        assert peak < 4 * A.nbytes, f"peak {peak / 1e6:.1f} MB"

    def test_subsampling_without_replacement(self, tmp_path):
        # distinct integer entries let us identify exactly which rows and
        # columns survived the subsample
        A = np.arange(1.0, 301.0).reshape(20, 15)
        b = np.arange(1001.0, 1021.0)
        path = tmp_path / "big.txt"
        save_sparse_text(path, A, b)
        As, bs = load_sparse_text(path, rows=8, cols=6, seed=11)
        assert As.shape == (8, 6) and bs.shape == (8,)
        picked_rows = [int(v - 1001) for v in bs]
        assert len(set(picked_rows)) == 8  # no repeats
        # the same ascending column subset applies to every sampled row
        cols = [int(As[0, j] - 1 - picked_rows[0] * 15) for j in range(6)]
        assert cols == sorted(set(cols))
        np.testing.assert_array_equal(As, A[np.ix_(picked_rows, cols)])

    def test_subsample_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 10))
        b = rng.standard_normal(10)
        path = tmp_path / "d.txt"
        save_sparse_text(path, A, b)
        one = load_sparse_text(path, rows=4, cols=5, seed=9)
        two = load_sparse_text(path, rows=4, cols=5, seed=9)
        np.testing.assert_array_equal(one[0], two[0])
        np.testing.assert_array_equal(one[1], two[1])

    @pytest.mark.parametrize("index", [10**15, 10**19])
    def test_absurd_feature_index_is_data_error(self, tmp_path, index):
        # numpy refuses both sizes at once (MemoryError, ValueError)
        path = tmp_path / "huge.txt"
        path.write_text(f"1.0 2:1.0\n\n2.0 {index}:2.0\n-1.0 3:1.0\n")
        with pytest.raises(DataFormatError, match=f"feature index {index} is too large") as err:
            load_sparse_text(path)
        assert err.value.line == 3

    def test_oversized_subsample_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1.0 1:1.0\n")
        with pytest.raises(InvalidParameterError):
            load_sparse_text(path, rows=5)

    @pytest.mark.parametrize("fname", sorted(MALFORMED_LINES))
    def test_malformed_corpus(self, fname):
        with pytest.raises(DataFormatError) as err:
            load_sparse_text(os.path.join(MALFORMED, fname))
        assert err.value.line == MALFORMED_LINES[fname]
        assert f"line {MALFORMED_LINES[fname]}:" in str(err.value)


class TestLoadInstanceSniffing:
    def test_dense_detected(self, tmp_path):
        A, b, _ = gen_random(4, 6, 2, seed=0)
        path = tmp_path / "dense.txt"
        save_instance(path, A, b)
        A2, b2 = load_instance(str(path))
        np.testing.assert_array_equal(A, A2)

    def test_sparse_detected(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("2.0 1:1.0 3:5.0\n-1.0 2:2.0\n")
        A, b = load_instance(str(path))
        assert A.shape == (2, 3)
        np.testing.assert_array_equal(b, [2.0, -1.0])

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_instance("/nonexistent/inst.txt")


class TestPointFiles:
    def test_round_trip(self, tmp_path):
        x = np.array([0.0, -1.25, 3e-17, 2.0])
        path = tmp_path / "x.txt"
        save_point(path, x)
        np.testing.assert_array_equal(load_point(path), x)

    def test_length_check(self, tmp_path):
        path = tmp_path / "x.txt"
        save_point(path, np.ones(3))
        with pytest.raises(DataFormatError):
            load_point(path, n=5)

    def test_non_finite_entry_has_line_number(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0.0\n1.0\nnan\n")
        with pytest.raises(DataFormatError) as err:
            load_point(path)
        assert err.value.line == 3


class TestRunSolver:
    def test_unknown_name_lists_valid(self):
        A, b, _ = gen_random(5, 8, 2, seed=0)
        with pytest.raises(InvalidParameterError, match="dec"):
            run_solver("sgd", A, b, "cons", 2, 0)

    def test_omp_requires_cons(self):
        A, b, _ = gen_random(5, 8, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            run_solver("omp", A, b, "regu", 0.1, 0)

    def test_make_term_validation(self):
        with pytest.raises(InvalidParameterError):
            make_term("l2", 1.0)

    def test_dec_trace_objectives_decrease(self):
        A, b, _ = gen_random(10, 16, 4, noise_scale=1.0, seed=2)
        x, trace, _ = run_solver("dec", A, b, "cons", 4, 0, max_iters=200)
        objs = trace.objectives()
        assert all(objs[i + 1] <= objs[i] + 1e-12 for i in range(len(objs) - 1))
        assert np.count_nonzero(x) <= 4

    def test_cvx_l1_takes_stopping_flags(self):
        A, b, _ = gen_random(20, 40, 4, noise_scale=1.0, seed=3)
        x, trace, _ = run_solver("cvx-l1", A, b, "cons", 4, 0, max_iters=5)
        assert trace is None
        np.testing.assert_array_equal(x, blockdec.cvx_l1_sweep(A, b, 4, max_iters=5))
        # five iterations stop short of the default run on this instance
        assert not np.array_equal(x, run_solver("cvx-l1", A, b, "cons", 4, 0)[0])


# every solver name in every mode it allows, with the term that scores it
# written out independently of the solver table
SOLVER_MODES = [(name, mode) for name, spec in SOLVERS.items()
                for mode in (("cons",) if spec.cons_only else ("cons", "regu"))]


def _scoring_term(name, mode, param):
    if name == "pgm-l1":
        return L1Penalty(param)
    if name == "pgm-lhalf":
        return HalfPenalty(param)
    return Cardinality(param) if mode == "cons" else L0Penalty(param)


class TestSolverParity:
    @pytest.mark.parametrize("name,mode", SOLVER_MODES,
                             ids=[f"{n}-{m}" for n, m in SOLVER_MODES])
    def test_cli_benchmark_and_fresh_objective_agree(self, tmp_path, name, mode):
        A, b, _ = gen_random(12, 20, 3, noise_scale=1.0, seed=4)
        inst = tmp_path / "inst.txt"
        save_instance(inst, A, b)
        by_lambda = SOLVERS[name].lambda_param or mode == "regu"
        param = 0.5 if by_lambda else 3
        point = tmp_path / "x.txt"
        r = cli("solve", "--instance", str(inst), "--solver", name,
                "--mode", mode, "--lambda" if by_lambda else "--s", str(param),
                "--max-iters", "80", "--seed", "1", "--out", str(point))
        assert r.returncode == 0, r.stderr
        fields = dict(tok.split("=") for tok in r.stdout.split("\n")[1].split())

        benchmark({"mode": mode, "params": [param], "init_seeds": [1],
                   "max_iters": 80, "solvers": [{"name": name}],
                   "instances": [{"kind": "file", "path": str(inst)}]},
                  str(tmp_path / "run"))
        row = (tmp_path / "run" / "results.csv").read_text().split("\n")[1].split(",")

        A2, b2 = load_instance(str(inst))
        x = load_point(point)
        fresh = composite_value(CompositeProblem(QuadraticObjective(A=A2, b=b2),
                                                 _scoring_term(name, mode, param)), x)
        assert fields["final_objective"] == row[5] == FLOAT_FMT % fresh
        assert int(fields["nnz"]) == int(row[6]) == np.count_nonzero(x)

    @pytest.mark.parametrize("name", [n for n, spec in SOLVERS.items() if spec.cons_only])
    def test_cons_only_names_rejected_in_regu_mode(self, tmp_path, name):
        inst = tmp_path / "inst.txt"
        save_instance(inst, *gen_random(6, 8, 2, seed=0)[:2])
        r = cli("solve", "--instance", str(inst), "--solver", name,
                "--mode", "regu", "--lambda", "0.5")
        assert r.returncode == 1
        assert "requires cons mode" in r.stderr
        with pytest.raises(InvalidParameterError):
            benchmark({"mode": "regu", "params": [0.5], "solvers": [{"name": name}],
                       "instances": [{"kind": "file", "path": str(inst)}]},
                      str(tmp_path / "run"))


class TestBenchHooks:
    def test_tracer_installs_restores_and_sees_harness_calls(self, tmp_path,
                                                              monkeypatch):
        monkeypatch.syspath_prepend(BENCH_DIR)
        import tracing

        config = {"params": [2], "max_iters": 20,
                  "solvers": [{"name": n} for n in ("dec", "pgm", "apgm", "omp")],
                  "instances": [{"kind": "random", "m": 8, "n": 12, "support": 2}]}
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            blockdec.bench.benchmark(config, str(tmp_path))
        spans = tracer.summary()
        for span in ("bench.run_solver", "dec.init_solution", "dec.run_dec",
                     "baselines.pgm", "baselines.apgm", "baselines.omp",
                     "problem.composite_value"):
            assert span in spans, span
        assert blockdec.bench.pgm is blockdec.baselines.pgm  # restored on exit
        assert isinstance(blockdec.problem._GRAM_CACHE_LIMIT, int)

    def test_dec_cell_fires_selection_and_block_spans(self, tmp_path, monkeypatch):
        # the benchmark's per-layer working_set and subproblem metrics read
        # these span and counter names
        monkeypatch.syspath_prepend(BENCH_DIR)
        import tracing

        config = {"params": [2], "max_iters": 20, "solvers": [{"name": "dec"}],
                  "instances": [{"kind": "random", "m": 8, "n": 12, "support": 2}]}
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            blockdec.bench.benchmark(config, str(tmp_path))
        spans = tracer.summary()
        for span in ("working_set.select", "working_set.greedy_scores",
                     "subproblem.solve_block"):
            assert span in spans, span
        assert tracer.counts["subproblem.patterns_evaluated"] > 0
        # the loop computes the gradient once per point it visits, and no
        # consumer rebuilds it from products
        assert "problem.matvec" not in spans and "problem.linear_term" not in spans
        assert tracer.counts["dec.moves"] > 0
        assert spans["problem.gradient"][0] == 1 + tracer.counts["dec.moves"]


class TestWriteTrace:
    def test_schema(self, tmp_path):
        A, b, _ = gen_random(6, 10, 3, noise_scale=1.0, seed=1)
        _, trace, _ = run_solver("dec", A, b, "cons", 3, 0, max_iters=60)
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + len(trace)
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1]), float(first[2])  # parseable numerics
        ws = first[3].split(";")
        assert all(tok.isdigit() for tok in ws)
        assert first[4] == "0"  # timing off => elapsed column zeroed


class TestBenchmark:
    CONFIG = {
        "mode": "cons",
        "params": [3],
        "init_seeds": [0, 1, 2, 3, 4],
        "max_iters": 150,
        "instances": [
            {"kind": "random", "m": 10, "n": 16, "support": 3, "noise": 1.0,
             "seed": 0},
        ],
        "solvers": [
            {"name": "dec", "krand": 3, "kgreedy": 1},
            {"name": "pgm"},
        ],
    }

    def test_row_counts_and_files(self, tmp_path):
        out = tmp_path / "run"
        rows = benchmark(dict(self.CONFIG), str(out))
        assert len(rows) == 1 * 2 * 1 * 5  # instances x solvers x params x seeds
        results = (out / "results.csv").read_text().strip().split("\n")
        assert results[0] == RESULTS_HEADER
        assert len(results) == 11
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 3  # header + one row per (instance, solver)
        traces = os.listdir(out / "traces")
        assert len(traces) == 10
        assert "random-m10-n16-k3-seed0_dec-R3G1_3_0.csv" in traces

    def test_final_objective_matches_recomputation(self, tmp_path):
        out = tmp_path / "chk"
        rows = benchmark(dict(self.CONFIG), str(out))
        A, b, _ = gen_random(10, 16, 3, noise_scale=1.0, seed=0)
        for row in rows:
            parts = row.split(",")
            if not parts[1].startswith("dec"):
                continue
            x, _, _ = run_solver("dec", A, b, "cons", 3, int(parts[4]),
                              max_iters=150, krand=3, kgreedy=1)
            resid = 0.5 * np.linalg.norm(A @ x - b) ** 2
            assert abs(float(parts[5]) - resid) < 1e-9

    def test_config_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            benchmark({"params": [1], "solvers": [{"name": "dec"}],
                       "instances": []}, str(tmp_path / "x"))
        with pytest.raises(InvalidParameterError):
            benchmark({"params": [], "solvers": [{"name": "dec"}]},
                      str(tmp_path / "y"))

    # two specs sharing a label would overwrite each other's traces and be
    # pooled into one summary row
    LABEL_CLASH = [{"name": "dec", "krand": 4, "kgreedy": 2}, {"name": "dec"},
                   {"name": "pgm", "label": "dec-R4G2"}]

    @pytest.mark.parametrize("solvers", [
        LABEL_CLASH,
        LABEL_CLASH[:2],
        LABEL_CLASH[1:],
        [{"name": "pgm"}, {"name": "apgm", "label": "pgm"}],
        [{"name": "dec", "theta": 0.1}],
    ])
    def test_label_clash_and_unknown_solver_key_rejected(self, tmp_path, solvers):
        cfg = dict(self.CONFIG, solvers=solvers)
        with pytest.raises(InvalidParameterError):
            benchmark(cfg, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_distinct_labels_and_top_level_workers_accepted(self, tmp_path):
        cfg = dict(self.CONFIG, init_seeds=[0], workers=1, solvers=[
            {"name": "dec"}, {"name": "dec", "krand": 3, "kgreedy": 1},
            {"name": "pgm", "label": "pgm-from-zero"}])
        rows = benchmark(cfg, str(tmp_path))
        assert [r.split(",")[1] for r in rows] == ["dec-R4G2", "dec-R3G1", "pgm-from-zero"]


class TestCli:
    def test_generate_solve_verify_flow(self, tmp_path):
        inst = tmp_path / "inst.txt"
        point = tmp_path / "x.txt"
        r = cli("generate", "--m", "10", "--n", "16", "--support", "3",
                "--noise", "0.5", "--seed", "2", "--out", str(inst))
        assert r.returncode == 0, r.stderr
        assert inst.exists()

        # a full working set makes every iteration a global restricted
        # solve, so the converged point is certifiably L-stationary below
        r = cli("solve", "--instance", str(inst), "--solver", "dec",
                "--mode", "cons", "--s", "3", "--krand", "16",
                "--kgreedy", "0", "--window", "10", "--max-iters", "200",
                "--out", str(point))
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().split("\n")
        assert lines[0].startswith("solver=dec")
        fields = dict(tok.split("=") for tok in lines[1].split())
        assert set(fields) == {"final_objective", "nnz", "iters", "status"}
        assert int(fields["nnz"]) <= 3

        r = cli("verify", "--instance", str(inst), "--point", str(point),
                "--check", "lstat", "--s", "3")
        assert r.returncode == 0, r.stderr
        assert "result=true" in r.stdout

    def test_solve_missing_param_is_usage_error(self, tmp_path):
        inst = tmp_path / "i.txt"
        save_instance(inst, *gen_random(4, 6, 2, seed=0)[:2])
        r = cli("solve", "--instance", str(inst), "--solver", "dec",
                "--mode", "cons")
        assert r.returncode == 1

    def test_missing_file_is_data_error(self):
        r = cli("solve", "--instance", "/no/such/file", "--solver", "pgm",
                "--mode", "cons", "--s", "2")
        assert r.returncode == 2

    def test_malformed_file_is_data_error_with_line(self):
        r = cli("solve", "--instance",
                os.path.join(MALFORMED, "missing_colon.txt"),
                "--solver", "pgm", "--mode", "cons", "--s", "2")
        assert r.returncode == 2
        assert "line 2" in r.stderr

    @pytest.mark.parametrize("solver", ["dec", "pgm"])
    def test_non_finite_instance_is_data_error(self, tmp_path, solver):
        inst = tmp_path / "nan.txt"
        save_instance(inst, *gen_random(4, 6, 2, seed=0)[:2])
        lines = inst.read_text().split("\n")
        lines[2] = "nan " + lines[2].split(" ", 1)[1]
        inst.write_text("\n".join(lines))
        r = cli("solve", "--instance", str(inst), "--solver", solver,
                "--mode", "cons", "--s", "2")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "line 3" in r.stderr

    def test_absurd_feature_index_is_data_error(self, tmp_path):
        inst = tmp_path / "huge.txt"
        inst.write_text("1.0 1000000000000000:2.0\n")
        r = cli("solve", "--instance", str(inst), "--solver", "pgm", "--mode", "cons", "--s", "1")
        assert r.returncode == 2
        assert r.stderr.count("\n") == 1 and r.stderr.startswith("error: line 1: ")

    def test_non_utf8_file_is_data_error(self, tmp_path):
        inst = tmp_path / "bad.txt"
        inst.write_bytes(b"2 2\n1 2\n\xff 4\n5 6\n")
        r = cli("solve", "--instance", str(inst), "--solver", "pgm", "--mode", "cons", "--s", "1")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "line 3" in r.stderr

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowing_gram_is_numerical_error(self, tmp_path, command):
        # finite entries load, but A'A and AA' overflow double precision
        inst, point = tmp_path / "big.txt", tmp_path / "x.txt"
        save_instance(inst, np.full((3, 4), 1e200), np.ones(3))
        save_point(point, np.zeros(4))
        args = (["solve", "--solver", "pgm", "--mode", "cons"] if command == "solve"
                else ["verify", "--point", str(point), "--check", "lstat"])
        r = cli(*args, "--instance", str(inst), "--s", "2")
        assert r.returncode == 3
        assert r.stderr.count("\n") == 1 and r.stderr.startswith("error: ")

    def test_unknown_subcommand_is_usage_error(self):
        assert cli("frobnicate").returncode == 1

    def test_table1_output_shape(self):
        r = cli("table1", "--mode", "cons")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().split("\n")
        assert lines[0].split(",")[:2] == ["basic", "l_stationary"]
        assert [int(v) for v in lines[1].split(",")] == [57, 14, 2, 1, 1, 1, 1]

    def test_benchmark_subcommand(self, tmp_path):
        import json
        cfg = dict(TestBenchmark.CONFIG)
        cfg["init_seeds"] = [0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        r = cli("benchmark", "--config", str(cfg_path), "--out-dir", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()

    def test_benchmark_label_clash_is_usage_error(self, tmp_path):
        import json
        cfg = dict(TestBenchmark.CONFIG, solvers=TestBenchmark.LABEL_CLASH)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = cli("benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
        assert r.returncode == 1
        assert "dec-R4G2" in r.stderr and "Traceback" not in r.stderr
