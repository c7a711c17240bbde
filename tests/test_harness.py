"""Instance generation, file formats, the benchmark runner, and the CLI."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

import blockdec
from blockdec import data as data_module
from blockdec import (Cardinality, CompositeProblem, DataFormatError, DecConfig,
                      HalfPenalty, InvalidParameterError, L0Penalty, L1Penalty,
                      QuadraticObjective, composite_value, corrupt, gen_random,
                      load_instance, load_point, save_instance, save_point)
from blockdec.bench import (RESULTS_HEADER, SOLVERS, TRACE_HEADER, benchmark,
                            make_term, run_solver, write_trace)
from blockdec.data import (FLOAT_FMT, load_dense_instance, load_sparse_text,
                           save_sparse_text)

from conftest import factor_gram
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

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(InvalidParameterError, match="finite"):
            gen_random(5, 5, 2, noise_scale=noise)


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

    @pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_rejected(self, factor):
        # even when no entry would be scaled
        for fraction in (0.5, 0.0):
            with pytest.raises(InvalidParameterError, match="finite"):
                corrupt(np.ones((2, 2)), fraction=fraction, factor=factor)


class TestDenseFormat:
    def test_round_trip_exact(self, tmp_path):
        A, b, _ = gen_random(7, 11, 3, seed=9)
        path = tmp_path / "inst.txt"
        save_instance(path, A, b)
        A2, b2 = load_dense_instance(path)
        np.testing.assert_array_equal(A, A2)
        np.testing.assert_array_equal(b, b2)

    def test_bytes_equal_one_format_per_value(self, tmp_path):
        # the writers format a row with one % on a template; the bytes are
        # those of FLOAT_FMT applied to each value alone
        special = [-0.0, 5e-324, 1e308, 0.1, -1.5e-300, 123456789.125]
        A = np.array([special, special[::-1]])
        b = np.array([0.1, -0.0])
        save_instance(tmp_path / "inst.txt", A, b)
        rows = [" ".join(FLOAT_FMT % v for v in row) for row in (*A, b)]
        assert (tmp_path / "inst.txt").read_bytes() == (
            "2 6\n" + "\n".join(rows) + "\n").encode()
        save_point(tmp_path / "x.txt", np.array(special))
        assert (tmp_path / "x.txt").read_bytes() == "".join(
            FLOAT_FMT % v + "\n" for v in special).encode()
        save_point(tmp_path / "empty.txt", np.zeros(0))
        assert (tmp_path / "empty.txt").read_bytes() == b""

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
        """Loading a 200x2000 file peaks at most 1.2x the bytes of A and b.

        Measured under tracemalloc with numpy 2.4: 1.11x with one array
        filled line by line; 2.14x with one float array per line, joined
        into a second copy and checked through a bool mask; and 18.6x when
        every token is first held as a (string, line) tuple.
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
        assert peak <= 1.2 * (A.nbytes + b.nbytes), f"peak {peak / 1e6:.2f} MB"

    def test_header_claim_past_the_file_allocates_only_the_file(self, tmp_path):
        # the claim is 2e9 numbers (16 GB); the array is capped by the
        # file's 20 bytes, and the error is the one a short file gets
        path = tmp_path / "claim.txt"
        path.write_text("1000000000 1\n1 2\n3\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError) as err:
                load_dense_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == ("line 3: file ends early: expected 2000000002 numbers, "
                                  "found 5")
        assert peak < 1e6, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("save,load", [(save_instance, load_instance),
                                           (save_sparse_text, load_sparse_text)],
                             ids=["dense", "sparse"])
    def test_finite_entries_whose_sum_overflows_load(self, tmp_path, save, load):
        # the finiteness check sums first; a sum that overflows on finite
        # entries falls back to min and max and is accepted
        big = 1.7976931348623157e308
        A, b = np.array([[big, big, 1.0], [1.0, -big, -big]]), np.array([big, big])
        save(tmp_path / "big.txt", A, b)
        A2, b2 = load(tmp_path / "big.txt")
        assert (A2.tobytes(), b2.tobytes()) == (A.tobytes(), b.tobytes())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    @pytest.mark.parametrize("grow_from", [1, 5, 1 << 16])
    def test_unsized_file_grows_its_array(self, tmp_path, monkeypatch, grow_from):
        # a FIFO reports no size: the array starts at _GROW_FROM entries and
        # doubles, capped at the header's claim, and holds the same bits
        monkeypatch.setattr(data_module, "_GROW_FROM", grow_from)
        A, b, _ = gen_random(5, 7, 2, seed=1)
        x = A[1]
        for save, load, want in ((save_instance, load_dense_instance, (A, b)),
                                 (save_point, load_point, (x,))):
            save(tmp_path / "file.txt", *want)
            fifo = tmp_path / f"{load.__name__}.fifo"
            os.mkfifo(fifo)
            feeder = threading.Thread(
                target=fifo.write_bytes, args=((tmp_path / "file.txt").read_bytes(),),
                daemon=True)
            feeder.start()
            got = load(fifo)
            feeder.join(timeout=10)
            assert not feeder.is_alive()
            got = got if isinstance(got, tuple) else (got,)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    @pytest.mark.parametrize("per_line", [None, 4, 1], ids=["rows", "split", "one-per-line"])
    def test_special_values_round_trip_bit_for_bit(self, tmp_path, per_line):
        # the numbers are one token stream: A's rows may break anywhere and b
        # may share a line with A; every bit survives, the sign of -0.0 too
        special = np.array([-0.0, 5e-324, 1.7976931348623157e308, -5e-324,
                            -1.7976931348623157e308, 0.1, 0.0])
        A = np.array([special, special[::-1], -special])
        b = special[2:5]
        path = tmp_path / "inst.txt"
        save_instance(path, A, b)
        if per_line:
            toks = path.read_text().split()
            path.write_text(" ".join(toks[:2]) + "\n" + "".join(
                " ".join(toks[i:i + per_line]) + "\n" for i in range(2, len(toks), per_line)))
        A2, b2 = load_instance(path)
        assert (A2.tobytes(), b2.tobytes()) == (A.tobytes(), b.tobytes())
        x = np.concatenate([special, -special])
        save_point(path, x)
        if per_line:
            toks = path.read_text().split()
            path.write_text("".join(" ".join(toks[i:i + per_line]) + "\n"
                                    for i in range(0, len(toks), per_line)))
        assert load_point(path).tobytes() == x.tobytes()


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

    def test_finiteness_check_builds_no_mask_the_size_of_A(self, tmp_path, monkeypatch):
        # every row is dense; the check reads row-wise min and max, so no
        # isfinite call sees more than one entry per row
        A, b, _ = gen_random(30, 40, 5, seed=3)
        path = tmp_path / "inst.txt"
        save_sparse_text(path, A, b)
        sizes, isfinite = [], np.isfinite

        def recording(x, *args, **kw):
            sizes.append(np.size(x))
            return isfinite(x, *args, **kw)

        monkeypatch.setattr(np, "isfinite", recording)
        A2, b2 = load_sparse_text(path)
        np.testing.assert_array_equal(A2, A)
        assert sizes and max(sizes) <= 30

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


def _load_from_fifo(tmp_path, load, text):
    """``load`` on a FIFO that another thread feeds ``text``; returns its value or error.

    A loader that opened the path a second time would wait there for a
    writer that never comes: the test gives it one to end the wait, then
    fails.
    """
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    result = {}

    def read():
        try:
            result["value"] = load(fifo)
        except DataFormatError as exc:
            result["error"] = exc

    reader = threading.Thread(target=read, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=10)
    writer.join(timeout=10)
    if reader.is_alive():
        try:  # the reader's open counts as one, so this open does not block
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join(timeout=10)
        pytest.fail(f"{load.__name__} was still reading the FIFO after 10 s")
    assert not writer.is_alive()
    return result


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
class TestEachLoaderOpensItsFileOnce:
    """A pipe's data can be read once: no loader may open its path again."""

    def test_load_instance_dense(self, tmp_path):
        got = _load_from_fifo(tmp_path, load_instance, "2 2\n1 2\n3 4\n5 6\n")
        A, b = got["value"]
        np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(b, [5.0, 6.0])

    def test_load_instance_sparse(self, tmp_path):
        got = _load_from_fifo(tmp_path, load_instance, "2.0 1:1.0 3:5.0\n-1.0 2:2.0\n")
        A, b = got["value"]
        np.testing.assert_array_equal(A, [[1.0, 0.0, 5.0], [0.0, 2.0, 0.0]])
        np.testing.assert_array_equal(b, [2.0, -1.0])

    @pytest.mark.parametrize("load, text, line", [
        (load_point, "1\nnan\n", 2),
        (load_dense_instance, "2 2\n1 2\n3 inf\n5 6\n", 3),
        (load_instance, "2 2\n1 2\n3 4\n5 -inf\n", 4),
    ], ids=["point", "dense", "instance"])
    def test_a_non_finite_number_is_found_in_the_same_stream(self, tmp_path, load, text, line):
        got = _load_from_fifo(tmp_path, load, text)
        assert "not a finite number" in str(got["error"]) and got["error"].line == line

    @pytest.mark.parametrize("check_every", [1, 3, 1 << 10])
    def test_the_first_non_finite_token_at_any_check_size(self, tmp_path, monkeypatch,
                                                          check_every):
        # numbers are checked in batches of lines; the error names the first
        # bad token and its line wherever a batch ends
        monkeypatch.setattr(data_module, "_CHECK_EVERY", check_every)
        rows = ["1 2", "3", "", "4 5 6", "7 8", "9"]
        path = tmp_path / "x.txt"
        for i in range(9):
            tokens = " ".join(rows).split()
            tokens[i] = "-inf"
            text, k = [], 0
            for row in rows:
                width = len(row.split())
                text.append(" ".join(tokens[k:k + width]))
                k += width
            path.write_text("\n".join(text) + "\n")
            line = next(ln for ln, row in enumerate(text, 1) if "-inf" in row.split())
            with pytest.raises(DataFormatError, match="'-inf' is not a finite") as err:
                load_point(path)
            assert err.value.line == line
        path.write_text("1 nan\n2\nx 3\n")  # every number is parsed first
        with pytest.raises(DataFormatError, match="'x' is not a number"):
            load_point(path)


class TestRunSolver:
    def test_unknown_name_lists_valid(self):
        A, b, _ = gen_random(5, 8, 2, seed=0)
        with pytest.raises(InvalidParameterError, match="dec"):
            run_solver("sgd", QuadraticObjective(A=A, b=b), "cons", 2, DecConfig())

    def test_omp_requires_cons(self):
        A, b, _ = gen_random(5, 8, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            run_solver("omp", QuadraticObjective(A=A, b=b), "regu", 0.1, DecConfig())

    @pytest.mark.parametrize("name", ["omp", "cvx-l1"])
    def test_support_based_solvers_need_factored_data(self, name):
        # their refits read A and b: a problem given by its Gram data is
        # refused as such, and once factored it gives the same x to rounding,
        # since both solvers depend on A and b only through A'A and A'b
        A, b, _ = gen_random(5, 8, 2, seed=0)
        Q, p = A.T @ A, -(A.T @ b)
        with pytest.raises(TypeError):
            QuadraticObjective(Q=Q, p=p)
        x, _, _ = run_solver(name, QuadraticObjective(A=A, b=b), "cons", 2, DecConfig())
        x_gram, _, _ = run_solver(name, factor_gram(Q, p), "cons", 2, DecConfig())
        np.testing.assert_allclose(x_gram, x, rtol=1e-8, atol=1e-10)

    def test_make_term_validation(self):
        with pytest.raises(InvalidParameterError):
            make_term("l2", 1.0)

    def test_make_term_rejects_a_fractional_level(self):
        with pytest.raises(InvalidParameterError, match="2.5"):
            make_term("cons", 2.5)
        term = make_term("cons", 10.0)
        assert isinstance(term, Cardinality) and term.s == 10

    def test_dec_trace_objectives_decrease(self):
        A, b, _ = gen_random(10, 16, 4, noise_scale=1.0, seed=2)
        x, trace, _ = run_solver("dec", QuadraticObjective(A=A, b=b), "cons", 4,
                                 DecConfig(max_iters=200))
        objs = trace.objectives()
        assert all(objs[i + 1] <= objs[i] + 1e-12 for i in range(len(objs) - 1))
        assert np.count_nonzero(x) <= 4

    def test_cvx_l1_takes_stopping_flags(self):
        A, b, _ = gen_random(20, 40, 4, noise_scale=1.0, seed=3)
        obj = QuadraticObjective(A=A, b=b)
        x, trace, _ = run_solver("cvx-l1", obj, "cons", 4, DecConfig(max_iters=5))
        assert trace is None
        # a fresh objective gives the same bits as the shared one
        fresh = QuadraticObjective(A=A, b=b)
        np.testing.assert_array_equal(x, blockdec.cvx_l1_sweep(fresh, 4, max_iters=5))
        # five iterations stop short of the default run on this instance
        assert not np.array_equal(x, run_solver("cvx-l1", obj, "cons", 4, DecConfig())[0])


# stopping settings under which no iterative run is meaningful, and the
# solvers (with a mode and parameter each) that take them
BAD_STOPS = [{"window": 0}, {"window": -5}, {"epsilon": -1.0}, {"epsilon": float("nan")},
             {"max_iters": 0}]
BAD_STOP_IDS = ["window-0", "window-neg", "epsilon-neg", "epsilon-nan", "max-iters-0"]
STOPPED_SOLVERS = [("pgm", "cons", 2), ("apgm", "regu", 0.5), ("cvx-l1", "cons", 2),
                   ("pgm-l1", "cons", 0.5), ("pgm-lhalf", "regu", 0.5)]


def _instance(config, **changes):
    """``config`` with its one instance changed; a None value removes the key."""
    spec = {**config["instances"][0], **changes}
    return dict(config, instances=[{k: v for k, v in spec.items() if v is not None}])


def _file_instance(config, **spec):
    """``config`` with one file instance, by default the working directory's inst.txt."""
    return dict(config, instances=[{"kind": "file", "path": "inst.txt", **spec}])


# a config change -> what the one error line names; each is found before
# any output exists
BAD_CONFIGS = {
    "window-0": (lambda c: dict(c, window=0), "window"),
    "window-str": (lambda c: dict(c, window="x"), "window"),
    "seeds-empty": (lambda c: dict(c, init_seeds=[]), "init_seeds"),
    "seeds-str": (lambda c: dict(c, init_seeds="3"), "init_seeds"),
    "seeds-null": (lambda c: dict(c, init_seeds=None), "init_seeds"),
    "seed-frac": (lambda c: dict(c, init_seeds=[1.5]), "init seed"),
    "seed-str": (lambda c: dict(c, init_seeds=["a"]), "init seed"),
    "seed-neg": (lambda c: dict(c, init_seeds=[-1]), "init seed"),
    "param-str": (lambda c: dict(c, params=["x"]), "param"),
    "param-null": (lambda c: dict(c, params=[None]), "param"),
    "params-int": (lambda c: dict(c, params=3), "params"),
    "m-str": (lambda c: _instance(c, m="a"), "'m'"),
    "no-support": (lambda c: _instance(c, support=None), "support"),
    "instance-seed-neg": (lambda c: _instance(c, seed=-1), "seed"),
    "krand-str": (lambda c: dict(c, solvers=[{"name": "dec", "krand": "a"}]), "krand"),
    "krand-neg": (lambda c: dict(c, solvers=[{"name": "dec", "krand": -1}]), "working-set"),
    "krand-above-n": (lambda c: dict(c, solvers=[{"name": "dec", "krand": 30}]),
                      "exceeds n = 16"),
    "solver-str": (lambda c: dict(c, solvers=["pgm"]), "solver entry"),
    "solver-name-list": (lambda c: dict(c, solvers=[{"name": ["pgm"]}]), "unknown solver"),
    "top-level-list": (lambda c: [c], "JSON object"),
    # names become trace file names and CSV fields
    "name-escapes": (lambda c: _file_instance(c, name="../../escaped"), "instance name"),
    "name-int": (lambda c: _file_instance(c, name=7), "instance name"),
    "basename-comma": (lambda c: _file_instance(c, path="a,b.txt"), "instance name"),
    "label-slash": (lambda c: dict(c, solvers=[{"name": "pgm", "label": "sub/x"}]),
                    "solver label"),
    "label-int": (lambda c: dict(c, solvers=[{"name": "pgm", "label": 7}]), "solver label"),
    "label-comma": (lambda c: dict(c, solvers=[{"name": "pgm", "label": "p,q"}]),
                    "solver label"),
    "s-above-n": (lambda c: dict(c, params=[3, 17]), "cardinality bound 17 exceeds dimension 16"),
    "timing-str": (lambda c: dict(c, timing="false"), "timing"),
    # two instances under one name would share trace files and summary rows
    "name-dup-generated": (lambda c: dict(c, instances=[
        {"kind": "random", "m": 8, "n": 12, "support": 2, "seed": 1, "noise": noise}
        for noise in (10.0, 0.5)]), "duplicate instance name 'random-m8-n12-k2-seed1'"),
    "name-dup-basename": (lambda c: dict(c, instances=[
        {"kind": "file", "path": path} for path in ("inst.txt", os.path.join("sub", "inst.txt"))]),
        "duplicate instance name 'inst'"),
}


class TestStoppingSettings:
    @pytest.mark.parametrize("stop", BAD_STOPS, ids=BAD_STOP_IDS)
    @pytest.mark.parametrize("name, mode, param", STOPPED_SOLVERS,
                             ids=[s[0] for s in STOPPED_SOLVERS])
    def test_solvers_reject_bad_stopping_settings(self, name, mode, param, stop):
        # a run's settings are checked where its DecConfig is made ...
        with pytest.raises(InvalidParameterError):
            DecConfig(**stop)
        # ... and each iterative solver checks them again at its start
        config = DecConfig()
        vars(config).update(stop)
        A, b, _ = gen_random(6, 10, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            run_solver(name, QuadraticObjective(A=A, b=b), mode, param, config)

    @pytest.mark.parametrize("stop", BAD_STOPS, ids=BAD_STOP_IDS)
    def test_benchmark_rejects_them_before_writing(self, tmp_path, stop):
        cfg = dict(TestBenchmark.CONFIG, **stop)
        with pytest.raises(InvalidParameterError):
            benchmark(cfg, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    # each solver once, each setting once; omp takes none but checks them all
    @pytest.mark.parametrize("solver, stop", [(s[0], stop) for s, stop in
                                              zip(STOPPED_SOLVERS, BAD_STOPS)]
                             + [("omp", stop) for stop in BAD_STOPS],
                             ids=[f"{s[0]}-{i}" for s, i in zip(STOPPED_SOLVERS, BAD_STOP_IDS)]
                             + [f"omp-{i}" for i in BAD_STOP_IDS])
    def test_cli_exits_1(self, tmp_path, solver, stop):
        (key, value), = stop.items()
        inst = tmp_path / "i.txt"
        save_instance(inst, *gen_random(6, 10, 2, seed=0)[:2])
        r = cli("solve", "--instance", str(inst), "--solver", solver, "--mode", "cons",
                "--s", "2", "--lambda", "0.5", "--" + key.replace("_", "-"), str(value))
        assert r.returncode == 1, r.stderr
        assert key in r.stderr
        assert "Traceback" not in r.stderr and "final_objective" not in r.stdout

    @pytest.mark.parametrize("theta", [0.0, float("inf"), float("nan")])
    def test_benchmark_rejects_bad_theta_before_writing(self, tmp_path, theta):
        with pytest.raises(InvalidParameterError, match="theta"):
            benchmark(dict(TestBenchmark.CONFIG, theta=theta), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("theta", ["inf", "nan"])
    def test_cli_dec_rejects_non_finite_theta(self, tmp_path, theta):
        inst = tmp_path / "i.txt"
        save_instance(inst, *gen_random(6, 10, 2, seed=0)[:2])
        r = cli("solve", "--instance", str(inst), "--solver", "dec", "--mode", "cons",
                "--s", "3", "--theta", theta)
        assert r.returncode == 1, r.stderr
        assert "theta" in r.stderr
        assert "Traceback" not in r.stderr and "final_objective" not in r.stdout

    @pytest.mark.parametrize("bad, message", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
    def test_cli_benchmark_exits_1_and_writes_nothing(self, tmp_path, bad, message):
        import json
        A, b, _ = gen_random(10, 16, 3, seed=0)
        (tmp_path / "sub").mkdir()
        for name in ("inst.txt", "a,b.txt", os.path.join("sub", "inst.txt")):  # file instances
            save_instance(tmp_path / name, A, b)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad(TestBenchmark.CONFIG)))
        r = cli("benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                cwd=tmp_path)
        assert r.returncode == 1
        (line,) = r.stderr.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and message in line
        assert sorted(os.listdir(tmp_path)) == ["a,b.txt", "cfg.json", "inst.txt", "sub"]
        assert os.listdir(tmp_path / "sub") == ["inst.txt"]

    @pytest.mark.parametrize("flag, value, message", [("--theta", "0", "theta"),
                                                      ("--krand", "-1", "working-set")])
    def test_cli_checks_every_solvers_settings_as_decs(self, tmp_path, flag, value, message):
        inst = tmp_path / "i.txt"
        save_instance(inst, *gen_random(6, 10, 2, seed=0)[:2])
        r = cli("solve", "--instance", str(inst), "--solver", "pgm", "--mode", "cons",
                "--s", "2", flag, value)
        assert r.returncode == 1, r.stderr
        (line,) = r.stderr.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and message in line
        assert r.stdout == ""


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

    @pytest.mark.parametrize("solvers, formed", [
        (["dec", "pgm", "apgm", "omp", "cvx-l1"], 2), (["dec", "omp"], 0)],
        ids=["gradient-solvers", "no-gradient-solver"])
    def test_one_objective_per_instance(self, tmp_path, monkeypatch, solvers, formed):
        # every cell and check on an instance reads its one objective: two
        # instances build two, and L = lambda_max is formed once on each that
        # a gradient solver runs on, however many cells run there
        monkeypatch.syspath_prepend(BENCH_DIR)
        import tracing

        norms = []
        spectral_norm = QuadraticObjective._spectral_norm
        monkeypatch.setattr(QuadraticObjective, "_spectral_norm",
                            lambda obj: norms.append(obj) or spectral_norm(obj))
        config = {"params": [2, 3], "init_seeds": [0, 1], "max_iters": 20,
                  "solvers": [{"name": n} for n in solvers],
                  "instances": [{"kind": "random", "m": 8, "n": 12, "support": 2, "seed": seed}
                                for seed in (1, 2)]}
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            rows = blockdec.bench.benchmark(config, str(tmp_path))
        assert len(rows) == 2 * len(solvers) * 2 * 2
        assert tracer.summary()["problem.init"][0] == 2
        assert len(norms) == len({id(obj) for obj in norms}) == formed

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
        _, trace, _ = run_solver("dec", QuadraticObjective(A=A, b=b), "cons", 3,
                                 DecConfig(max_iters=60))
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
        obj = QuadraticObjective(A=A, b=b)
        for row in rows:
            parts = row.split(",")
            if not parts[1].startswith("dec"):
                continue
            config = DecConfig(n_random=3, n_greedy=1, max_iters=150, seed=int(parts[4]))
            x, _, _ = run_solver("dec", obj, "cons", 3, config)
            resid = 0.5 * np.linalg.norm(A @ x - b) ** 2
            assert abs(float(parts[5]) - resid) < 1e-9

    def test_config_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            benchmark({"params": [1], "solvers": [{"name": "dec"}],
                       "instances": []}, str(tmp_path / "x"))
        with pytest.raises(InvalidParameterError):
            benchmark({"params": [], "solvers": [{"name": "dec"}]},
                      str(tmp_path / "y"))
        with pytest.raises(InvalidParameterError, match="init_seeds"):
            benchmark(dict(self.CONFIG, init_seeds=[]), str(tmp_path / "z"))
        assert not (tmp_path / "z").exists()

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
        [{"name": "dec", "krand": 4.0}, {"name": "dec"}],  # both dec-R4G2
    ])
    def test_label_clash_and_unknown_solver_key_rejected(self, tmp_path, solvers):
        cfg = dict(self.CONFIG, solvers=solvers)
        with pytest.raises(InvalidParameterError):
            benchmark(cfg, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_distinct_labels_and_top_level_workers_accepted(self, tmp_path):
        cfg = dict(self.CONFIG, init_seeds=[0], workers=1, solvers=[
            {"name": "dec"}, {"name": "dec", "krand": 3, "kgreedy": 1},
            {"name": "pgm", "label": "pgm-from-zero"}, {"name": "dec", "krand": 5.0}])
        rows = benchmark(cfg, str(tmp_path))
        assert [r.split(",")[1] for r in rows] == ["dec-R4G2", "dec-R3G1", "pgm-from-zero",
                                                   "dec-R5G2"]

    @pytest.mark.parametrize("param", [2.5, float("nan"), float("inf")])
    def test_cli_benchmark_rejects_a_bad_level_before_writing(self, tmp_path, param):
        import json
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(self.CONFIG, params=[3, param])))
        r = cli("benchmark", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
        assert r.returncode == 1, r.stderr
        assert "cardinality bound" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "out").exists()  # so no results.csv either


class TestCli:
    @pytest.mark.parametrize("flags", [("--noise", "nan"), ("--noise", "inf"),
                                       ("--kind", "random-corrupt", "--factor", "nan"),
                                       ("--kind", "random-corrupt", "--factor=-inf")],
                             ids=["noise-nan", "noise-inf", "factor-nan", "factor-inf"])
    def test_generate_non_finite_is_usage_error(self, tmp_path, flags):
        # such an instance would be refused by every reader
        inst = tmp_path / "inst.txt"
        r = cli("generate", "--m", "4", "--n", "6", "--support", "2", *flags,
                "--out", str(inst))
        assert r.returncode == 1, r.stderr
        assert "finite" in r.stderr and "Traceback" not in r.stderr
        assert not inst.exists()

    @pytest.mark.parametrize("solver", ["dec", "pgm", "pgm-l1", "pgm-lhalf"])
    def test_infinite_penalty_is_usage_error(self, tmp_path, solver):
        inst = tmp_path / "i.txt"
        save_instance(inst, *gen_random(4, 6, 2, seed=0)[:2])
        r = cli("solve", "--instance", str(inst), "--solver", solver,
                "--mode", "regu", "--lambda", "inf")
        assert r.returncode == 1, r.stderr
        assert "finite" in r.stderr and "Traceback" not in r.stderr
        assert "final_objective" not in r.stdout

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

    def test_verify_rejects_a_nan_tolerance(self, tmp_path):
        # x = 5 e_0 is no block-2 point here; a NaN slack used to certify it
        inst, point = tmp_path / "i.txt", tmp_path / "x.txt"
        r = cli("generate", "--m", "10", "--n", "6", "--support", "2", "--seed", "1",
                "--out", str(inst))
        assert r.returncode == 0, r.stderr
        save_point(point, 5.0 * np.eye(6)[0])
        args = ("verify", "--instance", str(inst), "--point", str(point), "--s", "2")
        r = cli(*args, "--check", "blockk", "--k", "2")
        assert r.returncode == 0 and "result=false" in r.stdout, r.stderr
        for check in (["basic"], ["lstat"], ["blockk", "--k", "2"]):
            r = cli(*args, "--check", *check, "--tol", "nan")
            assert r.returncode == 1 and "result=" not in r.stdout
            assert r.stderr.splitlines() == ["error: tol must be nonnegative and finite, got nan"]

    @pytest.mark.parametrize("command", ["generate", "solve-dec", "solve-omp"])
    def test_negative_seed_is_usage_error(self, tmp_path, command):
        # numpy's generators take no negative seed; omp draws none, but a bad one still fails
        inst, out = tmp_path / "i.txt", tmp_path / "out.txt"
        save_instance(inst, *gen_random(4, 6, 2, seed=0)[:2])
        if command == "generate":
            args = ("generate", "--m", "4", "--n", "6", "--support", "2")
        else:
            args = ("solve", "--instance", str(inst), "--solver", command[6:],
                    "--mode", "cons", "--s", "2")
        r = cli(*args, "--seed", "-1", "--out", str(out))
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["error: seed must be an integer >= 0, got -1"]
        assert r.stdout == "" and not out.exists()

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

    @pytest.mark.parametrize("command", ["solve", "solve-dec", "verify"])
    def test_overflowing_gram_is_numerical_error(self, tmp_path, command):
        # finite entries load, but A'A and AA' overflow double precision;
        # dec computes no L, so its F(x0) overflows and is caught instead
        inst, point = tmp_path / "big.txt", tmp_path / "x.txt"
        save_instance(inst, np.full((3, 4), 1e200), np.ones(3))
        save_point(point, np.zeros(4))
        args = {"solve": ["solve", "--solver", "pgm", "--mode", "cons"],
                "solve-dec": ["solve", "--solver", "dec", "--mode", "cons",
                              "--krand", "2", "--kgreedy", "1"],
                "verify": ["verify", "--point", str(point), "--check", "lstat"]}[command]
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
