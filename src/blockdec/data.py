"""Instance generation and file formats.

Two on-disk formats are supported:

* dense instance: a header line of exactly ``m n``, then the m rows of A
  whitespace-separated, then the m entries of b (token stream; line breaks
  are not significant beyond error reporting);
* sparse text: one example per line, ``<label> <idx>:<val> ...`` with
  1-based strictly ascending indices, the common SVM-light style.

Files are UTF-8 text; a byte that is not UTF-8 is reported at its line.
Every loader opens its file once and takes one nonblank line at a time, so
a pipe loads as a file does.  Dense and point files parse each
line's floats into the next slice of one array, allocated once at the
header's m*n + m (dense) and at most at the tokens the file's size can
hold, so a load holds A once plus one line, and a header that claims more
than the file holds allocates nothing beyond the file.  Sparse text parses
each row into one index and one value array.  Finiteness is checked with
no mask the size of A (``all_finite``).  All floats are written with %.17g,
so write-then-read round trips are exact.
All randomness flows through numpy's PCG64 generator seeded explicitly; the
draw order inside each generator is fixed and documented, so a given seed
yields the same instance on every platform.
"""

import itertools
import math
import numbers
import os
import stat

import numpy as np

from .errors import DataFormatError, InvalidParameterError

FLOAT_FMT = "%.17g"


def is_integer(value):
    """True for an integer of any kind (int, np.int64, ...) but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def all_finite(a, axis=None):
    """True where every entry of ``a`` (along ``axis``) is finite.

    Read with no bool mask the size of ``a``.  A nan or +-inf entry makes
    its sum non-finite, so a finite sum settles it in one pass.  Only where
    a sum is not finite, which finite entries can also give by overflow,
    are min and max read: nan propagates through both, and +-inf is one of
    them.  An empty array or row is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf is nan, no warning
        finite = np.isfinite(a.sum(axis))
    if np.all(finite):
        return finite
    return np.isfinite(a.min(axis, initial=0.0)) & np.isfinite(a.max(axis, initial=0.0))


def check_seed(seed, what="seed"):
    """Reject a seed that is not an integer >= 0, the seeds numpy's generators take."""
    if not is_integer(seed) or seed < 0:
        raise InvalidParameterError(f"{what} must be an integer >= 0, got {seed!r}")


def gen_random(m, n, support, noise_scale=10.0, seed=0):
    """Random Gaussian instance; returns (A, b, x_true).

    Draw order: A entries (row-major), then the support positions, then the
    support values, then the noise vector.  b = A @ x_true + noise_scale*w.
    """
    check_seed(seed)
    if m < 1 or n < 1:
        raise InvalidParameterError(f"need positive dimensions, got m={m}, n={n}")
    if not 0 < support <= n:
        raise InvalidParameterError(f"true support {support} outside (0, {n}]")
    if not 0 <= noise_scale < np.inf:
        raise InvalidParameterError(
            f"noise scale must be nonnegative and finite, got {noise_scale}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    pos = rng.choice(n, size=support, replace=False)
    x_true = np.zeros(n)
    x_true[pos] = rng.standard_normal(support)
    b = A @ x_true + noise_scale * rng.standard_normal(m)
    return A, b, x_true


def corrupt(A, fraction=0.02, factor=100.0, seed=0):
    """Scale round(fraction * m * n) uniformly chosen entries by ``factor``.

    Rounding is to the nearest integer (halves to even); entries are chosen
    without replacement.  Returns a new matrix.
    """
    if not 0 <= fraction <= 1:
        raise InvalidParameterError(f"fraction {fraction} outside [0, 1]")
    if not np.isfinite(factor):
        raise InvalidParameterError(f"corruption factor must be finite, got {factor}")
    A = np.array(A, dtype=float)
    count = int(np.rint(fraction * A.size))
    if count == 0:
        return A
    rng = np.random.default_rng(seed)
    flat = rng.choice(A.size, size=count, replace=False)
    A.flat[flat] *= factor
    return A


# ---------------------------------------------------------------------------
# dense instance format


def save_instance(path, A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,):
        raise InvalidParameterError(f"b has shape {b.shape}, expected ({m},)")
    # one % per row on a FLOAT_FMT template: the bytes of one % per value,
    # about 1.5x faster on a 500x5000 file
    row_fmt = _row_format(n)
    with open(path, "w") as fh:
        fh.write(f"{m} {n}\n")
        for row in A:
            fh.write(row_fmt % tuple(row.tolist()))
        fh.write(_row_format(m) % tuple(b.tolist()))


def _row_format(count):
    """A %-template for one line of ``count`` space-separated FLOAT_FMT values."""
    return " ".join([FLOAT_FMT] * count) + "\n"


def _open(path):
    """The file at ``path`` as text; a byte that is not UTF-8 reads as a lone surrogate."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _lines(fh):
    """Yield (1-based line number, whitespace tokens) for each nonblank line of ``fh``."""
    for ln, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode()
            except UnicodeEncodeError:
                raise DataFormatError("text is not UTF-8", line=ln) from None
        toks = line.split()
        if toks:
            yield ln, toks


def _floats(ln, toks):
    """One line's tokens as a float array; a bad number raises at ln."""
    try:
        return np.array(toks, dtype=float)  # accepts what float() accepts, same bits
    except ValueError:
        for tok in toks:
            try:
                float(tok)
            except ValueError:
                raise DataFormatError(f"{tok!r} is not a number", line=ln) from None
        raise


_GROW_FROM = 1 << 16  # first size of the array where the OS reports no file size

# Parsed numbers are checked for finiteness once this many have gathered, or
# at the end of a line that holds more, so the tokens kept for the error
# message hold about 80 kB beyond the current line; one check per short line
# would outweigh its parse.
_CHECK_EVERY = 1 << 10


def _read_floats(fh, lines, cap=math.inf, ln=1):
    """Parse the floats of ``lines`` from ``fh`` into one array; returns (values, line, bad).

    ``line`` is the number of the last line read, or ``ln`` if there was
    none; ``bad`` is (line, token) of the first number that is not finite,
    or None.  Every number is parsed before the caller reports ``bad``.
    The array is allocated once, at ``cap`` entries or at the tokens
    the file can hold (each takes a byte and a separator), whichever is
    less, and each line is parsed into its next slice.  Where the OS reports
    no file size (a pipe) it starts at ``_GROW_FROM`` entries and doubles,
    up to ``cap``, as numbers arrive.  More than ``cap`` numbers raise
    "trailing data after b" at the line that holds the first extra one.
    """
    st = os.fstat(fh.fileno())
    bound = st.st_size // 2 + 1 if stat.S_ISREG(st.st_mode) else _GROW_FROM
    vals, found = np.empty(min(cap, bound)), 0
    bad, checked, pending = None, 0, []  # pending: the lines parsed since `checked`
    for ln, toks in lines:
        end = found + len(toks)
        if end > cap:
            raise DataFormatError("trailing data after b", line=ln)
        if end > vals.size:  # vals is this function's own, with no view on it
            vals.resize(min(max(end, 2 * vals.size), cap), refcheck=False)
        vals[found:end] = _floats(ln, toks)
        found = end
        if bad is None:
            pending.append((ln, toks))
            if found - checked >= _CHECK_EVERY:
                bad, checked, pending = _first_non_finite(vals, checked, pending), found, []
    if bad is None:
        bad = _first_non_finite(vals, checked, pending)
    if found < vals.size:
        vals.resize(found, refcheck=False)
    return vals, ln, bad


def _first_non_finite(vals, start, lines):
    """(line, token) of the first non-finite number of ``lines``, parsed into vals from start."""
    end = start + sum(len(toks) for _, toks in lines)
    if all_finite(vals[start:end]):
        return None
    for ln, toks in lines:
        finite = np.isfinite(vals[start:start + len(toks)])
        if not finite.all():
            return ln, toks[int(np.argmin(finite))]
        start += len(toks)


def _require_finite(bad):
    if bad is not None:
        ln, tok = bad
        raise DataFormatError(f"{tok!r} is not a finite number", line=ln)


def load_dense_instance(path):
    """Read the header-A-b dense format; returns (A, b), views of one array."""
    with _open(path) as fh:
        lines = _lines(fh)
        return _read_dense(fh, lines, *next(lines, (1, [])))


def _read_dense(fh, lines, ln, head):
    """(A, b) of a dense file from its header line ``head`` at ``ln``; ``lines`` holds the rest."""
    if len(head) < 2:
        raise DataFormatError("missing 'm n' header", line=ln)
    if len(head) > 2:
        raise DataFormatError("data after 'm n' on the header line", line=ln)
    dims = []
    for tok in head:
        try:
            dims.append(int(tok))
        except ValueError:
            raise DataFormatError(f"header entry {tok!r} is not an integer", line=ln) from None
    m, n = dims
    if m < 1 or n < 1:
        raise DataFormatError(f"header dimensions must be positive, got {m} {n}", line=ln)
    need = m * n + m
    vals, ln, bad = _read_floats(fh, lines, need, ln)
    if vals.size < need:  # counts include the two header entries
        raise DataFormatError(
            f"file ends early: expected {need + 2} numbers, found {vals.size + 2}", line=ln)
    _require_finite(bad)  # the header's two integers are finite
    return vals[:m * n].reshape(m, n), vals[m * n:]


# ---------------------------------------------------------------------------
# sparse text format


def save_sparse_text(path, A, b):
    """Write (A, b) as label + 1-based index:value pairs, zeros omitted."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    with open(path, "w") as fh:
        for label, row in zip(b, A):
            parts = [FLOAT_FMT % label]
            for j in np.flatnonzero(row):
                parts.append(f"{j + 1}:{FLOAT_FMT % row[j]}")
            fh.write(" ".join(parts) + "\n")


def load_sparse_text(path, rows=None, cols=None, seed=0):
    """Parse the sparse text format; returns (A, b) densely.

    The column count is the largest index seen.  ``rows``/``cols`` request
    uniform subsampling without replacement (rows drawn first, then
    columns), seeded.  Malformed input raises DataFormatError with the
    offending 1-based line number; blank lines are skipped.
    """
    with _open(path) as fh:
        return _read_sparse(_lines(fh), rows, cols, seed)


def _read_sparse(lines, rows=None, cols=None, seed=0):
    """``load_sparse_text`` on the file's nonblank ``lines``."""
    labels = []
    rows_data = []  # (line, indices, values) per example: 0-based index and float arrays
    n_cols = widest = 0  # the largest index seen, and its line
    for ln, toks in lines:
        try:
            labels.append(float(toks[0]))
        except ValueError:
            raise DataFormatError(f"label {toks[0]!r} is not a number", line=ln) from None
        idxs, vals = [], []
        prev = 0
        for tok in toks[1:]:
            left, sep, right = tok.partition(":")
            if not sep or not left or not right or ":" in right:
                raise DataFormatError(f"malformed feature pair {tok!r}", line=ln)
            try:
                idx = int(left)
            except ValueError:
                raise DataFormatError(f"feature index {left!r} is not an integer", line=ln) from None
            if idx < 1:
                raise DataFormatError(f"feature index {idx} must be >= 1", line=ln)
            if idx <= prev:
                raise DataFormatError(
                    f"feature indices must be strictly ascending ({idx} after {prev})", line=ln)
            try:
                val = float(right)
            except ValueError:
                raise DataFormatError(f"feature value {right!r} is not a number", line=ln) from None
            idxs.append(idx - 1)
            vals.append(val)
            prev = idx
        if prev > n_cols:
            n_cols, widest = prev, ln
        try:
            rows_data.append((ln, np.array(idxs, dtype=np.intp), np.array(vals)))
        except OverflowError:  # past any size numpy can allocate
            raise DataFormatError(f"feature index {prev} is too large to allocate A",
                                  line=ln) from None

    m = len(rows_data)
    try:
        A = np.zeros((m, n_cols))
    except (MemoryError, ValueError):  # numpy refuses a size it cannot hold
        raise DataFormatError(f"feature index {n_cols} is too large to allocate A",
                              line=widest) from None
    for i, (_, idxs, vals) in enumerate(rows_data):
        A[i, idxs] = vals
    b = np.asarray(labels)
    finite = all_finite(A, axis=1) & np.isfinite(b)
    if not finite.all():
        raise DataFormatError("non-finite number (nan or inf)",
                              line=rows_data[int(np.argmin(finite))][0])

    if rows is not None or cols is not None:
        rng = np.random.default_rng(seed)
        if rows is not None:
            if not 1 <= rows <= m:
                raise InvalidParameterError(f"row subsample {rows} outside [1, {m}]")
            pick = np.sort(rng.choice(m, size=rows, replace=False))
            A, b = A[pick], b[pick]
        if cols is not None:
            if not 1 <= cols <= n_cols:
                raise InvalidParameterError(f"column subsample {cols} outside [1, {n_cols}]")
            pick = np.sort(rng.choice(n_cols, size=cols, replace=False))
            A = A[:, pick]
    return A, b


def load_instance(path):
    """Load either supported instance format, sniffing by the first line.

    A first line consisting of exactly two integer tokens is the dense
    header; anything else is treated as sparse text.  The file is opened
    once: the reader goes on from the sniffed line.
    """
    with _open(path) as fh:
        lines = _lines(fh)
        ln, first = next(lines, (1, []))
        if not first:
            raise DataFormatError("empty instance file", line=1)
        if len(first) == 2:
            try:
                int(first[0]), int(first[1])
            except ValueError:
                pass
            else:
                return _read_dense(fh, lines, ln, first)
        return _read_sparse(itertools.chain([(ln, first)], lines))


# ---------------------------------------------------------------------------
# point vectors


def save_point(path, x):
    x = np.asarray(x, dtype=float)
    with open(path, "w") as fh:
        fh.write((FLOAT_FMT + "\n") * x.size % tuple(x.tolist()))


def load_point(path, n=None):
    with _open(path) as fh:
        vals, _, bad = _read_floats(fh, _lines(fh))
    _require_finite(bad)
    if n is not None and vals.size != n:
        raise DataFormatError(f"point has {vals.size} entries, expected {n}")
    return vals
