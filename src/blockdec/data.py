"""Instance generation and file formats.

Two on-disk formats are supported:

* dense instance: a header line ``m n``, then the m rows of A
  whitespace-separated, then the m entries of b (token stream; line breaks
  are not significant beyond error reporting);
* sparse text: one example per line, ``<label> <idx>:<val> ...`` with
  1-based strictly ascending indices, the common SVM-light style.

All floats are written with %.17g, so write-then-read round trips are exact.
All randomness flows through numpy's PCG64 generator seeded explicitly; the
draw order inside each generator is fixed and documented, so a given seed
yields the same instance on every platform.
"""

import numpy as np

from .errors import DataFormatError, InvalidParameterError

FLOAT_FMT = "%.17g"


def gen_random(m, n, support, noise_scale=10.0, seed=0):
    """Random Gaussian instance; returns (A, b, x_true).

    Draw order: A entries (row-major), then the support positions, then the
    support values, then the noise vector.  b = A @ x_true + noise_scale*w.
    """
    if m < 1 or n < 1:
        raise InvalidParameterError(f"need positive dimensions, got m={m}, n={n}")
    if not 0 < support <= n:
        raise InvalidParameterError(f"true support {support} outside (0, {n}]")
    if noise_scale < 0:
        raise InvalidParameterError(f"noise scale must be nonnegative, got {noise_scale}")
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
    with open(path, "w") as fh:
        fh.write(f"{m} {n}\n")
        for row in A:
            fh.write(" ".join(FLOAT_FMT % v for v in row) + "\n")
        fh.write(" ".join(FLOAT_FMT % v for v in b) + "\n")


def _tokenize(path):
    """All whitespace tokens of a file, each with its 1-based line number."""
    toks = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            for tok in line.split():
                toks.append((tok, ln))
    return toks


def _parse_floats(toks):
    """Parse (token, line) pairs; a bad or non-finite number raises at its line."""
    vals = np.empty(len(toks))
    for j, (tok, ln) in enumerate(toks):
        try:
            vals[j] = float(tok)
        except ValueError:
            raise DataFormatError(f"{tok!r} is not a number", line=ln) from None
    finite = np.isfinite(vals)
    if not finite.all():  # one vectorised check; the line is looked up on failure
        tok, ln = toks[int(np.argmin(finite))]
        raise DataFormatError(f"{tok!r} is not a finite number", line=ln)
    return vals


def load_dense_instance(path):
    """Read the header-A-b dense format; returns (A, b)."""
    toks = _tokenize(path)
    if len(toks) < 2:
        raise DataFormatError("missing 'm n' header", line=1)
    dims = []
    for tok, ln in toks[:2]:
        try:
            dims.append(int(tok))
        except ValueError:
            raise DataFormatError(f"header entry {tok!r} is not an integer", line=ln) from None
    m, n = dims
    if m < 1 or n < 1:
        raise DataFormatError(f"header dimensions must be positive, got {m} {n}", line=toks[0][1])
    need = 2 + m * n + m
    if len(toks) < need:
        raise DataFormatError(
            f"file ends early: expected {need} numbers, found {len(toks)}",
            line=toks[-1][1])
    if len(toks) > need:
        raise DataFormatError("trailing data after b", line=toks[need][1])
    vals = _parse_floats(toks[2:])
    A = vals[:m * n].reshape(m, n)
    b = vals[m * n:]
    return A, b


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
    labels = []
    rows_data = []  # list of (line, indices, values) per example, 0-based indices
    n_cols = 0
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
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
            if idxs:
                n_cols = max(n_cols, idxs[-1] + 1)
            rows_data.append((ln, idxs, vals))

    m = len(rows_data)
    A = np.zeros((m, n_cols))
    for i, (_, idxs, vals) in enumerate(rows_data):
        A[i, idxs] = vals
    b = np.asarray(labels)
    finite = np.isfinite(A).all(axis=1) & np.isfinite(b)
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
    header; anything else is treated as sparse text.
    """
    first = None
    with open(path) as fh:
        for line in fh:
            if line.split():
                first = line.split()
                break
    if first is None:
        raise DataFormatError("empty instance file", line=1)
    if len(first) == 2:
        try:
            int(first[0]), int(first[1])
            return load_dense_instance(path)
        except ValueError:
            pass
    return load_sparse_text(path)


# ---------------------------------------------------------------------------
# point vectors


def save_point(path, x):
    x = np.asarray(x, dtype=float)
    with open(path, "w") as fh:
        for v in x:
            fh.write(FLOAT_FMT % v + "\n")


def load_point(path, n=None):
    vals = _parse_floats(_tokenize(path))
    if n is not None and vals.size != n:
        raise DataFormatError(f"point has {vals.size} entries, expected {n}")
    return vals
