"""Print one ``label sha256`` line per fixed, seeded run of the package.

A change that claims to keep outputs byte-identical is checked by listing
the parent checkout's runs and comparing this checkout's runs against them::

    python3 tools/output_digests.py --src ../parent/src > old.txt
    python3 tools/output_digests.py --against old.txt

Where the change alters a signature this script calls, make ``old.txt`` with
the parent's own copy of the script, run from the parent checkout.

With ``--against`` the script prints each label whose line moved, with its
old and new line, and exits 1 if any line moved.  A moved solver line also
gets its drift: |dF|/|F| between the two final objectives, and whether the
iteration count and nnz are equal.  A moved census or table1 line gets
``row equal`` or ``row differs``.  The last line sums up: ``K/N identical``,
then for the moved solver runs the largest |dF|/|F| and how many kept both
iters and nnz, and for the moved census and table1 lines how many kept
their row.

A solver run's line also gives its final F (``%.17g``), iteration count and
nnz, ``label sha256 F=... iters=... nnz=...``, and a census or table1 line
its row, ``label sha256 row=163,5,1,1``, so a moved digest shows how far the
run moved.

Each digest covers the bytes of a run's output, never its timings:

* ``dec``: x, every trace record (F, step norm, working set), the status and
  the final F; R4G2, R0G6, R6G0, R6G6 and R1G0 in both modes on a corrupted
  64x256 instance (stopping rule), 256x2048 (300 iterations), 30x4200
  (above ``_GRAM_CACHE_LIMIT``, 150 iterations) and the tall 600x200 (300
  iterations); and R4G2 and R6G6 in cons mode on 256x2048 from x = 0 (300
  iterations), whose blocks have budgets below their size;
* ``pgm`` and ``apgm``: the same fields, on the same instances.  On 600x200
  L comes from A'A, the only tall case, and their iterates have at most
  n/32 nonzeros, so their gradients come from the Gram-column store and its
  p = -A'b;
* ``omp`` and ``cvx-l1``: x, on the same instances in cons mode; their line
  gives F, ``iters=0`` and nnz, so a moved line shows its drift too;
* ``table1``: the census line of the six-variable demo, both modes: its
  row, every basic point, and the points, gradients and F values that
  the census's block-k certificates receive;
* ``census``: the census line of each of the sixteen 20x8 problems the
  benchmark's census workload builds at ``--seed 1``, both modes, and of
  ``census-near``, the 20x8 problem of instance seed 13 with column 4 set
  to column 1 plus a 1e-6 perturbation, whose block systems are nearly
  singular;
* ``benchmark``: results, summary and trace files of
  ``demos/bench_corrupt.json``, and of two configs that name every solver,
  so that each runner behind ``run_solver`` is covered: all seven in cons
  mode and the five that run in regu mode, on one 30x60
  ``random-corrupt`` instance, init seeds 0 and 1, 200 iterations at most;
* ``data``: the bytes that ``save_instance``, ``save_sparse_text`` and
  ``save_point`` write for the corrupted 64x256 instance with -0.0, 5e-324
  and 1.7976931348623157e308 planted in A's first row and in b (the point
  is that row), and the bytes of the arrays that ``load_instance`` (from the
  dense and the sparse file) and ``load_point`` read back.

BLAS is pinned to one thread before numpy loads, since the thread count can
change the last digits of a product.  The run takes about twenty seconds.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIZES = {  # label: (m, n, support, corrupted, lambda, max_iters, window)
    "64x256": (64, 256, 10, True, 50.0, 1000, 50),
    "256x2048": (256, 2048, 20, False, 50.0, 300, 1000),
    "30x4200": (30, 4200, 5, False, 5.0, 150, 1000),
    "600x200": (600, 200, 5, False, 100.0, 300, 1000),
}
SPLITS = ((4, 2), (0, 6), (6, 0), (6, 6), (1, 0))  # (n_random, n_greedy)
CENSUS_RUN_SEED = 1  # the benchmark --seed whose census problems are listed
NEAR_SEED, NEAR_GAP = 13, 1e-6  # census-near: the instance seed and column gap
SPECIAL = (-0.0, 5e-324, 1.7976931348623157e308)  # planted in the data/ lines' instance
EVERY_SOLVER = {  # mode: (params, solver names) of the every-solver benchmark configs
    "cons": ([5], ["dec", "pgm", "apgm", "omp", "cvx-l1", "pgm-l1", "pgm-lhalf"]),
    "regu": ([5.0], ["dec", "pgm", "apgm", "pgm-l1", "pgm-lhalf"]),
}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _run_digest(x, trace):
    records = [(r.iteration, r.objective, r.step_norm, r.working_set) for r in trace.records]
    return (f"{_digest(x, records, trace.status, trace.final_objective)} "
            f"{_summary(x, trace.final_objective, len(trace))}")


def _summary(x, F, iters):
    return f"F={F:.17g} iters={iters} nnz={int((x != 0).sum())}"


def _row_digest(row, *parts):
    return f"{_digest(row, *parts)} row={','.join(map(str, row))}"


def _census_digest(bd, prob, k_max):
    """The line of one census: its row, its basic points and what it certified.

    The digest also covers the points, gradients and F values that each of
    the census's calls of ``stationarity._certify`` receives, so a change
    in the last digit of one of them moves the line even where no count
    moves.
    """
    from blockdec import stationarity
    certify, args = stationarity._certify, []

    def recording(prob, X, G, F, *rest):
        args.extend((X, G, F))
        return certify(prob, X, G, F, *rest)

    stationarity._certify = recording
    try:
        row = bd.landscape_table(prob, k_max=k_max).row()
    finally:
        stationarity._certify = certify
    supports, points = zip(*bd.enumerate_basic_points(prob))
    return _row_digest(row, supports, *points, *args)


def _file_digest(out_dir):
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def digests(bd):
    """Yield (label, sha256 and run summary) for every fixed run, in a fixed order."""
    for size, (m, n, s, corrupted, lam, max_iters, window) in SIZES.items():
        A, b, _ = bd.gen_random(m, n, s, seed=1)
        if corrupted:
            A = bd.corrupt(A, seed=2)
        for mode, term in (("cons", bd.Cardinality(s)), ("regu", bd.L0Penalty(lam))):
            prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b), term)
            x0 = bd.init_solution(n, term, 0)
            for kr, kg in SPLITS:
                config = bd.DecConfig(n_random=kr, n_greedy=kg, seed=0,
                                      max_iters=max_iters, window=window)
                x, trace = bd.run_dec(prob, x0, config)
                yield f"dec-R{kr}G{kg}/{size}/{mode}", _run_digest(x, trace)
            for name, solver in (("pgm", bd.pgm), ("apgm", bd.apgm)):
                x, trace = solver(prob, x0)
                yield f"{name}/{size}/{mode}", _run_digest(x, trace)
        prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b), bd.Cardinality(s))
        for name, x in (("omp", bd.omp(A, b, s)), ("cvx-l1", bd.cvx_l1_sweep(prob.objective, s))):
            yield f"{name}/{size}/cons", f"{_digest(x)} {_summary(x, bd.composite_value(prob, x), 0)}"
    # cons runs from x = 0 fill the support up to s, so the block budgets
    # fall below k and the block solves pad their systems to widths under k
    A, b, _ = bd.gen_random(256, 2048, 20, seed=1)
    prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b), bd.Cardinality(20))
    for kr, kg in ((4, 2), (6, 6)):
        config = bd.DecConfig(n_random=kr, n_greedy=kg, seed=0, max_iters=300, window=1000)
        x, trace = bd.run_dec(prob, [0.0] * 2048, config)
        yield f"dec-R{kr}G{kg}/256x2048/cons-from-zero", _run_digest(x, trace)
    for mode in ("cons", "regu"):
        yield f"table1/{mode}", _census_digest(bd, bd.table1_problem(mode), None)
    import numpy as np  # loaded by now, after BLAS was pinned
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS, seeds
    census = WORKLOADS["census"]
    designs = []
    for seed in seeds(census, CENSUS_RUN_SEED)[0]:
        A, b, _ = bd.gen_random(census.m, census.n, census.support,
                                noise_scale=census.noise, seed=seed)
        designs.append((f"census/{seed}", A, b))
    A, b, _ = bd.gen_random(census.m, census.n, census.support, noise_scale=census.noise,
                            seed=NEAR_SEED)
    A[:, 4] = A[:, 1] + NEAR_GAP * np.random.default_rng(NEAR_SEED).standard_normal(census.m)
    designs.append((f"census-near/{NEAR_SEED}", A, b))
    for label, A, b in designs:
        for mode, term in (("cons", bd.Cardinality(census.s)), ("regu", bd.L0Penalty(census.lam))):
            prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b), term)
            yield f"{label}/{mode}", _census_digest(bd, prob, census.k_max)
    with tempfile.TemporaryDirectory() as out_dir:
        bd.benchmark(os.path.join(ROOT, "demos", "bench_corrupt.json"), out_dir)
        yield "benchmark/bench_corrupt", _file_digest(out_dir)
    for mode, (params, names) in EVERY_SOLVER.items():
        config = {"mode": mode, "params": params, "init_seeds": [0, 1], "max_iters": 200,
                  "instances": [{"kind": "random-corrupt", "m": 30, "n": 60, "support": 5}],
                  "solvers": [{"name": name} for name in names]}
        with tempfile.TemporaryDirectory() as out_dir:
            bd.benchmark(config, out_dir)
            yield f"benchmark/every-solver/{mode}", _file_digest(out_dir)
    m, n, s, *_ = SIZES["64x256"]
    A, b, _ = bd.gen_random(m, n, s, seed=1)
    A = bd.corrupt(A, seed=2)
    A[0, :len(SPECIAL)] = b[:len(SPECIAL)] = SPECIAL
    with tempfile.TemporaryDirectory() as out_dir:
        dense, sparse, point = (os.path.join(out_dir, name) for name in ("dense", "sparse", "x"))
        bd.save_instance(dense, A, b)
        bd.save_sparse_text(sparse, A, b)
        bd.save_point(point, A[0])
        for label, path in (("save_instance", dense), ("save_sparse_text", sparse),
                            ("save_point", point)):
            with open(path, "rb") as fh:
                yield f"data/{label}/64x256", hashlib.sha256(fh.read()).hexdigest()
        for label, path in (("dense", dense), ("sparse", sparse)):
            A, b = bd.load_instance(path)
            yield f"data/load_instance/64x256-{label}", _digest(A, b, A.shape)
        yield "data/load_point/64x256", _digest(bd.load_point(point, n=n))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the blockdec package (default: this checkout's src/)")
    parser.add_argument("--against", metavar="LISTING",
                        help="compare with a listing printed earlier; exit 1 if any line moved")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import blockdec as bd
    if not os.path.abspath(bd.__file__).startswith(src + os.sep):
        sys.exit(f"imported blockdec from {bd.__file__}, not {src}")
    if args.against is None:
        for label, digest in digests(bd):
            print(label, digest, flush=True)
        return
    with open(args.against) as fh:
        old = dict(line.rstrip("\n").split(" ", 1) for line in fh if line.strip())
    new = dict(digests(bd))
    labels = list(new) + [label for label in old if label not in new]
    moved = [label for label in labels if old.get(label) != new.get(label)]
    drifts, rows = [], []
    for label in moved:
        print(f"{label}\n  old: {old.get(label, '(absent)')}\n  new: {new.get(label, '(absent)')}")
        fields = [_fields(old.get(label)), _fields(new.get(label))]
        if all({"F", "iters", "nnz"} <= set(f) for f in fields):
            drift = _drift(*fields)
            drifts.append(drift)
            rel, same_iters, same_nnz = drift
            print(f"  drift: |dF|/|F| = {rel:.3g}, iters {'equal' if same_iters else 'differ'}, "
                  f"nnz {'equal' if same_nnz else 'differ'}")
        elif all("row" in f for f in fields):
            rows.append(fields[0]["row"] == fields[1]["row"])
            print(f"  row {'equal' if rows[-1] else 'differs'}")
    summary = f"{len(labels) - len(moved)}/{len(labels)} identical"
    if drifts:
        kept = sum(same_iters and same_nnz for _, same_iters, same_nnz in drifts)
        summary += (f"; {len(drifts)} solver runs moved, max |dF|/|F| = "
                    f"{max(rel for rel, _, _ in drifts):.3g}, iters and nnz equal in "
                    f"{kept}/{len(drifts)}")
    if rows:
        summary += f"; {len(rows)} census/table1 lines moved, row equal in {sum(rows)}/{len(rows)}"
    print(summary)
    if moved:
        sys.exit(1)


def _fields(line):
    """The ``key=value`` fields after a line's digest; none for an absent line."""
    if line is None:
        return {}
    return dict(field.split("=", 1) for field in line.split()[1:] if "=" in field)


def _drift(old, new):
    """(|dF|/|F|, iters equal, nnz equal) between the fields of two solver lines."""
    f_old, f_new = float(old["F"]), float(new["F"])
    rel = abs(f_new - f_old) / abs(f_old) if f_old else abs(f_new - f_old)
    return rel, old["iters"] == new["iters"], old["nnz"] == new["nnz"]


if __name__ == "__main__":
    main()
