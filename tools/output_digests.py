"""Print one ``label sha256`` line per fixed, seeded run of the package.

A change that claims to keep outputs byte-identical is checked by running
this script on both checkouts and comparing the two listings::

    python3 tools/output_digests.py > new.txt
    python3 tools/output_digests.py --src ../parent/src > old.txt
    diff old.txt new.txt

Each digest covers the bytes of a run's output, never its timings:

* ``dec``: x, every trace record (F, step norm, working set), the status and
  the final F; R4G2, R0G6, R6G0, R6G6 and R1G0 in both modes on a corrupted
  64x256 instance (stopping rule), 256x2048 (300 iterations) and 30x4200
  (above ``_GRAM_CACHE_LIMIT``, 150 iterations);
* ``pgm`` and ``apgm``: the same fields, on the same instances;
* ``table1``: the census row of the six-variable demo, both modes;
* ``census``: the row and every basic point of four 20x8 problems, both
  modes, as the benchmark's census workload builds them;
* ``benchmark``: results, summary and trace files of
  ``demos/bench_corrupt.json``.

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
}
SPLITS = ((4, 2), (0, 6), (6, 0), (6, 6), (1, 0))  # (n_random, n_greedy)
CENSUS_SEEDS = (11, 12, 13, 14)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _run_digest(x, trace):
    records = [(r.iteration, r.objective, r.step_norm, r.working_set) for r in trace.records]
    return _digest(x, records, trace.status, trace.final_objective)


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
    """Yield (label, sha256) for every fixed run, in a fixed order."""
    for size, (m, n, s, corrupted, lam, max_iters, window) in SIZES.items():
        A, b, _ = bd.gen_random(m, n, s, seed=1)
        if corrupted:
            A = bd.corrupt(A, seed=2)
        for mode, term in (("cons", bd.Cardinality(s)), ("regu", bd.L0Penalty(lam))):
            prob = bd.CompositeProblem(bd.QuadraticObjective.from_factored(A, b), term)
            x0 = bd.init_solution(n, term, 0)
            for kr, kg in SPLITS:
                config = bd.DecConfig(n_random=kr, n_greedy=kg, seed=0,
                                      max_iters=max_iters, window=window)
                x, trace = bd.run_dec(prob, x0, config)
                yield f"dec-R{kr}G{kg}/{size}/{mode}", _run_digest(x, trace)
            for name, solver in (("pgm", bd.pgm), ("apgm", bd.apgm)):
                x, trace = solver(prob, x0)
                yield f"{name}/{size}/{mode}", _run_digest(x, trace)
    for mode in ("cons", "regu"):
        yield f"table1/{mode}", _digest(bd.landscape_table(bd.table1_problem(mode)).row())
    for seed in CENSUS_SEEDS:
        A, b, _ = bd.gen_random(20, 8, 4, noise_scale=1.0, seed=seed)
        for mode, term in (("cons", bd.Cardinality(4)), ("regu", bd.L0Penalty(0.5))):
            prob = bd.CompositeProblem(bd.QuadraticObjective.from_factored(A, b), term)
            supports, points = zip(*bd.enumerate_basic_points(prob))
            row = bd.landscape_table(prob, k_max=3).row()
            yield f"census/{seed}/{mode}", _digest(row, supports, *points)
    with tempfile.TemporaryDirectory() as out_dir:
        bd.benchmark(os.path.join(ROOT, "demos", "bench_corrupt.json"), out_dir)
        yield "benchmark/bench_corrupt", _file_digest(out_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the blockdec package (default: this checkout's src/)")
    src = os.path.abspath(parser.parse_args().src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import blockdec as bd
    if not os.path.abspath(bd.__file__).startswith(src + os.sep):
        sys.exit(f"imported blockdec from {bd.__file__}, not {src}")
    for label, digest in digests(bd):
        print(label, digest, flush=True)


if __name__ == "__main__":
    main()
