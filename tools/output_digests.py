"""Print one ``label sha256`` line per fixed, seeded run of the package.

A change that claims to keep outputs byte-identical is checked by listing
the parent checkout's runs and comparing this checkout's runs against them::

    python3 tools/output_digests.py --src ../parent/src > old.txt
    python3 tools/output_digests.py --against old.txt

With ``--against`` the script prints each label whose line moved, with its
old and new line, and exits 1 if any line moved.  A moved solver line also
gets its drift: |dF|/|F| between the two final objectives, and whether the
iteration count and nnz are equal.  The last line sums up: ``K/N identical``,
then for the moved solver runs the largest |dF|/|F| and how many kept both
iters and nnz.

A solver run's line also gives its final F (``%.17g``), iteration count and
nnz, ``label sha256 F=... iters=... nnz=...``, so a moved digest shows how
far the run moved.

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
    return (f"{_digest(x, records, trace.status, trace.final_objective)} "
            f"F={trace.final_objective:.17g} iters={len(trace)} nnz={int((x != 0).sum())}")


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
    drifts = []
    for label in moved:
        print(f"{label}\n  old: {old.get(label, '(absent)')}\n  new: {new.get(label, '(absent)')}")
        drift = _drift(old.get(label), new.get(label))
        if drift is not None:
            drifts.append(drift)
            rel, same_iters, same_nnz = drift
            print(f"  drift: |dF|/|F| = {rel:.3g}, iters {'equal' if same_iters else 'differ'}, "
                  f"nnz {'equal' if same_nnz else 'differ'}")
    summary = f"{len(labels) - len(moved)}/{len(labels)} identical"
    if drifts:
        kept = sum(same_iters and same_nnz for _, same_iters, same_nnz in drifts)
        summary += (f"; {len(drifts)} solver runs moved, max |dF|/|F| = "
                    f"{max(rel for rel, _, _ in drifts):.3g}, iters and nnz equal in "
                    f"{kept}/{len(drifts)}")
    print(summary)
    if moved:
        sys.exit(1)


def _drift(old_line, new_line):
    """(|dF|/|F|, iters equal, nnz equal) of a moved solver line; else None."""
    if old_line is None or new_line is None:
        return None
    fields = [dict(field.split("=", 1) for field in line.split()[1:] if "=" in field)
              for line in (old_line, new_line)]
    if not all({"F", "iters", "nnz"} <= set(f) for f in fields):
        return None
    f_old, f_new = (float(f["F"]) for f in fields)
    rel = abs(f_new - f_old) / abs(f_old) if f_old else abs(f_new - f_old)
    return rel, fields[0]["iters"] == fields[1]["iters"], fields[0]["nnz"] == fields[1]["nnz"]


if __name__ == "__main__":
    main()
