"""blockdec benchmark: solve time, objective and per-layer spans.

Run from the repository root::

    python3 bench/run.py --workload paper-corrupt --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in a fresh process, one after the
other.  Each run prints a human-readable report and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The metric
names, units and bounds are declared in ``BENCHMARK.json`` at the root.

Untraced (``--trace 0``) runs give the end-to-end metrics.  They are the
metrics every workload has, so that each can be compared run against run:

* ``setup_s``: generate the instances, write them in the dense format and
  read them back with ``load_instance``; the median of repeated set-ups
  (at least three, and enough to fill three seconds).
* ``peak_rss_mb``: peak resident memory of the run's process.
* ``solve_s``: mean wall time of one operation of the method under study:
  one ``dec`` solve (from ``(A, b, term, init seed)`` to ``x``, Gram fill
  and Lipschitz estimate included) on the solver workloads, one census pass
  (``landscape_table`` over every census problem) on ``census``.  On
  ``paper-corrupt`` the harness's own per-cell dec timings, which cover the
  same scope, are pooled with the direct calls.  It is a mean over a fixed
  set of cells, not a median: dec's iteration count under its stopping rule
  varies from cell to cell, and over ten seeds the median spread more.
* ``pass_s``: median wall time of one pass over all the workload's
  operations (every solver on every cell, plus the harness call where the
  workload has one).

The report also prints, per workload, each solver's ``<solver>_solve_s``
(median, tail percentile, sample count) and ``<solver>_objective`` (mean
final F over its cells), ``census_s``, ``harness_s`` and ``fail_ratio``.

A traced (``--trace 1``) run first runs untraced passes, then sets up once
and runs one pass with spans installed (see ``tracing.py``); it reports the
per-layer metrics, the traced pass's layer split, and the tracing overhead.
Spans are written to ``.bench_out/`` when the run ends.

Every run pins BLAS to one thread and imports blockdec from this checkout's
``src/``; it writes only under ``.bench_tmp/`` and ``.bench_out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# setup_s is the median of repeated set-ups: at least SETUP_MIN of them and
# enough to fill SETUP_FILL_S seconds, so that millisecond set-ups are steady
SETUP_MIN, SETUP_MAX, SETUP_FILL_S = 3, 200, 3.0

# What each workload's traced pass is expected to show: the layer with the
# most self time, and the share of the traced operations' time it reaches.
# On census the block solves run on is_block_k's behalf, so the expectation
# is on the is_block_k span (children included) holding most of the time.
EXPECTED_DOMINANT = {
    "paper-corrupt": ("working_set", 0.0),
    "factored-500x5000": ("problem", 1.0 / 3.0),
    "penalized-256x2048": ("subproblem", 0.0),
    "census": ("stationarity.is_block_k", 0.5),
}


def _import_package():
    """Import blockdec from this checkout's src/ only, with one BLAS thread.

    On a small shared machine a second BLAS thread spin-waits on the other
    CPU and makes run-to-run timings noisier, so the thread count is pinned
    before numpy is first imported, which is when the BLAS library reads it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "blockdec", "__init__.py")):
        sys.exit(f"blockdec sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import blockdec
    if not os.path.abspath(blockdec.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported blockdec from {blockdec.__file__}, not {SRC}")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def environment(instances):
    import numpy as np
    import scipy

    from blockdec import problem
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of its config
        blas = {}
    threads = _blas_threads()
    l3 = _l3_bytes()
    largest = max(A.nbytes for _, _, A, _ in instances)
    n = instances[0][2].shape[1]
    gram = n * n * 8 if n <= problem._GRAM_CACHE_LIMIT else 0
    mib = 1024 ** 2
    print(f"env: nproc={nproc} blas={blas.get('name')} {blas.get('version')} "
          f"threads={threads if threads is not None else 'unknown'} "
          f"numpy={np.__version__} scipy={scipy.__version__} python={sys.version.split()[0]}")
    print(f"env: L3={l3 / mib if l3 else float('nan'):.1f} MiB, largest A "
          f"{largest / mib:.1f} MiB, cached Gram {gram / mib:.1f} MiB"
          + ("" if gram else f" (n = {n} > {problem._GRAM_CACHE_LIMIT}: factored path)"))
    if l3 and max(largest, gram) < l3:
        print("env: every operand fits in L3, so problem-layer times are "
              "cache-resident and say nothing about memory bandwidth")
    if threads is not None and threads > nproc:
        print(f"env: WARNING: BLAS uses {threads} threads on {nproc} CPUs")


# ---------------------------------------------------------------------------
# statistics and report


def tail(values):
    """(p, value): the highest percentile with at least ten samples beyond it."""
    import numpy as np
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def timing_line(name, values):
    p, v = tail(values)
    tail_txt = f"p{p} {v:.6g} s" if p else "tail n/a (< 20 samples)"
    print(f"  {name:<22} median {statistics.median(values):.6g} s, {tail_txt}, "
          f"mean {statistics.fmean(values):.6g} s, min {min(values):.6g} s, "
          f"max {max(values):.6g} s, n={len(values)}")


def report_untraced(workload, checker, setups, passes, file_bytes):
    from workloads import CensusWorkload
    ops = checker.ops
    print(f"  {'setup_s':<22} median {statistics.median(setups):.6g} s of "
          f"{len(setups)} (min {min(setups):.6g}, max {max(setups):.6g}), "
          f"{file_bytes / 1e6:.3f} MB written and read")
    if isinstance(workload, CensusWorkload):
        timing_line("census_s", passes)
        for mode in ("cons", "regu"):
            rows = [v for k, v in checker.first.items() if k[1] == mode]
            print(f"  census {mode} counts (basic, L-stationary, block-k...): "
                  + " ".join(str(list(r)) for r in rows))
    else:
        for solver in workload.solvers:
            walls = (dec_walls(checker) if solver == "dec"
                     else [op.wall_s for op in ops if op.kind == solver])
            timing_line(f"{solver}_solve_s", walls)
            first = [checker.first[k] for k in checker.first if k[1] == solver]
            finite = [v for v in first if v is not None]
            mean = statistics.fmean(finite) if finite else float("nan")
            iters = [op.iters for op in ops if op.kind == solver and op.iters]
            extra = f", median {statistics.median(iters):g} iterations" if iters else ""
            print(f"  {solver + '_objective':<22} {mean:.10g} F, mean of "
                  f"{len(finite)} cells{extra}")
        if workload.harness:
            timing_line("harness_s", [op.wall_s for op in ops if op.kind == "harness"])
    timing_line("pass_s", passes)
    print(f"  {'peak_rss_mb':<22} {peak_rss_mb():.1f} MB")


def dec_walls(checker):
    """Every dec solve time of the run: direct calls, then harness cells."""
    return ([op.wall_s for op in checker.ops if op.kind == "dec"]
            + [w for op in checker.ops if op.kind == "harness" for w in op.dec_walls])


def report_failures(checker):
    failed = checker.failed
    print(f"  {'fail_ratio':<22} {len(failed)}/{len(checker.ops)} = "
          f"{len(failed) / max(1, len(checker.ops)):.4g}")
    for op in failed[:5]:
        print(f"  FAILED {op.kind} {op.key}: {op.error}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


def _setup_timed(workload, seed, tmpdir):
    from workloads import setup
    tic = time.perf_counter()
    instances, nbytes = setup(workload, seed, tmpdir)
    return instances, nbytes, time.perf_counter() - tic


def _passes(workload, checker, instances, init_seeds, tmpdir, seconds, min_passes):
    from workloads import run_pass
    walls = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        tic = time.perf_counter()
        run_pass(workload, checker, instances, init_seeds, tmpdir)
        walls.append(time.perf_counter() - tic)
    return walls


def run_untraced(workload, seed, seconds, tmpdir):
    from workloads import CensusWorkload, Checker, seeds
    setups = []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_FILL_S
                                      and len(setups) < SETUP_MAX):
        instances, nbytes, wall = _setup_timed(workload, seed, tmpdir)
        setups.append(wall)
    environment(instances)
    checker = Checker()
    _, init_seeds = seeds(workload, seed)
    # every output must be seen twice: the harness call repeats each cell of
    # a pass, otherwise a second pass does
    min_passes = 1 if getattr(workload, "harness", False) else 2
    passes = _passes(workload, checker, instances, init_seeds, tmpdir, seconds,
                     min_passes)
    solve = passes if isinstance(workload, CensusWorkload) else dec_walls(checker)
    print(f"workload {workload.name}, seed {seed}: {len(passes)} passes, "
          f"{len(checker.ops)} operations")
    report_untraced(workload, checker, setups, passes, nbytes)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "solve_s": statistics.fmean(solve),
        "pass_s": statistics.median(passes),
    }
    return checker, metrics


def layer_metrics(tracer, lo, traced_pass_s, untraced_pass_s, data_spans):
    """Per-layer metrics of the traced pass (spans from index ``lo``)."""
    from tracing import LAYERS
    summary = tracer.summary(lo)
    counts = tracer.counts

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def pct(seconds):
        return 100.0 * seconds / traced_pass_s

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in summary.items():
        layer_self[name.split(".", 1)[0]] += own
    outside = traced_pass_s - tracer.top_level_seconds(lo)
    iters = counts["dec.iters"]
    blocks = counts["subproblem.calls"] + counts["stationarity.block.calls"]
    patterns = (counts["subproblem.patterns_evaluated"]
                + counts["stationarity.block.patterns_evaluated"])
    accepted = counts["subproblem.accepted"] + counts["stationarity.block.accepted"]
    m = {f"{layer}.self_pct": pct(layer_self[layer]) for layer in LAYERS}
    m.update({
        "data.gen_s": data_spans.get("data.gen_random", (0, 0.0))[1]
                      + data_spans.get("data.corrupt", (0, 0.0))[1],
        "data.save_s": data_spans.get("data.save_instance", (0, 0.0))[1],
        "data.load_s": data_spans.get("data.load_instance", (0, 0.0))[1],
        "problem.bytes_computed": counts["problem.bytes_computed"],
        "working_set.select_pct": pct(total("working_set.select")),
        "working_set.select_calls": calls("working_set.select"),
        "working_set.greedy_pct": pct(total("working_set.greedy_scores")),
        "subproblem.solve_block_pct": pct(total("subproblem.solve_block")),
        "subproblem.solve_block_calls": calls("subproblem.solve_block"),
        "subproblem.patterns_evaluated": patterns,
        "subproblem.patterns_per_call": patterns / blocks if blocks else 0.0,
        "subproblem.accept_ratio": accepted / blocks if blocks else 0.0,
        "dec.iters": iters,
        "dec.moves": counts["dec.moves"],
        "dec.zero_step_fraction": 1.0 - counts["dec.moves"] / iters if iters else 0.0,
        "dec.iter_ms": 1000.0 * counts["dec.elapsed_s"] / iters if iters else 0.0,
        "prox.proximal_step_pct": pct(total("prox.proximal_step")),
        "prox.proximal_step_calls": calls("prox.proximal_step"),
        "baselines.pgm_iters": counts["baselines.pgm_iters"],
        "baselines.apgm_iters": counts["baselines.apgm_iters"],
        "stationarity.is_block_k_pct": pct(total("stationarity.is_block_k")),
        "stationarity.is_block_k_calls": calls("stationarity.is_block_k"),
        "stationarity.enumerate_pct": pct(total("stationarity.enumerate_basic_points")),
        "stationarity.l_stationary_pct": pct(total("stationarity.is_l_stationary")),
        "stationarity.blocks_checked": counts["stationarity.block.calls"],
        "stationarity.patterns_evaluated": counts["stationarity.block.patterns_evaluated"],
        "bench.harness_pct": pct(total("bench.benchmark")),
        "trace.wall_s": traced_pass_s,
        "trace.overhead_ratio": traced_pass_s / untraced_pass_s,
        "trace.outside_pct": pct(outside),
        "trace.spans": len(tracer) - lo,
    })
    for fn in ("gradient", "matvec", "value", "coordinate_lipschitz"):
        m[f"problem.{fn}_pct"] = pct(total(f"problem.{fn}"))
        m[f"problem.{fn}_calls"] = calls(f"problem.{fn}")
    for fn in ("gram_submatrix", "gram_fill", "lipschitz_global"):
        m[f"problem.{fn}_pct"] = pct(total(f"problem.{fn}"))
    return m, layer_self, outside


def report_traced(workload, metrics, layer_self, outside, op_wall_s, data_file_mb):
    traced = metrics["trace.wall_s"]
    print(f"  traced pass {traced:.6g} s, overhead ratio "
          f"{metrics['trace.overhead_ratio']:.4f} against the untraced median")
    print("  layer self time in the traced pass:")
    for layer, own in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<13} {own:10.6f} s  {100 * own / traced:6.2f} %")
    print(f"    {'(benchmark)':<13} {outside:10.6f} s  {100 * outside / traced:6.2f} %"
          "  checks and loop code outside any span")
    spans = sum(layer_self.values())
    print(f"  layer self times cover {100 * spans / op_wall_s:.2f} % of the traced "
          f"operations' wall time ({op_wall_s:.6g} s)")
    expected, floor = EXPECTED_DOMINANT[workload.name]
    dominant = max(layer_self, key=layer_self.get)
    if "." in expected:
        share = metrics[expected + "_pct"] * traced / 100 / op_wall_s
        ok = share >= floor
    else:
        share = layer_self[expected] / op_wall_s
        ok = dominant == expected and share >= floor
    print(f"  dominant layer by self time: {dominant}; expected {expected}"
          + (f" at >= {100 * floor:.0f} %" if floor else "")
          + f" ({100 * share:.1f} %): {'ok' if ok else 'MISMATCH'}")
    print(f"  data: gen {metrics['data.gen_s']:.6g} s, save {metrics['data.save_s']:.6g} s, "
          f"load {metrics['data.load_s']:.6g} s, {data_file_mb:.3f} MB")
    iters = metrics["dec.iters"]
    if iters:
        print(f"  dec: {iters} iterations, {metrics['dec.moves']} moves, zero-step "
              f"fraction {metrics['dec.zero_step_fraction']:.4f}, "
              f"{metrics['dec.iter_ms']:.4f} ms per iteration")
    for key in sorted(metrics):
        print(f"    {key} = {metrics[key]:.6g}")


def run_traced(workload, seed, seconds, tmpdir, out_dir):
    from tracing import Tracer, installed
    from workloads import Checker, run_pass, seeds
    instances, _, _ = _setup_timed(workload, seed, tmpdir)
    environment(instances)
    tracer = Tracer()
    checker = Checker(quiet=tracer.paused)
    _, init_seeds = seeds(workload, seed)
    passes = _passes(workload, checker, instances, init_seeds, tmpdir, seconds, 1)
    with installed(tracer):
        instances, nbytes, _ = _setup_timed(workload, seed, tmpdir)
        lo = len(tracer)
        first_op = len(checker.ops)
        tic = time.perf_counter()
        run_pass(workload, checker, instances, init_seeds, tmpdir)
        traced = time.perf_counter() - tic
    op_wall = sum(op.wall_s for op in checker.ops[first_op:])
    metrics, layer_self, outside = layer_metrics(
        tracer, lo, traced, statistics.median(passes), tracer.summary(0, lo))
    metrics["data.file_mb"] = nbytes / 1e6
    print(f"workload {workload.name}, seed {seed}: {len(passes)} untraced passes, "
          f"1 traced pass, {len(checker.ops)} operations")
    report_traced(workload, metrics, layer_self, outside, op_wall, nbytes / 1e6)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.npz")
    tracer.save(path)
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return checker, metrics


def run_all(args):
    """Run every workload in a fresh process, one after the other."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    end_to_end, per_layer = _declared()

    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch_root)
    try:
        if args.trace:
            checker, values = run_traced(workload, args.seed, args.seconds, tmpdir,
                                         os.path.join(ROOT, ".bench_out"))
            declared = per_layer
        else:
            checker, values = run_untraced(workload, args.seed, args.seconds, tmpdir)
            declared = end_to_end
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    report_failures(checker)
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        sys.exit(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    failed = len(checker.failed)
    result = {
        "correct": failed == 0,
        "attempted": len(checker.ops),
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
