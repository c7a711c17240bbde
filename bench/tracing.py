"""Span tracing installed from outside the package.

The tracer wraps functions at the module bindings their callers use (for
example ``blockdec.dec.solve_block``, which is the name ``run_dec`` looks
up) and the methods of ``QuadraticObjective``.  Every wrapped call records a
span: name, start, end and parent span.  Spans stay in memory in flat arrays
and are written out once, when the run ends.

Span names are ``<layer>.<function>``; the layer is one of the package's
modules.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans plus the time spent outside
any span add up to the traced wall time exactly.

Only one thread may run traced code at a time.  The package's benchmark
harness runs its cells on a pool thread while the calling thread waits, so
with ``workers = 1`` the spans still nest.
"""

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

import blockdec
from blockdec import bench as bd_bench
from blockdec import baselines as bd_baselines
from blockdec import dec as bd_dec
from blockdec import problem as bd_problem
from blockdec import stationarity as bd_stationarity
from blockdec import working_set as bd_working_set

LAYERS = ("data", "problem", "prox", "working_set", "subproblem", "dec",
          "baselines", "stationarity", "bench")

_F8 = 8  # bytes per float64


class Tracer:
    """Flat in-memory span store plus named counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.enabled = True
        self._stack = []

    def name_index(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded, e.g. for output checks."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def __len__(self):
        return len(self.start)

    def summary(self, lo=0, hi=None):
        """Per-name totals over spans [lo, hi): calls, duration, self time.

        Returns ``{name: (calls, total_s, self_s)}``.  Spans in the range
        must form whole trees (no span in the range has a parent outside
        it), which holds for any range that starts and ends between
        top-level calls.
        """
        hi = len(self) if hi is None else hi
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {name: (int(calls[j]), float(total[j]), float(self_s[j]))
                for j, name in enumerate(self.names) if calls[j]}

    def top_level_seconds(self, lo=0, hi=None):
        """Total duration of the spans in [lo, hi) that have no parent."""
        hi = len(self) if hi is None else hi
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        return float(dur[par < 0].sum())

    def save(self, path):
        """Write every span and counter to one ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counter_names=np.array(sorted(self.counts)),
            counter_values=np.array([self.counts[c] for c in sorted(self.counts)],
                                    dtype=np.float64))


def _wrap(tracer, name, fn, before=None, after=None):
    nid = tracer.name_index(name)

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# -- computed bytes --------------------------------------------------------
# Each problem-layer call is charged the bytes of the matrix operands its code
# path reads, from array shapes alone; cache effects are ignored, so the sum
# is labelled "computed".  The path depends on whether the Gram matrix is
# cached, which the package decides by comparing n with _GRAM_CACHE_LIMIT.


def _cached(obj):
    return obj._Q is not None or obj.n <= bd_problem._GRAM_CACHE_LIMIT


def _bytes(kind):
    def before(tracer, args):
        obj = args[0]
        n, m = obj.n, obj.m or 0
        if kind in ("value", "gradient"):
            passes = 1 if kind == "value" else 2
            nbytes = passes * m * n if obj.is_factored else n * n
        elif kind == "matvec":
            nbytes = n * n if _cached(obj) else 2 * m * n
        elif kind == "gram_submatrix":
            k = len(args[1])
            nbytes = k * k if _cached(obj) else m * k
        elif kind == "coordinate_lipschitz":
            nbytes = m * n if obj.is_factored and obj._Q is None else n
        else:  # gram fill: reads A, writes Q
            nbytes = m * n + n * n if obj._Q is None else 0
        tracer.counts["problem.bytes_computed"] += _F8 * nbytes
    return before


# -- counters from results ---------------------------------------------------


def _block_counts(prefix):
    def after(tracer, args, result):
        x = args[1]
        tracer.counts[f"{prefix}.calls"] += 1
        tracer.counts[f"{prefix}.patterns_evaluated"] += result.patterns_evaluated
        if not np.array_equal(result.x_next, x):
            tracer.counts[f"{prefix}.accepted"] += 1
    return after


def _dec_counts(tracer, args, result):
    _, trace = result
    steps = [r.step_norm for r in trace.records]
    tracer.counts["dec.iters"] += len(steps)
    tracer.counts["dec.moves"] += sum(1 for s in steps if s > 0.0)
    tracer.counts["dec.elapsed_s"] += sum(r.elapsed for r in trace.records)


def _iter_counts(key):
    def after(tracer, args, result):
        tracer.counts[key] += len(result[1])
    return after


def _targets():
    """(owner, attribute, span name, before hook, after hook) to wrap."""
    Q = bd_problem.QuadraticObjective
    return [
        # entry points the benchmark itself calls through the package
        (blockdec, "gen_random", "data.gen_random", None, None),
        (blockdec, "corrupt", "data.corrupt", None, None),
        (blockdec, "save_instance", "data.save_instance", None, None),
        (blockdec, "load_instance", "data.load_instance", None, None),
        (blockdec, "init_solution", "dec.init_solution", None, None),
        (blockdec, "run_dec", "dec.run_dec", None, _dec_counts),
        (blockdec, "pgm", "baselines.pgm", None, _iter_counts("baselines.pgm_iters")),
        (blockdec, "apgm", "baselines.apgm", None, _iter_counts("baselines.apgm_iters")),
        (blockdec, "omp", "baselines.omp", None, None),
        (blockdec, "landscape_table", "stationarity.landscape_table", None, None),
        (blockdec, "benchmark", "bench.benchmark", None, None),
        # the objective's methods, shared by every caller
        (Q, "__init__", "problem.init", None, None),
        (Q, "value", "problem.value", _bytes("value"), None),
        (Q, "gradient", "problem.gradient", _bytes("gradient"), None),
        (Q, "matvec", "problem.matvec", _bytes("matvec"), None),
        (Q, "gram_submatrix", "problem.gram_submatrix", _bytes("gram_submatrix"), None),
        (Q, "gram_matrix", "problem.gram_matrix", None, None),
        (Q, "linear_term", "problem.linear_term", None, None),
        (Q, "coordinate_lipschitz", "problem.coordinate_lipschitz",
         _bytes("coordinate_lipschitz"), None),
        (Q, "lipschitz_global", "problem.lipschitz_global", None, None),
        (Q, "_ensure_gram", "problem.gram_fill", _bytes("gram_fill"), None),
        (bd_problem.CompositeProblem, "__init__", "problem.composite_init", None, None),
        # the decomposition loop
        (bd_dec, "select_working_set", "working_set.select", None, None),
        (bd_dec, "solve_block", "subproblem.solve_block", None, _block_counts("subproblem")),
        (bd_dec, "composite_value", "problem.composite_value", None, None),
        (bd_working_set, "greedy_scores", "working_set.greedy_scores", None, None),
        # baselines
        (bd_baselines, "proximal_step", "prox.proximal_step", None, None),
        (bd_baselines, "composite_value", "problem.composite_value", None, None),
        # stationarity
        (bd_stationarity, "is_block_k", "stationarity.is_block_k", None, None),
        (bd_stationarity, "is_l_stationary", "stationarity.is_l_stationary", None, None),
        (bd_stationarity, "enumerate_basic_points", "stationarity.enumerate_basic_points",
         None, None),
        (bd_stationarity, "solve_block", "subproblem.solve_block", None,
         _block_counts("stationarity.block")),
        (bd_stationarity, "composite_value", "problem.composite_value", None, None),
        # the benchmark harness and the solvers it calls
        (bd_bench, "run_solver", "bench.run_solver", None, None),
        (bd_bench, "write_trace", "bench.write_trace", None, None),
        (bd_bench, "load_instance", "data.load_instance", None, None),
        (bd_bench, "init_solution", "dec.init_solution", None, None),
        (bd_bench, "run_dec", "dec.run_dec", None, _dec_counts),
        (bd_bench, "pgm", "baselines.pgm", None, _iter_counts("baselines.pgm_iters")),
        (bd_bench, "apgm", "baselines.apgm", None, _iter_counts("baselines.apgm_iters")),
        (bd_bench, "omp", "baselines.omp", None, None),
        (bd_bench, "composite_value", "problem.composite_value", None, None),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Install span wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, before, after in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
