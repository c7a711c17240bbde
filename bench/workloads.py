"""The benchmark's workloads: seeded inputs, the operations run on them, and
the checks every operation's output must pass.

Every workload is a closed loop in one process: one operation at a time, each
started when the previous one has returned.  A *pass* runs every operation of
the workload once, in a fixed order; the run repeats passes, so each
operation's output is also checked for bit-identical repeats.  Instance seeds
and init seeds all come from the run's ``--seed``; the package only ever
sees the generated arrays and the instance files written from them.

Each workload's ``why`` records the layer it loads and the layer it bypasses,
so that a later change can cite the workload on which its prediction is
"no change".
"""

import contextlib
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

import blockdec as bd
from blockdec.bench import make_term
from blockdec.data import FLOAT_FMT

# shared solver settings: the package's defaults, R4G2 working sets
THETA = 1e-3
EPSILON = 1e-5
WINDOW = 50
MAX_ITERS = 1000
KRAND, KGREEDY = 4, 2
NOISE = 10.0
CORRUPT_FRACTION, CORRUPT_FACTOR = 0.02, 100.0

# tolerances of the output checks
FINAL_REL_TOL = 1e-9   # dec's accumulated F against a fresh composite_value
DESCENT_TOL = 1e-10    # criterion 3 slack, relative to max(1, |F_t|)


@dataclass(frozen=True)
class SolverWorkload:
    """Seeded least-squares instances solved by dec and the baselines.

    Cells are instances x solvers x init seeds, as in a benchmark config;
    ``omp`` ignores the init seed but runs once per cell all the same.  With
    ``baseline_inits`` set, the baselines run on only that many of the init
    seeds: their solve times hardly depend on the start, while dec's
    iteration count does, so dec needs more cells to average it out.
    """

    name: str
    why: str
    m: int
    n: int
    support: int
    mode: str          # "cons": Cardinality(param); "regu": L0Penalty(param)
    param: float
    instances: int
    inits: int
    solvers: tuple
    corrupt: bool = False
    dec_max_iters: int = MAX_ITERS
    dec_window: int = WINDOW
    harness: bool = False
    baseline_inits: int = None

    def term(self):
        return make_term(self.mode, self.param)


@dataclass(frozen=True)
class CensusWorkload:
    """Exhaustive landscape census of seeded small problems, in both modes."""

    name: str
    why: str
    m: int
    n: int
    support: int
    noise: float
    instances: int
    s: int
    lam: float
    k_max: int


WORKLOADS = {w.name: w for w in (
    SolverWorkload(
        name="paper-corrupt",
        why=("The paper-scale case and acceptance criterion 5: 64x256, 2% of "
             "entries scaled x100, 8 instances x 6 init seeds. The Gram "
             "matrix is tiny and cached, so dec's per-iteration Python work "
             "dominates: it loads working_set, then subproblem, then "
             "problem; the data layer is negligible (0.3 MB files). dec's "
             "iteration count under its stopping rule varies from cell to "
             "cell, hence 48 cells. It is also the only workload that runs "
             "the benchmark harness, so bench.py is measured here."),
        m=64, n=256, support=10, mode="cons", param=10, corrupt=True,
        instances=8, inits=6, solvers=("dec", "pgm", "apgm", "omp"),
        harness=True),
    SolverWorkload(
        name="factored-500x5000",
        why=("n = 5000 exceeds _GRAM_CACHE_LIMIT = 4096, so every product "
             "goes through A (the factored branch of problem) and the 50 MB "
             "instance file makes data dominate setup_s. dec stalls here: "
             "from the tiny full-support start it makes a move or two, far "
             "above pgm and omp. This is where swap-aware working sets "
             "(ROADMAP item 2) show, in dec_objective. The subproblem layer "
             "is nearly idle. Under its stopping rule dec stops after 50 "
             "iterations when it never moves and after 80 or more when it "
             "does, so its solve time would jump between the two from seed "
             "to seed; it runs a fixed 100 iterations instead, so that "
             "dec_solve_s is a fixed-work number and a selection rule that "
             "keeps moving is not charged for running longer."),
        m=500, n=5000, support=20, mode="cons", param=20,
        instances=1, inits=2, baseline_inits=1,
        solvers=("dec", "pgm", "apgm", "omp"),
        dec_max_iters=100, dec_window=1000),
    SolverWorkload(
        name="penalized-256x2048",
        why=("L0Penalty(50): no budget pruning, so every block enumerates "
             "all 64 patterns and subproblem is heavy. The problem layer "
             "runs through the cached 2048^2 Gram matrix, the opposite "
             "branch from factored-500x5000; with one BLAS thread those "
             "products take the largest share. Run to its stopping rule dec "
             "takes about 1000 iterations, so it runs a fixed 300 "
             "iterations under a window longer than that, which makes "
             "dec_solve_s a fixed-work throughput number. omp does not "
             "apply to a penalty."),
        m=256, n=2048, support=20, mode="regu", param=50.0,
        instances=1, inits=1, solvers=("dec", "pgm", "apgm"),
        dec_max_iters=300, dec_window=1000),
    CensusWorkload(
        name="census",
        why=("landscape_table on sixteen seeded 20x8 problems with "
             "Cardinality(4) and L0Penalty(0.5) at k_max = 3: the only "
             "workload where stationarity runs (is_block_k is most of it). "
             "It calls solve_block at theta = 0 with k <= 3, a different use "
             "of the subproblem from dec. working_set and baselines stay "
             "idle, so a working-set change is predicted flat here; fast "
             "block-k certificates (ROADMAP item 5) show in census_s. Census "
             "time varies from problem to problem with how soon each point "
             "fails, so many small problems are steadier than a few larger "
             "ones."),
        m=20, n=8, support=4, noise=1.0, instances=16, s=4, lam=0.5,
        k_max=3),
)}


def solver_label(name):
    return f"dec-R{KRAND}G{KGREEDY}" if name == "dec" else name


# ---------------------------------------------------------------------------
# set-up: generate, write in the dense format, read back


def seeds(workload, seed):
    """(instance seeds, init seeds), all drawn from the run's seed."""
    rng = np.random.default_rng(seed)
    inst = [int(v) for v in rng.integers(0, 2 ** 31, size=workload.instances)]
    inits = ([int(v) for v in rng.integers(0, 2 ** 31, size=workload.inits)]
             if isinstance(workload, SolverWorkload) else [])
    return inst, inits


def setup(workload, seed, tmpdir):
    """Generate the workload's instances, save them, and load them back.

    Returns ``(instances, file_bytes)`` with instances a list of
    ``(name, path, A, b)`` as loaded from the files.
    """
    inst_seeds, _ = seeds(workload, seed)
    noise = workload.noise if isinstance(workload, CensusWorkload) else NOISE
    out, nbytes = [], 0
    for i, iseed in enumerate(inst_seeds):
        A, b, _ = bd.gen_random(workload.m, workload.n, workload.support,
                                noise_scale=noise, seed=iseed)
        if getattr(workload, "corrupt", False):
            A = bd.corrupt(A, fraction=CORRUPT_FRACTION,
                           factor=CORRUPT_FACTOR, seed=iseed + 1)
        name = f"{workload.name}-{i}"
        path = os.path.join(tmpdir, name + ".txt")
        bd.save_instance(path, A, b)
        nbytes += os.path.getsize(path)
        A, b = bd.load_instance(path)
        out.append((name, path, A, b))
    return out, nbytes


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass
class Op:
    """One timed operation and what its checks found."""

    kind: str            # solver name, "harness" or "census"
    key: tuple           # identifies the cell across passes
    wall_s: float
    value: object = None  # final F, or census row
    iters: int = 0
    error: str = ""
    dec_walls: tuple = ()  # harness only: its own per-cell dec solve times


class Checker:
    """Applies the output checks and remembers first-pass outputs.

    Checks that call into the package run inside ``quiet()``, which a traced
    run points at the tracer's pause, so checking stays out of the spans.
    """

    def __init__(self, quiet=contextlib.nullcontext):
        self.first = {}
        self.ops = []
        self.quiet = quiet

    def fail(self, op, why):
        if not op.error:
            op.error = why

    def repeat(self, op):
        prev = self.first.setdefault(op.key, op.value)
        if prev != op.value:
            self.fail(op, f"output {op.value!r} differs from first pass {prev!r}")

    def add(self, op):
        self.ops.append(op)
        return op

    @property
    def failed(self):
        return [op for op in self.ops if op.error]


def _check_solver_output(checker, op, prob, x, s):
    F = bd.composite_value(prob, x)
    if F is bd.INFEASIBLE or (s is not None and np.count_nonzero(x) > s):
        checker.fail(op, f"infeasible: {np.count_nonzero(x)} nonzeros > {s}")
        return
    F = float(F)
    op.value = F
    if not math.isfinite(F):
        checker.fail(op, f"non-finite objective {F}")
    checker.repeat(op)


def _check_dec_trace(checker, op, trace):
    F = op.value
    if F is None:
        return
    if abs(trace.final_objective - F) > FINAL_REL_TOL * max(1.0, abs(F)):
        checker.fail(op, f"trace final F {trace.final_objective!r} != "
                         f"composite_value {F!r}")
    objs = [r.objective for r in trace.records] + [trace.final_objective]
    for rec, f_next in zip(trace.records, objs[1:]):
        if (f_next + 0.5 * THETA * rec.step_norm ** 2
                > rec.objective + DESCENT_TOL * max(1.0, abs(rec.objective))):
            checker.fail(op, f"criterion 3 broken at iteration {rec.iteration}")
            return


def _solve(workload, solver, A, b, init_seed):
    """The timed scope: from (A, b, term, init seed) to x."""
    term = workload.term()
    if solver == "omp":
        return bd.omp(A, b, int(workload.param)), None
    prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b), term)
    x0 = bd.init_solution(workload.n, term, init_seed)
    if solver == "dec":
        config = bd.DecConfig(
            n_random=KRAND, n_greedy=KGREEDY, theta=THETA, epsilon=EPSILON,
            window=workload.dec_window, max_iters=workload.dec_max_iters,
            seed=init_seed)
        return bd.run_dec(prob, x0, config)
    runner = bd.pgm if solver == "pgm" else bd.apgm
    return runner(prob, x0, max_iters=MAX_ITERS, epsilon=EPSILON, window=WINDOW)


def run_solver_cell(workload, checker, inst, solver, init_seed):
    name, _, A, b = inst
    op = checker.add(Op(kind=solver, key=(name, solver, init_seed), wall_s=0.0))
    tic = time.perf_counter()
    try:
        x, trace = _solve(workload, solver, A, b, init_seed)
    except Exception:  # a failed operation is counted, never dropped
        op.wall_s = time.perf_counter() - tic
        checker.fail(op, traceback.format_exc())
        return op
    op.wall_s = time.perf_counter() - tic
    s = int(workload.param) if workload.mode == "cons" else None
    with checker.quiet():
        prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b), workload.term())
        _check_solver_output(checker, op, prob, x, s)
    if trace is not None:
        op.iters = len(trace)
        if solver == "dec":
            _check_dec_trace(checker, op, trace)
    return op


def harness_config(workload, instances, init_seeds):
    return {
        "mode": workload.mode, "params": [workload.param],
        "instances": [{"kind": "file", "path": path, "name": name}
                      for name, path, _, _ in instances],
        "solvers": [{"name": "dec", "krand": KRAND, "kgreedy": KGREEDY}]
                   + [{"name": s} for s in workload.solvers if s != "dec"],
        "init_seeds": list(init_seeds),
        "theta": THETA, "epsilon": EPSILON, "window": WINDOW,
        "max_iters": MAX_ITERS, "workers": 1, "timing": True,
    }


def run_harness(workload, checker, instances, init_seeds, out_dir, direct):
    """One ``benchmark(config, out_dir)`` call over the workload's cells.

    ``direct`` maps (instance, solver, init seed) to the objective of the
    direct call; each ``final_objective`` in results.csv must equal it
    formatted with FLOAT_FMT.  The harness times each cell over the same
    scope as a direct call, so its dec times are kept as solve samples.
    """
    op = checker.add(Op(kind="harness", key=("harness",), wall_s=0.0))
    config = harness_config(workload, instances, init_seeds)
    tic = time.perf_counter()
    try:
        bd.benchmark(config, out_dir)
    except Exception:
        op.wall_s = time.perf_counter() - tic
        checker.fail(op, traceback.format_exc())
        return op
    op.wall_s = time.perf_counter() - tic
    labels = {solver_label(s): s for s in workload.solvers}
    with open(os.path.join(out_dir, "results.csv")) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    if len(rows) != len(direct):
        checker.fail(op, f"{len(rows)} result rows for {len(direct)} cells")
    op.dec_walls = tuple(float(row[-1]) for row in rows
                         if labels.get(row[1]) == "dec")
    for inst, label, _, _, seed, final, *_ in rows:
        want = direct.get((inst, labels.get(label), int(seed)))
        if want is None or final != FLOAT_FMT % want:
            checker.fail(op, f"{inst} {label} seed {seed}: harness {final} "
                             f"!= direct {want!r}")
    return op


def run_census_problem(workload, checker, inst, mode):
    name, _, A, b = inst
    op = checker.add(Op(kind="census", key=(name, mode), wall_s=0.0))
    tic = time.perf_counter()
    try:
        term = bd.Cardinality(workload.s) if mode == "cons" else bd.L0Penalty(workload.lam)
        prob = bd.CompositeProblem(bd.QuadraticObjective(A=A, b=b), term)
        counts = bd.landscape_table(prob, k_max=workload.k_max)
    except Exception:
        op.wall_s = time.perf_counter() - tic
        checker.fail(op, traceback.format_exc())
        return op
    op.wall_s = time.perf_counter() - tic
    op.value = tuple(counts.row())
    chain = op.value
    if any(a < b for a, b in zip(chain, chain[1:])) or chain[-1] < 1:
        checker.fail(op, f"census counts {chain} break basic >= L >= block_k >= 1")
    checker.repeat(op)
    return op


def run_pass(workload, checker, instances, init_seeds, scratch):
    """Run every operation of the workload once; returns the pass's ops."""
    start = len(checker.ops)
    if isinstance(workload, CensusWorkload):
        for inst in instances:
            for mode in ("cons", "regu"):
                run_census_problem(workload, checker, inst, mode)
        return checker.ops[start:]
    direct = {}
    for inst in instances:
        for solver in workload.solvers:
            cells = init_seeds if solver == "dec" else init_seeds[:workload.baseline_inits]
            for init_seed in cells:
                op = run_solver_cell(workload, checker, inst, solver, init_seed)
                direct[op.key] = op.value
    if workload.harness:
        out_dir = os.path.join(scratch, f"harness-{len(checker.ops)}")
        run_harness(workload, checker, instances, init_seeds, out_dir, direct)
    return checker.ops[start:]
