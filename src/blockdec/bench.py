"""Benchmark orchestration: config-driven runs, CSV results and traces.

A benchmark config is a JSON file::

    {
      "mode": "cons",                  # cons | regu
      "params": [10, 20],              # s values (cons) or weights (regu)
      "instances": [
        {"kind": "random",         "m": 64, "n": 256, "support": 10,
         "noise": 10.0, "seed": 1},
        {"kind": "random-corrupt", "m": 64, "n": 256, "support": 10,
         "noise": 10.0, "seed": 2, "fraction": 0.02, "factor": 100.0},
        {"kind": "file", "path": "data.txt", "name": "mydata"}
      ],
      "solvers": [
        {"name": "dec", "krand": 4, "kgreedy": 2},
        {"name": "pgm"}
      ],
      "init_seeds": [0, 1, 2, 3, 4],
      "theta": 1e-3, "epsilon": 1e-5, "window": 50, "max_iters": 1000,
      "timing": false
    }

A solver entry takes only ``name``, ``label``, ``krand`` and ``kgreedy``.
Its label (by default the name, or ``dec-R<krand>G<kgreedy>`` for dec)
names its trace files and summary rows, so labels must be distinct.

Cells (instance x solver x param x init-seed) run one after another in a
fixed order, so identical configs yield byte-identical outputs.  Timing
columns are written as 0 unless ``timing`` is set, for the same reason.
"""

import json
import os
import time
from typing import Callable, NamedTuple

import numpy as np

from .baselines import apgm, cvx_l1_sweep, omp, pgm
from .data import FLOAT_FMT, corrupt, gen_random, load_instance
from .dec import DecConfig, init_solution, run_dec
from .errors import InvalidParameterError
from .problem import (CompositeProblem, HalfPenalty, L1Penalty, QuadraticObjective,
                      composite_value, make_term)

TRACE_HEADER = "iter,objective,step_norm,working_set,elapsed_s"
RESULTS_HEADER = "instance,solver,mode,param,seed,final_objective,nnz,iters,wall_s"
SUMMARY_HEADER = "instance,solver,mode,param,mean_objective,median_objective"


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return FLOAT_FMT % v


def write_trace(path, trace, timing=False):
    """Serialize a SolveTrace to the iter/objective/step CSV schema."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        ws = ";".join(str(i) for i in r.working_set)
        el = r.elapsed if timing else 0.0
        lines.append(",".join([
            str(r.iteration), FLOAT_FMT % r.objective, FLOAT_FMT % r.step_norm,
            ws, FLOAT_FMT % el]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class Solver(NamedTuple):
    term: Callable  # (mode, param) -> the sparsity term solved and scored
    run: Callable  # (prob, A, b, seed, stop, dec) -> (x, trace or None)
    cons_only: bool = False  # support-based: param is a sparsity level
    lambda_param: bool = False  # param is a penalty weight in either mode


# The runners look the solvers and init_solution up in this module's globals
# when called, not when the table is built, so wrappers installed on those
# names see every call.
def _dec(prob, A, b, seed, stop, dec):
    x0 = init_solution(prob.n, prob.term, seed)
    return run_dec(prob, x0, DecConfig(seed=seed, **dec, **stop))


def _pgm(prob, A, b, seed, stop, dec):
    return pgm(prob, init_solution(prob.n, prob.term, seed), **stop)


def _apgm(prob, A, b, seed, stop, dec):
    return apgm(prob, init_solution(prob.n, prob.term, seed), **stop)


def _omp(prob, A, b, seed, stop, dec):
    return omp(A, b, prob.term.s), None


def _cvx_l1(prob, A, b, seed, stop, dec):
    return cvx_l1_sweep(A, b, prob.term.s, **stop), None


SOLVERS = {
    "dec": Solver(make_term, _dec),
    "pgm": Solver(make_term, _pgm),
    "apgm": Solver(make_term, _apgm),
    "omp": Solver(make_term, _omp, cons_only=True),
    "cvx-l1": Solver(make_term, _cvx_l1, cons_only=True),
    "pgm-l1": Solver(lambda mode, lam: L1Penalty(float(lam)), _pgm, lambda_param=True),
    "pgm-lhalf": Solver(lambda mode, lam: HalfPenalty(float(lam)), _pgm, lambda_param=True),
}


def solver_spec(name, mode):
    """The table entry for ``name``, checked against ``mode``."""
    if name not in SOLVERS:
        raise InvalidParameterError(
            f"unknown solver {name!r}; valid names: {', '.join(SOLVERS)}")
    spec = SOLVERS[name]
    if spec.cons_only and mode != "cons":
        raise InvalidParameterError(f"{name} requires cons mode (a sparsity level)")
    return spec


def run_solver(name, A, b, mode, param, seed, theta=1e-3, epsilon=1e-5,
               window=50, max_iters=1000, krand=4, kgreedy=2):
    """Run one named solver on factored data; returns (x, trace_or_None, F(x)).

    ``param`` is the sparsity level in cons mode and the penalty weight in
    regu mode; the relaxation solvers pgm-l1 / pgm-lhalf use it as their own
    weight.  omp and cvx-l1 are support-based and require cons mode.  F(x)
    is the composite objective of the term the solver ran on.
    """
    spec = solver_spec(name, mode)
    prob = CompositeProblem(QuadraticObjective(A=A, b=b), spec.term(mode, param))
    stop = dict(max_iters=max_iters, epsilon=epsilon, window=window)
    dec = dict(n_random=krand, n_greedy=kgreedy, theta=theta)
    x, trace = spec.run(prob, A, b, seed, stop, dec)
    return x, trace, composite_value(prob, x)


def _instance_data(spec):
    """Materialize one config instance entry; returns (name, A, b)."""
    kind = spec.get("kind", "file")
    if kind == "file":
        path = spec["path"]
        name = spec.get("name") or os.path.splitext(os.path.basename(path))[0]
        A, b = load_instance(path)
        return name, A, b
    m, n = int(spec["m"]), int(spec["n"])
    support = int(spec["support"])
    noise = float(spec.get("noise", 10.0))
    seed = int(spec.get("seed", 0))
    A, b, _ = gen_random(m, n, support, noise_scale=noise, seed=seed)
    if kind == "random":
        name = f"random-m{m}-n{n}-k{support}-seed{seed}"
    elif kind == "random-corrupt":
        fraction = float(spec.get("fraction", 0.02))
        factor = float(spec.get("factor", 100.0))
        A = corrupt(A, fraction=fraction, factor=factor, seed=seed + 1)
        name = f"corrupt-m{m}-n{n}-k{support}-seed{seed}"
    else:
        raise InvalidParameterError(f"unknown instance kind {kind!r}")
    return name, A, b


SOLVER_KEYS = frozenset({"name", "label", "krand", "kgreedy"})


def _solver_label(spec):
    name = spec["name"]
    if name == "dec":
        return spec.get("label", f"dec-R{spec.get('krand', 4)}G{spec.get('kgreedy', 2)}")
    return spec.get("label", name)


def benchmark(config, out_dir):
    """Run every cell of a benchmark config; returns the results rows.

    Writes ``results.csv``, ``summary.csv``, and one trace CSV per
    trace-producing run under ``out_dir``/traces/.
    """
    if isinstance(config, str):
        with open(config) as fh:
            config = json.load(fh)
    mode = config.get("mode", "cons")
    params = config.get("params")
    if not params:
        raise InvalidParameterError("config needs a nonempty 'params' list")
    solvers = config.get("solvers")
    if not solvers:
        raise InvalidParameterError("config needs a nonempty 'solvers' list")
    labels = set()
    for spec in solvers:
        unknown = set(spec) - SOLVER_KEYS
        if unknown:
            raise InvalidParameterError(
                f"unknown solver key(s) {sorted(unknown)}; valid keys: {sorted(SOLVER_KEYS)}")
        solver_spec(spec.get("name"), mode)
        label = _solver_label(spec)
        if label in labels:
            # traces and summary rows are keyed by label
            raise InvalidParameterError(
                f"duplicate solver label {label!r}; give each solver a distinct 'label'")
        labels.add(label)
    seeds = config.get("init_seeds", [0])
    opts = dict(theta=float(config.get("theta", 1e-3)),
                epsilon=float(config.get("epsilon", 1e-5)),
                window=int(config.get("window", 50)),
                max_iters=int(config.get("max_iters", 1000)))
    timing = bool(config.get("timing", False))

    instances = [_instance_data(spec) for spec in config.get("instances", [])]
    if not instances:
        raise InvalidParameterError("config needs a nonempty 'instances' list")

    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    rows = []
    groups = {}
    for iname, A, b in instances:
        for sspec in solvers:
            label = _solver_label(sspec)
            for param in params:
                finals = groups.setdefault((iname, label, param), [])
                for seed in seeds:
                    tic = time.perf_counter()
                    x, trace, final = run_solver(
                        sspec["name"], A, b, mode, param, seed, **opts,
                        krand=int(sspec.get("krand", 4)),
                        kgreedy=int(sspec.get("kgreedy", 2)))
                    wall = time.perf_counter() - tic
                    iters = len(trace) if trace is not None else 0
                    rows.append(",".join([
                        iname, label, mode, _fmt(param), str(seed), FLOAT_FMT % final,
                        str(int(np.count_nonzero(x))), str(iters),
                        FLOAT_FMT % (wall if timing else 0.0)]))
                    finals.append(final)
                    if trace is not None:
                        tname = f"{iname}_{label}_{_fmt(param)}_{seed}.csv"
                        write_trace(os.path.join(trace_dir, tname), trace, timing=timing)

    with open(os.path.join(out_dir, "results.csv"), "w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")

    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for (iname, label, param), finals in groups.items():
            vals = np.asarray(finals)
            fh.write(",".join([
                iname, label, mode, _fmt(param),
                FLOAT_FMT % float(np.mean(vals)),
                FLOAT_FMT % float(np.median(vals))]) + "\n")
    return rows
