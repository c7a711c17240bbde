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
      "theta": 1e-2, "epsilon": 1e-6, "window": 100, "max_iters": 2000,
      "timing": false
    }

A solver entry takes only ``name``, ``label``, ``krand`` and ``kgreedy``,
and makes one ``DecConfig`` from its sizes and the top-level settings; a key
left out keeps the field's default.  Every cell of the entry runs it with the
cell's init seed.  The label (by default the name, or
``dec-R<n_random>G<n_greedy>`` read from that config for dec) and the
instance name (a file's base name unless ``name`` is given; a generated
instance's m, n, support and seed) name trace files and summary rows, so
labels must be distinct, and so must instance names.  Both must be nonempty
strings without ``/``, ``,``, a path separator or a line break.  Every value
is checked before any output exists: a list must be a nonempty JSON list, a
number a JSON number (an integer where one is counted), a seed an integer
>= 0, ``timing`` a JSON boolean, and each level must fit each instance.
Top-level keys not shown above are ignored.

Each instance becomes one ``QuadraticObjective``, built once; it serves the
checks and every cell on that instance, which share its p and L.  Cells
(instance x solver x param x init-seed) run one after another in a fixed
order, so identical configs yield byte-identical outputs.  Timing columns are
written as 0 unless ``timing`` is set, for the same reason.
"""

import json
import numbers
import os
import time
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .baselines import apgm, cvx_l1_sweep, omp, pgm
from .data import FLOAT_FMT, check_seed, corrupt, gen_random, load_instance
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
    run: Callable  # (prob, config) -> (x, trace or None)
    cons_only: bool = False  # support-based: param is a sparsity level
    lambda_param: bool = False  # param is a penalty weight in either mode


def _stopping(config):
    return dict(max_iters=config.max_iters, epsilon=config.epsilon, window=config.window)


# The runners look the solvers and init_solution up in this module's globals
# when called, not when the table is built, so wrappers installed on those
# names see every call.
def _dec(prob, config):
    return run_dec(prob, init_solution(prob.n, prob.term, config.seed), config)


def _pgm(prob, config):
    return pgm(prob, init_solution(prob.n, prob.term, config.seed), **_stopping(config))


def _apgm(prob, config):
    return apgm(prob, init_solution(prob.n, prob.term, config.seed), **_stopping(config))


def _omp(prob, config):
    return omp(prob.objective.A, prob.objective.b, prob.term.s), None


def _cvx_l1(prob, config):
    return cvx_l1_sweep(prob.objective, prob.term.s, **_stopping(config)), None


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
    if not isinstance(name, str) or name not in SOLVERS:
        raise InvalidParameterError(
            f"unknown solver {name!r}; valid names: {', '.join(SOLVERS)}")
    spec = SOLVERS[name]
    if spec.cons_only and mode != "cons":
        raise InvalidParameterError(f"{name} requires cons mode (a sparsity level)")
    return spec


def run_solver(name, objective, mode, param, config):
    """Run one named solver on a QuadraticObjective; returns (x, trace_or_None, F(x)).

    The objective is the instance's own, built once and shared by every solve
    on it: no solver builds another.  ``param`` is the sparsity level in cons
    mode and the penalty weight in regu mode; the relaxation solvers pgm-l1 /
    pgm-lhalf use it as their own weight.  omp and cvx-l1 are support-based:
    they require cons mode.  ``config``, a ``DecConfig``,
    holds the run's settings, already checked when it was made; each solver
    reads the fields it takes.  F(x) is the composite objective of the term
    the solver ran on.
    """
    spec = solver_spec(name, mode)
    prob = CompositeProblem(objective, spec.term(mode, param))
    x, trace = spec.run(prob, config)
    return x, trace, composite_value(prob, x)


def _number(value, what, kind=float):
    """``kind(value)`` for a JSON number; an int must be whole, and a bool is no number."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (kind is int and not isinstance(value, numbers.Integral)
                and not float(value).is_integer())):
        raise InvalidParameterError(
            f"{what} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _nonempty_list(config, key, default=None):
    value = config.get(key, default)
    if not isinstance(value, list) or not value:
        raise InvalidParameterError(f"config needs a nonempty {key!r} list, got {value!r}")
    return value


def _instance_data(spec):
    """Materialize one config instance entry; returns (name, A, b)."""
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"an instance must be a JSON object, got {spec!r}")
    kind = spec.get("kind", "file")
    if kind == "file":
        path = spec.get("path")
        if not isinstance(path, str):
            raise InvalidParameterError(f"a file instance needs a 'path' string, got {path!r}")
        name = spec["name"] if "name" in spec else os.path.splitext(os.path.basename(path))[0]
        return name, *load_instance(path)
    if kind not in ("random", "random-corrupt"):
        raise InvalidParameterError(f"unknown instance kind {kind!r}")
    missing = [key for key in ("m", "n", "support") if key not in spec]
    if missing:
        raise InvalidParameterError(f"a {kind} instance needs {missing}")
    m, n, support, seed = (_number(spec.get(key, 0), f"instance {key!r}", int)
                           for key in ("m", "n", "support", "seed"))
    noise = _number(spec.get("noise", 10.0), "instance 'noise'")
    A, b, _ = gen_random(m, n, support, noise_scale=noise, seed=seed)
    if kind == "random":
        return f"random-m{m}-n{n}-k{support}-seed{seed}", A, b
    fraction, factor = (_number(spec.get(key, default), f"instance {key!r}")
                        for key, default in (("fraction", 0.02), ("factor", 100.0)))
    A = corrupt(A, fraction=fraction, factor=factor, seed=seed + 1)
    return f"corrupt-m{m}-n{n}-k{support}-seed{seed}", A, b


SOLVER_KEYS = frozenset({"name", "label", "krand", "kgreedy"})
SETTING_KINDS = {"theta": float, "epsilon": float, "window": int, "max_iters": int}


def _check_name(name, what):
    """A label or instance name is a trace file name's part and a CSV field."""
    if (not isinstance(name, str) or name.splitlines() != [name]
            or any(c in name for c in {"/", ",", os.sep, os.altsep} - {None})):
        raise InvalidParameterError(
            f"{what} must be a nonempty string without '/', ',' or a line break, got {name!r}")


def benchmark(config, out_dir):
    """Run every cell of a benchmark config; returns the results rows.

    Writes ``results.csv``, ``summary.csv``, and one trace CSV per
    trace-producing run under ``out_dir``/traces/.
    """
    if isinstance(config, str):
        with open(config) as fh:
            config = json.load(fh)
    if not isinstance(config, dict):
        raise InvalidParameterError(f"config must be a JSON object, got {type(config).__name__}")
    mode = config.get("mode", "cons")
    params = _nonempty_list(config, "params")
    for param in params:
        _number(param, "param")
    seeds = _nonempty_list(config, "init_seeds", [0])
    for seed in seeds:
        check_seed(seed, "init seed")
    settings = {key: _number(config[key], key, kind)
                for key, kind in SETTING_KINDS.items() if key in config}
    runs = []  # (name, label, DecConfig) per solver entry
    for spec in _nonempty_list(config, "solvers"):
        if not isinstance(spec, dict):
            raise InvalidParameterError(f"a solver entry must be a JSON object, got {spec!r}")
        unknown = set(spec) - SOLVER_KEYS
        if unknown:
            raise InvalidParameterError(
                f"unknown solver key(s) {sorted(unknown)}; valid keys: {sorted(SOLVER_KEYS)}")
        name = spec.get("name")
        solver_spec(name, mode)
        # the sizes are checked as dec's whichever solver the entry names
        sizes = {field: _number(spec[key], key, int)
                 for key, field in (("krand", "n_random"), ("kgreedy", "n_greedy")) if key in spec}
        run_config = DecConfig(**settings, **sizes)
        default = f"dec-R{run_config.n_random}G{run_config.n_greedy}" if name == "dec" else name
        label = spec.get("label", default)
        _check_name(label, "solver label")
        if label in [run[1] for run in runs]:
            # traces and summary rows are keyed by label
            raise InvalidParameterError(
                f"duplicate solver label {label!r}; give each solver a distinct 'label'")
        runs.append((name, label, run_config))
    timing = config.get("timing", False)
    if not isinstance(timing, bool):
        raise InvalidParameterError(f"timing must be true or false, got {timing!r}")

    objectives = {}  # instance name -> the one objective every cell on it solves
    for iname, A, b in map(_instance_data, _nonempty_list(config, "instances")):
        _check_name(iname, "instance name")
        if iname in objectives:
            raise InvalidParameterError(
                f"duplicate instance name {iname!r}: traces and summary rows are keyed by it")
        objectives[iname] = objective = QuadraticObjective(A=A, b=b)
        for name, label, run_config in runs:
            k = run_config.n_random + run_config.n_greedy
            if name == "dec" and k > objective.n:
                raise InvalidParameterError(
                    f"{label}: working-set size {k} exceeds n = {objective.n} of instance {iname}")
            for param in params:
                # unconverted, so a fractional level fails here
                CompositeProblem(objective, SOLVERS[name].term(mode, param))

    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    rows = []
    groups = {}
    for iname, objective in objectives.items():
        for name, label, run_config in runs:
            for param in params:
                finals = groups.setdefault((iname, label, param), [])
                for seed in seeds:
                    cell = replace(run_config, seed=seed)
                    tic = time.perf_counter()
                    x, trace, final = run_solver(name, objective, mode, param, cell)
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
