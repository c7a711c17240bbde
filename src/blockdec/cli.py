"""Command-line interface.

Subcommands: generate (random instances), solve (any solver on an instance
file), verify (stationarity checks on a stored point), table1 (the built-in
six-variable landscape census), benchmark (config-driven runs).

Exit codes: 0 success, 1 usage error, 2 data/file error, 3 numerical
failure.  All output is deterministic for fixed arguments; timing columns
are zero unless --timing is given.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import bench, data
from .dec import DecConfig
from .errors import (BudgetExceededError, DataFormatError,
                     DegenerateSystemError, DimensionMismatchError,
                     InvalidParameterError, NumericalError)
from .problem import (Cardinality, CompositeProblem, L0Penalty, QuadraticObjective,
                      composite_value)
from .stationarity import (is_basic, is_block_k, is_l_stationary,
                           landscape_table, table1_problem)

USAGE_EXIT, DATA_EXIT, NUMERICAL_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _build_parser():
    top = _Parser(prog="blockdec", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance file",
                       parents=[], add_help=True)
    g.add_argument("--kind", choices=["random", "random-corrupt"], default="random")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--support", type=int, required=True)
    g.add_argument("--noise", type=float, default=10.0)
    g.add_argument("--fraction", type=float, default=0.02,
                   help="fraction of entries to corrupt (random-corrupt)")
    g.add_argument("--factor", type=float, default=100.0,
                   help="multiplier for corrupted entries")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--truth", help="optionally write x_true to this file")

    s = sub.add_parser("solve", help="run a solver on an instance file")
    s.add_argument("--instance", required=True)
    s.add_argument("--solver", required=True, choices=list(bench.SOLVERS))
    s.add_argument("--mode", required=True, choices=["cons", "regu"])
    s.add_argument("--s", type=int, help="sparsity level (cons mode)")
    s.add_argument("--lambda", dest="lam", type=float, help="penalty weight (regu mode)")
    s.add_argument("--krand", dest="n_random", type=int, default=DecConfig.n_random)
    s.add_argument("--kgreedy", dest="n_greedy", type=int, default=DecConfig.n_greedy)
    s.add_argument("--theta", type=float, default=DecConfig.theta)
    s.add_argument("--epsilon", type=float, default=DecConfig.epsilon)
    s.add_argument("--window", type=int, default=DecConfig.window)
    s.add_argument("--max-iters", type=int, default=DecConfig.max_iters)
    s.add_argument("--seed", type=int, default=DecConfig.seed)
    s.add_argument("--trace", help="write the per-iteration trace CSV here")
    s.add_argument("--out", help="write the solution point here")
    s.add_argument("--timing", action="store_true",
                   help="record real times (off by default for reproducible output)")

    v = sub.add_parser("verify", help="check stationarity of a stored point")
    v.add_argument("--instance", required=True)
    v.add_argument("--point", required=True)
    v.add_argument("--check", required=True, choices=["basic", "lstat", "blockk"])
    v.add_argument("--k", type=int, help="block size (blockk)")
    v.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--s", type=int, help="sparsity level (constrained problem)")
    v.add_argument("--lambda", dest="lam", type=float, help="penalty weight")
    v.add_argument("--tol", type=float, help="override the check tolerance")
    v.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("table1", help="landscape census of the built-in example")
    t.add_argument("--mode", required=True, choices=["cons", "regu"])

    b = sub.add_parser("benchmark", help="run a benchmark config")
    b.add_argument("--config", required=True)
    b.add_argument("--out-dir", required=True)
    return top


def _cmd_generate(args):
    A, b, x_true = data.gen_random(args.m, args.n, args.support,
                                   noise_scale=args.noise, seed=args.seed)
    if args.kind == "random-corrupt":
        A = data.corrupt(A, fraction=args.fraction, factor=args.factor,
                         seed=args.seed + 1)
    data.save_instance(args.out, A, b)
    if args.truth:
        data.save_point(args.truth, x_true)
    print(f"wrote {args.out}: m={args.m} n={args.n} support={args.support} "
          f"kind={args.kind} seed={args.seed}")
    return 0


def _cmd_solve(args):
    A, b = data.load_instance(args.instance)
    objective = QuadraticObjective(A=A, b=b)
    spec = bench.solver_spec(args.solver, args.mode)
    flag = "--lambda" if spec.lambda_param or args.mode == "regu" else "--s"
    param = args.lam if flag == "--lambda" else args.s
    if param is None:
        raise InvalidParameterError(f"{args.solver} in {args.mode} mode requires {flag}")
    config = DecConfig(**{f.name: getattr(args, f.name) for f in fields(DecConfig)})
    x, trace, final = bench.run_solver(args.solver, objective, args.mode, param, config)
    print(f"solver={args.solver} mode={args.mode} param={bench._fmt(param)} "
          f"seed={args.seed}")
    print(f"final_objective={data.FLOAT_FMT % final} "
          f"nnz={int(np.count_nonzero(x))} "
          f"iters={len(trace) if trace is not None else 0} "
          f"status={trace.status if trace is not None else 'direct'}")
    if args.trace:
        if trace is None:
            print(f"note: {args.solver} produces no iteration trace")
        else:
            bench.write_trace(args.trace, trace, timing=args.timing)
    if args.out:
        data.save_point(args.out, x)
    return 0


def _cmd_verify(args):
    if (args.s is None) == (args.lam is None):
        raise InvalidParameterError("verify needs exactly one of --s or --lambda")
    A, b = data.load_instance(args.instance)
    obj = QuadraticObjective(A=A, b=b)
    x = data.load_point(args.point, n=obj.n)
    term = Cardinality(args.s) if args.s is not None else L0Penalty(args.lam)
    prob = CompositeProblem(obj, term)
    f = composite_value(prob, x)
    obj_str = data.FLOAT_FMT % f if isinstance(f, float) else repr(f)
    print(f"point: nnz={int(np.count_nonzero(x))} objective={obj_str}")
    tol_kw = {} if args.tol is None else {"tol": args.tol}
    if args.check == "basic":
        ok = is_basic(prob, x, **tol_kw)
        print(f"check=basic result={str(bool(ok)).lower()}")
    elif args.check == "lstat":
        ok = is_l_stationary(prob, x, **tol_kw)
        print(f"check=lstat result={str(bool(ok)).lower()}")
    else:
        if args.k is None:
            raise InvalidParameterError("blockk requires --k")
        ok = is_block_k(prob, x, args.k, mode=args.mode, trials=args.trials,
                        seed=args.seed, **tol_kw)
        print(f"check=blockk k={args.k} mode={args.mode} "
              f"result={str(bool(ok)).lower()}")
    return 0


def _cmd_table1(args):
    prob = table1_problem(args.mode)
    counts = landscape_table(prob)
    ks = sorted(counts.block)
    header = ["basic", "l_stationary"] + [f"block_{k}" for k in ks]
    print(",".join(header))
    print(",".join(str(v) for v in counts.row()))
    return 0


def _cmd_benchmark(args):
    rows = bench.benchmark(args.config, args.out_dir)
    print(f"wrote {args.out_dir}/results.csv ({len(rows)} rows) and summary.csv")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "table1": _cmd_table1,
    "benchmark": _cmd_benchmark,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InvalidParameterError, DimensionMismatchError, BudgetExceededError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except (DataFormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DATA_EXIT
    except (DegenerateSystemError, NumericalError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
