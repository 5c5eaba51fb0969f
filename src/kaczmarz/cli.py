"""Command-line front end: gen, solve, bench, verify.

Exit codes are a total function of the outcome: 0 for success (solve:
converged; verify: every check passed), 2 for a clean negative outcome
(solve: iteration cap or overflow; verify: some check failed), 1 for input
errors of any kind. The KACZMARZ_LOG environment variable (error, info,
debug) controls stderr logging; it never changes file outputs.

bench writes one CSV row per (instance, solver, repetition). Fields other
than wall_time are deterministic for fixed flags: rerunning the same command
reproduces the file byte for byte except that column.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import KaczmarzError
from .generate import KINDS, InstanceSpec, generate
from .matrices import DualSparseMatrix
from .mmio import (
    read_matrix_market,
    read_vector,
    write_csv,
    write_matrix_market,
    write_vector,
)
from .reference import min_norm_solve
from .solvers import SOLVERS, SolverConfig, solve, theory_bounds
from .verify import run_all_checks

log = logging.getLogger("kaczmarz")

BENCH_FIELDS = [
    "instance",
    "solver",
    "m",
    "n",
    "nnz",
    "eps",
    "seed",
    "converged",
    "iters",
    "flops",
    "check_flops",
    "residual_norm",
    "atz_norm",
    "forward_err",
    "wall_time",
]


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _bool_flag(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError("expected true/false, got %r" % text)


def _add_instance_flags(p):
    p.add_argument("--kind", choices=KINDS, help="generated instance family")
    p.add_argument("--m", help="rows (bench: comma-separated sweep)")
    p.add_argument("--n", type=int, help="columns")
    p.add_argument("--density", type=float, default=0.25)
    p.add_argument("--cond", type=float, default=1e6, help="target sigma_max^2/sigma_min^2")
    p.add_argument("--consistent", type=_bool_flag, default=False)
    p.add_argument("--noise", type=float, default=0.0)


def _add_solver_flags(p, multi_solver=False):
    if multi_solver:
        p.add_argument("--solver", default="rek", help="comma-separated subset of rek,rk,rop")
    else:
        p.add_argument("--solver", default="rek", choices=SOLVERS)
    p.add_argument("--eps", type=float, default=1e-14)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--check-interval", type=int, default=None)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no state between calls."""
    parser = _Parser(prog="kaczmarz", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="kaczmarz %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance to Matrix Market files")
    _add_instance_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--matrix", required=True, help="output path for A")
    p_gen.add_argument("--rhs", required=True, help="output path for b")

    p_solve = sub.add_parser("solve", help="solve one instance from files")
    p_solve.add_argument("--matrix", required=True)
    p_solve.add_argument("--rhs", required=True)
    _add_solver_flags(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", help="write the solution estimate here")

    p_bench = sub.add_parser("bench", help="sweep instances x solvers x reps into a CSV")
    _add_instance_flags(p_bench)
    _add_solver_flags(p_bench, multi_solver=True)
    p_bench.add_argument("--matrix", help="benchmark a fixed matrix instead of generating")
    p_bench.add_argument("--rhs", help="rhs file to go with --matrix")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--oracle-cap", type=int, default=2000,
                         help="skip oracle columns when max(m,n) exceeds this")
    p_bench.add_argument("--delta", type=float, default=0.1)
    p_bench.add_argument("--csv", required=True, help="output CSV path")

    p_verify = sub.add_parser("verify", help="statistical checks against the oracle")
    _add_instance_flags(p_verify)
    p_verify.add_argument("--matrix", help="verify a fixed instance instead of generating")
    p_verify.add_argument("--rhs")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--reps", type=int, default=100)
    p_verify.add_argument("--checks", help="comma-separated subset of check names")
    return parser


def _configure_logging():
    level_name = os.environ.get("KACZMARZ_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise KaczmarzError("KACZMARZ_LOG must be one of error, info, debug")
    logging.basicConfig(
        level=levels[level_name],
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _instance_from_args(args, seed):
    if args.matrix:
        if not args.rhs:
            raise KaczmarzError("--rhs is required when --matrix is given")
        a = read_matrix_market(args.matrix)
        if not isinstance(a, DualSparseMatrix):
            a = DualSparseMatrix.from_dense(a)
        b = read_vector(args.rhs)
        if b.shape != (a.m,):
            raise KaczmarzError(
                "rhs length %d does not match matrix rows %d" % (b.size, a.m)
            )
        return a, b
    if not args.kind or args.m is None:
        raise KaczmarzError("either --matrix/--rhs or --kind/--m/--n is required")
    spec = _spec_from_args(args, _row_counts(args.m)[0], seed)
    a, b, _ = generate(spec)
    return a, b


def _row_counts(text, sweep=False):
    """The row counts in --m: one integer, or with `sweep` a comma-separated list."""
    try:
        counts = [int(tok) for tok in (_names(text) if sweep else [text])]
    except ValueError:
        raise KaczmarzError("--m takes %s, got %r" % (
            "comma-separated integers" if sweep else "one integer", text)) from None
    if not counts:
        raise KaczmarzError("--m names no row count")
    return counts


def _spec_from_args(args, m, seed):
    if args.n is None:
        raise KaczmarzError("--n is required when generating")
    return InstanceSpec(
        kind=args.kind,
        m=m,
        n=args.n,
        density=args.density,
        cond_target=args.cond,
        consistent=args.consistent,
        noise_scale=args.noise,
        seed=seed,
    )


# ----------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    if not args.kind or args.m is None:
        raise KaczmarzError("gen requires --kind, --m and --n")
    spec = _spec_from_args(args, _row_counts(args.m)[0], args.seed)
    a, b, _ = generate(spec)
    write_matrix_market(args.matrix, a, comment="kind=%s seed=%d" % (spec.kind, spec.seed))
    write_vector(args.rhs, b, comment="kind=%s seed=%d" % (spec.kind, spec.seed))
    log.info("wrote %s (%dx%d, nnz=%d) and %s", args.matrix, a.m, a.n, a.nnz, args.rhs)
    print("wrote matrix=%s rhs=%s m=%d n=%d nnz=%d" % (args.matrix, args.rhs, a.m, a.n, a.nnz))
    return 0


def _config(args, seed, solver):
    """The config of a `solver` run from `seed`, with --eps, --max-iters and --check-interval."""
    return SolverConfig(eps=args.eps, max_iters=args.max_iters,
                        check_interval=args.check_interval, seed=seed, solver=solver)


def cmd_solve(args):
    a, b = _instance_from_args(args, args.seed)
    report = solve(a, b, _config(args, args.seed, args.solver))
    if args.out:
        estimate = report.x if report.x is not None else report.z
        write_vector(args.out, estimate, comment="solver=%s seed=%d" % (args.solver, args.seed))
    parts = [
        "solver=%s" % args.solver,
        "termination=%s" % report.termination,
        "iters=%d" % report.iters,
        "flops=%d" % report.flops,
    ]
    if report.residual_norm is not None:
        parts.append("residual=%.6g" % report.residual_norm)
    if report.atz_norm is not None:
        parts.append("atz=%.6g" % report.atz_norm)
    parts.append("wall=%.3gs" % report.wall_time)
    print(" ".join(parts))
    return 0 if report.converged else 2


def _names(text):
    """The names in a comma-separated list, blanks dropped."""
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _bench_instances(args):
    """(rep, seed, name, a, b, oracle) for each rep of each point.

    A file instance does not depend on the seed, so it is read, and its
    oracle solved, once for all reps.
    """
    def oracle(a, b):
        return min_norm_solve(a, b) if max(a.m, a.n) <= args.oracle_cap else None

    if args.matrix:
        a, b = _instance_from_args(args, args.seed)
        fixed = (os.path.basename(args.matrix), a, b, oracle(a, b))
        for rep in range(args.reps):
            yield (rep, args.seed + rep) + fixed
        return
    if not args.kind or args.m is None:
        raise KaczmarzError("bench needs --kind/--m/--n or --matrix/--rhs")
    for point in _row_counts(args.m, sweep=True):
        for rep in range(args.reps):
            spec = _spec_from_args(args, point, args.seed + rep)
            a, b, _ = generate(spec)
            yield rep, spec.seed, "%s-%dx%d" % (spec.kind, spec.m, spec.n), a, b, oracle(a, b)


def _bench_rows(args):
    if args.reps < 1:
        raise KaczmarzError("--reps must be >= 1, got %d" % args.reps)
    solvers = _names(args.solver)
    if not solvers:
        raise KaczmarzError("--solver names no solver")
    for s in solvers:
        if s not in SOLVERS:
            raise KaczmarzError("unknown solver %r" % s)
    for rep, seed, name, a, b, ref in _bench_instances(args):
        for solver_name in solvers:
            config = _config(args, seed, solver_name)
            if config.max_iters is None and ref is not None:
                config.max_iters = math.ceil(
                    2.0 * theory_bounds(ref, eps=args.eps, delta=args.delta).t_star
                )
            report = solve(a, b, config)
            forward_err = None
            if ref is not None and report.x is not None:
                forward_err = float(np.linalg.norm(report.x - ref.x_ls))
            log.debug(
                "%s %s rep=%d: %s in %d iters",
                name, solver_name, rep, report.termination, report.iters,
            )
            yield {
                "instance": "%s-rep%d" % (name, rep),
                "solver": solver_name,
                "m": a.m,
                "n": a.n,
                "nnz": a.nnz,
                "eps": args.eps,
                "seed": seed,
                "converged": report.converged,
                "iters": report.iters,
                "flops": report.flops,
                "check_flops": report.check_flops,
                "residual_norm": report.residual_norm,
                "atz_norm": report.atz_norm,
                "forward_err": forward_err,
                "wall_time": report.wall_time,
            }


def cmd_bench(args):
    rows = list(_bench_rows(args))
    write_csv(args.csv, BENCH_FIELDS, rows)
    bad = sum(1 for r in rows if not r["converged"])
    print("wrote %s: %d rows (%d did not converge)" % (args.csv, len(rows), bad))
    return 0


def cmd_verify(args):
    a, b = _instance_from_args(args, args.seed)
    names = None if args.checks is None else _names(args.checks)
    results = run_all_checks(a, b, reps=args.reps, seed=args.seed, names=names)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 2


def main(argv=None):
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        handler = {
            "gen": cmd_gen,
            "solve": cmd_solve,
            "bench": cmd_bench,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except (KaczmarzError, OSError, ValueError, ZeroDivisionError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
