"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload mtx-roundtrip --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. With --trace 0 it runs the
workload's closed loop in a fresh process, which also times set-up in fresh
processes between its operations, and reports the end-to-end metrics. With
--trace 1 it runs the workload's first cycle of operations, each untraced and
traced, and reports the per-layer metrics. Every operation's output is
checked; failures are counted. See README.md in this directory.

Human-readable lines come first (environment, every metric with its unit and
sample count). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Full results, and the spans of a
traced run, are written under perfbench/.work/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# BENCHMARK.json gates the last two; dense-solve is run by hand (see README.md).
WORKLOADS = ("dense-solve", "mtx-roundtrip", "verify-battery")
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
# Layer metrics both gated workloads produce with a nonzero value. The others
# (mmio.*, verify.*, reference.*, solvers.rk/rop) are zero on one of them and
# are reported on the human-readable lines only.
PER_LAYER = (
    "solvers.rek.us_per_iter", "solvers.iters", "solvers.flops", "solvers.check_flops",
    "solvers.gflops", "solvers.flops_per_byte", "solvers.check_s", "solvers.checks",
    "sampling.draw_ns", "sampling.draws", "sampling.alias_build_s", "sampling.alias_builds",
    "matrices.build_s", "matrices.build_ns_per_nnz", "generate.s", "cli.self_s",
    "trace.overhead_frac",
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """This environment with BLAS threads pinned to at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        try:
            want = int(env.get(var, ""))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def run_worker(args, workdir, out, started):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    budget = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=max(budget, 1.0))
    if proc.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    with open(out) as fh:
        return json.load(fh)


def report(name, value, unit, n):
    print("metric %-28s %-14.6g %-16s n=%d" % (name, value, unit, n))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances, fewer set-up probes: for the benchmark's self-tests")
    args = p.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "kaczmarz", "__init__.py")):
        print("error: no src/kaczmarz under %s; run from a source checkout" % ROOT,
              file=sys.stderr)
        return 2

    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    results_dir = os.path.join(WORK, "results")
    workdir = os.path.join(WORK, "tmp-%s-%d" % (tag, os.getpid()))
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        result = run_worker(args, workdir, os.path.join(results_dir, tag + ".json"), started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup = [result["setup_s"]] + result.get("setup_probes_s", [])

    env = result["env"]
    print("# kaczmarz benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for key in sorted(env):
        print("env %s=%s" % (key, env[key]))
    for problem in result["problems"]:
        print("FAILED op %s" % problem)

    for name, (value, unit, n) in sorted(result["named"].items()):
        report(name, value, unit, n)
    attempted, failed = result["attempted"], result["failed"]
    report("failed_frac", failed / attempted if attempted else 1.0, "1", attempted)

    if args.trace:
        layers = result["layers"]
        for name in sorted(layers):
            value, unit = layers[name]
            report(name, value, unit, 1)
        metrics = {name: {"value": layers[name][0], "unit": layers[name][1]}
                   for name in PER_LAYER}
    else:
        values = {"setup_s": (statistics.median(setup), len(setup)),
                  "op_s": (statistics.median(result["op_s"]) if result["op_s"] else 0.0,
                           len(result["op_s"])),
                  "peak_rss_mb": (result["peak_rss_mb"], 1)}
        for name, (value, n) in values.items():
            report(name, value, END_TO_END[name], n)
        metrics = {name: {"value": values[name][0], "unit": END_TO_END[name]}
                   for name in END_TO_END}

    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    result["setup_samples_s"] = setup
    result["summary"] = summary
    with open(os.path.join(results_dir, tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
