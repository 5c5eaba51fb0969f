"""One benchmark process: set up a workload, run its closed loop, check it.

Started by run.py in a fresh interpreter so that set-up time and peak memory
belong to this workload alone. Set-up is timed from before `import kaczmarz`
to the end of the warm-up call. Results go to the JSON file named by --out.

With --trace 0 the process also times set-up in fresh --setup-only copies of
itself, started between operations of its closed loop, so that the set-up
samples span the run as the operations do. Their time is not loop time.

With --trace 1 the process runs the first cycle of operations in pairs, one
untraced and one traced, and repeats that cycle until --seconds pass. Which
half goes first alternates from one pair to the next, across rounds too. It
checks that each pair produced bit-identical outputs and reduces the spans of
set-up and the first cycle to per-layer metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402  (the benchmark's own; imports no kaczmarz module)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Set-up probes per closed loop: one after the first operation, then one after
# the first operation to end seconds / SETUP_PROBES of loop time after that.
SETUP_PROBES = 12


def _run_checked(wl, op, rec, tag, run):
    """(result or None, problems) of execution number `run` of `op`.

    An op that raises is a failed op. Each problem names the op and tag.
    """
    try:
        if rec is not None:
            rec.install()
        try:
            result = wl.run_op(op, rec, tag)
        finally:
            if rec is not None:
                rec.uninstall()
        result["tag"], result["run"] = tag, run
        problems = wl.check(result)
    except Exception:  # noqa: BLE001 - any error is this op's failure
        result = None
        problems = ["raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    return result, ["%r%s: %s" % (op, tag, p) for p in problems]


def closed_loop(wl, seconds, probe=None, every=None):
    """Run operations back to back until the next would overrun `seconds`.

    If given, `probe()` is called after the first operation and then
    between operations, once each `every` seconds of loop time at most; the
    time it takes is not loop time.
    """
    done, failures, durations = [], [], []
    start = time.perf_counter()
    paused, next_probe = 0.0, 0.0
    cycle = 0
    while True:
        for op in wl.ops(cycle):
            elapsed = time.perf_counter() - start - paused
            if durations and elapsed + statistics.median(durations) > seconds:
                return done, failures, len(durations)
            run = len(durations)
            t0 = time.perf_counter()
            result, problems = _run_checked(wl, op, None, "", run)
            t1 = time.perf_counter()
            durations.append(t1 - t0)
            if result is not None:
                done.append(result)
            failures += [(run, p) for p in problems]
            if probe is not None and t1 - start - paused >= next_probe:
                next_probe = t1 - start - paused + every
                probe()
                paused += time.perf_counter() - t1
        cycle += 1


def setup_probe(args, k):
    """setup_s of a fresh --setup-only process given this one's arguments."""
    out = os.path.join(args.workdir, "probe%d.json" % k)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0",
           "--workdir", args.workdir, "--out", out, "--setup-only"]
    subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=True,
                   stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)["setup_s"]


def traced_pairs(wl, rec, seconds):
    """Cycle 0's ops, each untraced and traced, in rounds until `seconds` pass.

    Every round repeats the same ops, so the per-layer metrics are taken
    from the spans up to the end of the first round (set-up included) and
    their counts are exact; later rounds only add samples to the overhead
    estimate and more checked pairs. The untraced half goes first in pair
    number 0, 2, 4, ... counted over all rounds, so a one-op workload gets
    both orders too. Returns (untraced results, traced results, failures,
    layer metrics, spans, runs).
    """
    plain, traced, failures = [], [], []
    runs, rounds, pairs, layers, spans = 0, 0, 0, None, None
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for op in wl.ops(0):
            order = (None, rec) if pairs % 2 == 0 else (rec, None)
            pairs += 1
            pair = {}
            for r in order:
                tag = "-t" if r is rec else "-u"
                pair[tag], problems = _run_checked(wl, op, r, tag, runs)
                failures += [(runs, p) for p in problems]
                runs += 1
            if pair["-u"] is not None and pair["-t"] is not None:
                plain.append(pair["-u"])
                traced.append(pair["-t"])
                failures += [(pair["-t"]["run"], "%r-t: %s" % (op, p))
                             for p in wl.same(pair["-u"], pair["-t"])]
        rounds += 1
        if rounds == 1:
            layers = tracing.layer_metrics(rec.spans)
            spans = list(rec.spans)
    ratios = [sum(t["times"].values()) / sum(u["times"].values()) - 1.0
              for u, t in zip(plain, traced)]
    layers["trace.overhead_frac"] = (statistics.median(ratios) if ratios else 0.0, "1")
    return plain, traced, failures, layers, spans, runs


def environment():
    """Interpreter, library, BLAS and CPU facts recorded with every result."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": " ".join(str(blas.get("openblas configuration", blas.get("name", "?")))
                               .split()),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
    }
    # The runtime kernel OpenBLAS's DYNAMIC_ARCH picked; best effort.
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                env["blas_core"] = fn().decode()
                break
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        env["caches"]["L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))] = size
    return env


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    import kaczmarz  # noqa: F401  (timed: part of set-up)

    if not os.path.abspath(kaczmarz.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit("kaczmarz imported from %s, not from %s" % (kaczmarz.__file__, SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    rec = tracing.Recorder() if args.trace else None
    if rec is not None:
        rec.install()
    try:
        wl.setup()
    finally:
        if rec is not None:
            rec.uninstall()
    wl.warmup()
    out = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        wl.prepare_checks()
        if rec is None:
            probes = out["setup_probes_s"] = []
            every = args.seconds / (1 if args.smoke else SETUP_PROBES)
            done, failures, attempted = closed_loop(
                wl, args.seconds, lambda: probes.append(setup_probe(args, len(probes))), every)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checked = done
        else:
            done, traced, failures, out["layers"], spans, attempted = traced_pairs(
                wl, rec, args.seconds)
            with open(args.out[:-len(".json")] + "-spans.json", "w") as fh:
                json.dump(spans, fh)
            checked = done + traced
        if checked:
            for r, problems in zip(checked, wl.finish(checked) or [[]] * len(checked)):
                failures += [(r["run"], "%r%s: %s" % (r["op"], r["tag"], p)) for p in problems]
        out["op_s"] = [sum(r["times"].values()) for r in done]
        out["named"] = wl.summarize(done) if done else {}
        out["attempted"] = attempted
        out["failed"] = len({run for run, _ in failures})
        out["problems"] = [p for _, p in failures][:20]
        out["env"] = environment()
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
