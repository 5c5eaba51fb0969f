"""The three benchmark workloads: inputs, one operation, and its checks.

Each workload makes its inputs from the run seed alone, runs one operation at
a time through the package's public entry points (closed loop, one client),
and checks every operation's output against an independent reference. The
checks run outside the timed calls.

  dense-solve     solve() with REK, RK and ROP on seeded dense instances, in
                  memory. Nearly all time is the per-iteration loop.
  mtx-roundtrip   `kaczmarz gen` of a 20000x500 sparse instance to Matrix
                  Market files, then `kaczmarz solve` on them. File I/O and
                  matrix construction dominate; the solver loop is ~10%.
  verify-battery  `kaczmarz verify` on the README's example: ~600 short seeded
                  trajectories, alias builds, the SVD oracle and enumeration.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import re
import statistics
import time

import numpy as np

EPS = 1e-8
SOLVERS = ("rek", "rk", "rop")


def derive(seed, *parts):
    """A 63-bit seed that depends only on the run seed and `parts`."""
    text = repr((int(seed),) + parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cli(rec, argv):
    """Run `kaczmarz <argv>` in process; returns (exit code, stdout, seconds)."""
    main = importlib.import_module("kaczmarz.cli").main
    if rec is not None:
        main = rec.wrap("cli", main)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    return code, buf.getvalue(), elapsed


class Workload:
    """Defaults for the steps a workload may leave out."""

    def setup(self):
        """Make the inputs (timed as set-up; traced in a traced run)."""

    def prepare_checks(self):
        """Compute references before the loop, outside every timed metric."""

    def finish(self, results):
        """Checks over all results at once; one list of problems per result."""
        return None


class DenseSolve(Workload):
    """In-memory solve() on dense instances; REK/RK/ROP per instance.

    RK runs on the consistent right-hand side of the same seed, which has the
    same matrix because generate() draws A before b. One operation is the
    three solves on one instance; solver seeds change with every cycle.
    """

    name = "dense-solve"

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.m, self.n, self.count = (60, 20, 2) if smoke else (1000, 400, 4)
        self.inputs = []
        self.refs = []

    def setup(self):
        from kaczmarz.generate import InstanceSpec

        gen = importlib.import_module("kaczmarz.generate")
        for i in range(self.count):
            s = derive(self.seed, "instance", i)
            a, b, _ = gen.generate(InstanceSpec("dense", self.m, self.n, seed=s))
            a_c, b_c, _ = gen.generate(
                InstanceSpec("dense", self.m, self.n, consistent=True, seed=s))
            if not (np.array_equal(a.row_vals, a_c.row_vals)
                    and np.array_equal(a.row_cols, a_c.row_cols)):
                raise RuntimeError("consistent instance %d drew a different matrix" % i)
            self.inputs.append((a, b, b_c))

    def warmup(self):
        from kaczmarz.solvers import SolverConfig, solve

        a, b, _ = self.inputs[0]
        solve(a, b, SolverConfig(eps=EPS, max_iters=8 * min(a.m, a.n), seed=0))

    def prepare_checks(self):
        from kaczmarz.reference import min_norm_solve
        from kaczmarz.solvers import theory_bounds

        for a, b, b_c in self.inputs:
            if a.nnz != a.m * a.n:
                raise RuntimeError("dense instance stored an exact zero")
            ref = min_norm_solve(a, b)
            ref_c = min_norm_solve(a, b_c)
            self.refs.append((ref, theory_bounds(ref, EPS).forward_err_bound,
                              ref_c, theory_bounds(ref_c, EPS).forward_err_bound))

    def ops(self, cycle):
        return [(cycle, i) for i in range(self.count)]

    def run_op(self, op, rec, tag):
        from kaczmarz.solvers import SolverConfig

        solvers = importlib.import_module("kaczmarz.solvers")
        cycle, i = op
        a, b, b_c = self.inputs[i]
        out = {"op": op, "times": {}, "reports": {}}
        for solver in SOLVERS:
            config = SolverConfig(eps=EPS, seed=derive(self.seed, solver, cycle, i),
                                  solver=solver)
            rhs = b_c if solver == "rk" else b
            t0 = time.perf_counter()
            report = solvers.solve(a, rhs, config)
            out["times"][solver] = time.perf_counter() - t0
            out["reports"][solver] = report
        return out

    def check(self, result):
        """Converged, exact flop tally, forward error within the theory bound."""
        i = result["op"][1]
        a = self.inputs[i][0]
        ref, bound, ref_c, bound_c = self.refs[i]
        per_iter = {"rek": 4 * (a.m + a.n) + 2, "rk": 4 * a.n + 2, "rop": 4 * a.m + 1}
        problems = []
        for solver, r in result["reports"].items():
            if not r.converged:
                problems.append("%s: %s after %d iters" % (solver, r.termination, r.iters))
            if r.flops != per_iter[solver] * r.iters:
                problems.append("%s: %d flops for %d iters" % (solver, r.flops, r.iters))
            base, lim = (ref_c, bound_c) if solver == "rk" else (ref, bound)
            est, want = (r.z, base.b_perp) if solver == "rop" else (r.x, base.x_ls)
            norm = float(np.linalg.norm(est))
            err = float(np.linalg.norm(est - want)) / (norm if norm > 0 else 1.0)
            if not err <= lim:
                problems.append("%s: forward error %.3g > bound %.3g" % (solver, err, lim))
        return problems

    def same(self, u, t):
        """Traced and untraced runs of one op must agree bit for bit."""
        problems = []
        for solver in SOLVERS:
            ru, rt = u["reports"][solver], t["reports"][solver]
            for field in ("x", "z"):
                vu, vt = getattr(ru, field), getattr(rt, field)
                if (vu is None) != (vt is None) or (
                        vu is not None and vu.tobytes() != vt.tobytes()):
                    problems.append("%s: traced %s differs" % (solver, field))
            for field in ("iters", "flops", "check_flops", "termination"):
                if getattr(ru, field) != getattr(rt, field):
                    problems.append("%s: traced %s differs" % (solver, field))
        return problems

    def summarize(self, results):
        out = {}
        for solver in SOLVERS:
            times = [r["times"][solver] for r in results]
            out["%s_solve_s" % solver] = (statistics.median(times), "s", len(times))
        iters = sum(r["reports"][s].iters for r in results for s in SOLVERS)
        secs = sum(sum(r["times"].values()) for r in results)
        out["iters_per_s"] = (iters / secs, "1/s", 3 * len(results))
        return out


class MtxRoundtrip(Workload):
    """`kaczmarz gen` to Matrix Market files, then `kaczmarz solve` on them.

    The gen seed is fixed for the run, so every gen must write identical
    bytes; the solve seed changes with every cycle.
    """

    name = "mtx-roundtrip"

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.workdir = workdir
        self.m, self.n, self.density = (300, 40, 0.2) if smoke else (20000, 500, 0.1)
        self.digests = None

    def _gen_argv(self, m, n, density, seed, tag):
        return ["gen", "--kind", "sparse", "--m", str(m), "--n", str(n),
                "--density", repr(density), "--seed", str(seed),
                "--matrix", self._path("A", tag), "--rhs", self._path("b", tag)]

    def _solve_argv(self, seed, tag, out):
        return ["solve", "--matrix", self._path("A", tag), "--rhs", self._path("b", tag),
                "--eps", repr(EPS), "--seed", str(seed), "--out", out]

    def _path(self, stem, tag):
        return os.path.join(self.workdir, "%s%s.mtx" % (stem, tag))

    def warmup(self):
        for argv in (self._gen_argv(200, 40, 0.2, 0, "-warm"),
                     self._solve_argv(0, "-warm", self._path("x", "-warm"))):
            code, text, _ = _cli(None, argv)
            if code != 0:
                raise RuntimeError("warm-up `%s` exited %d: %s" % (argv[0], code, text))

    def ops(self, cycle):
        return [cycle]

    def run_op(self, op, rec, tag):
        x_path = self._path("x", "-%d%s" % (op, tag))
        gen_code, gen_out, gen_s = _cli(
            rec, self._gen_argv(self.m, self.n, self.density, derive(self.seed, "gen"), tag))
        solve_code, solve_out, solve_s = _cli(
            rec, self._solve_argv(derive(self.seed, "solve", op), tag, x_path))
        found = re.search(r"\biters=(\d+) flops=(\d+)", solve_out)
        return {
            "op": op,
            "times": {"gen": gen_s, "solve": solve_s},
            "codes": (gen_code, solve_code),
            "digests": (_digest(self._path("A", tag)), _digest(self._path("b", tag))),
            "x_path": x_path,
            "x_digest": _digest(x_path) if os.path.exists(x_path) else None,
            "counts": tuple(int(g) for g in found.groups()) if found else None,
            # paths and wall time aside, the CLI's output is deterministic
            "stdout": re.sub(r"\S*\.mtx| wall=\S+", "", gen_out + solve_out),
            "tag": tag,
        }

    def check(self, result):
        """Exit codes 0 and gen bytes identical to the run's first gen."""
        problems = []
        if result["codes"] != (0, 0):
            problems.append("exit codes gen/solve = %d/%d" % result["codes"])
        if self.digests is None:
            self.digests = result["digests"]
        elif result["digests"] != self.digests:
            problems.append("gen wrote different bytes for the same seed")
        if result["counts"] is None:
            problems.append("solve printed no iteration count")
        return problems

    def same(self, u, t):
        return [] if all(u[k] == t[k] for k in ("digests", "x_digest", "counts", "stdout")) \
            else ["traced gen/solve outputs differ"]

    def finish(self, results):
        """x within the forward-error bound of numpy lstsq on the densified A.

        The package's own oracle refuses this size (over its 4M-entry cap),
        so the reference is built here from scipy's Matrix Market reader.
        Returns one list of problems per result.
        """
        import scipy.io

        tag = results[0]["tag"]
        dense = scipy.io.mmread(self._path("A", tag)).toarray()
        b = np.asarray(scipy.io.mmread(self._path("b", tag))).ravel()
        x_ls = np.linalg.lstsq(dense, b, rcond=None)[0]
        sv = np.linalg.svd(dense, compute_uv=False)
        del dense
        sv = sv[sv > 8.0 * max(self.m, self.n) * np.finfo(np.float64).eps * sv[0]]
        kappa_f = math.sqrt(float(sv @ sv)) / float(sv[-1])
        bound = EPS * kappa_f * (1.0 + kappa_f)  # as theory_bounds().forward_err_bound
        out = []
        for r in results:
            if not os.path.exists(r["x_path"]):
                out.append(["no solution file"])
                continue
            x = np.asarray(scipy.io.mmread(r["x_path"])).ravel()
            norm = float(np.linalg.norm(x))
            err = float(np.linalg.norm(x - x_ls)) / (norm if norm > 0 else 1.0)
            out.append([] if err <= bound else
                       ["forward error %.3g > bound %.3g" % (err, bound)])
        return out

    def summarize(self, results):
        gen = [r["times"]["gen"] for r in results]
        solve = [r["times"]["solve"] for r in results]
        iters = sum(r["counts"][0] for r in results if r["counts"])
        return {
            "gen_s": (statistics.median(gen), "s", len(gen)),
            "solve_s": (statistics.median(solve), "s", len(solve)),
            "iters_per_s": (iters / sum(solve), "1/s", len(solve)),
        }


class VerifyBattery(Workload):
    """`kaczmarz verify` on the README example; every line must be PASS.

    The instance is pinned to the README's (--seed 3) rather than drawn from
    the run seed: the battery's cost follows the instance's kappa_F, which
    varies by +-30% across seeds, and the example is the reference task.
    """

    name = "verify-battery"

    def __init__(self, seed, smoke, workdir):
        self.argv = ["verify", "--kind", "dense", "--seed", "3"] + (
            ["--m", "30", "--n", "8", "--reps", "5"] if smoke else
            ["--m", "100", "--n", "30", "--reps", "100"])

    def warmup(self):
        code, text, _ = _cli(None, ["verify", "--kind", "dense", "--m", "20", "--n", "6",
                                    "--seed", "3", "--reps", "2"])
        if code != 0:
            raise RuntimeError("warm-up verify exited %d: %s" % (code, text))

    def ops(self, cycle):
        return [cycle]

    def run_op(self, op, rec, tag):
        code, text, secs = _cli(rec, self.argv)
        return {"op": op, "times": {"verify": secs}, "code": code, "stdout": text}

    def check(self, result):
        lines = result["stdout"].splitlines()
        problems = [] if result["code"] == 0 else ["exit code %d" % result["code"]]
        if len(lines) != 7 or not all(line.startswith("PASS ") for line in lines):
            problems.append("battery output: %r" % result["stdout"])
        return problems

    def same(self, u, t):
        return [] if u["stdout"] == t["stdout"] else ["traced battery output differs"]

    def summarize(self, results):
        times = [r["times"]["verify"] for r in results]
        return {"verify_s": (statistics.median(times), "s", len(times))}


WORKLOADS = {w.name: w for w in (DenseSolve, MtxRoundtrip, VerifyBattery)}
