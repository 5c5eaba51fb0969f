"""Span recording around the kaczmarz package's public functions.

The benchmark measures each module from outside: it swaps a recording
wrapper in for a function at every name a caller looks it up by, runs the
workload, and swaps the originals back. Several modules use
`from .x import f`, so each such module holds its own reference and is
patched separately; verify.ALL_CHECKS and solvers._RUNNERS hold direct
references and are rebuilt with wrapped entries.

Spans are kept in memory as [name, start, end, parent, attrs] and written
out by the caller when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

SOLVER_NAMES = ("rek", "rk", "rop")

# Scalar flops per iteration on top of 4 flops per stored entry touched:
# REK 2 (subtract, divide), RK 2, ROP 1 (see the kaczmarz.solvers docstring).
_SCALAR_FLOPS = {"rek": 2, "rk": 2, "rop": 1}
# Computed bytes per stored entry touched by one dot plus one axpy over a
# line: dot reads value, index and gathered entry (24 B); axpy reads value,
# index and entry and writes the entry (32 B). Cache reuse is ignored.
_BYTES_PER_ENTRY = 56


class Recorder:
    """Collects spans while its patches are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    # -- span recording --------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        """A wrapper that records one span per call of `fn`.

        `attrs(args, kwargs, result)` runs after the span's end stamp and
        returns a dict stored with the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                           else getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch(self, module, attr, name, attrs=None):
        self._set(module, attr, self.wrap(name, getattr(module, attr), attrs))

    def install(self):
        """Patch every lookup site of the traced functions."""
        mod = {n: importlib.import_module("kaczmarz." + n) for n in (
            "cli", "generate", "matrices", "mmio", "sampling", "solvers", "verify")}
        sampling, solvers, verify, cli = (mod[n] for n in ("sampling", "solvers", "verify", "cli"))

        self._patch(sampling, "build_alias_table", "sampling.alias_build")
        for owner in (solvers, verify):
            self._patch(owner, "sample_block", "sampling.draw",
                        lambda a, k, r: {"draws": int(a[2] if len(a) > 2 else k["count"])})

        for solver in SOLVER_NAMES:
            self._patch(solvers, "%s_termination_check" % solver, "solvers.check")
        runners = {}
        for solver in SOLVER_NAMES:
            wrapped = self.wrap("solvers." + solver, getattr(solvers, "run_" + solver),
                                _report_attrs)
            runners[solver] = wrapped
            self._set(solvers, "run_" + solver, wrapped)
        self._set(solvers, "_RUNNERS", runners)
        self._set(verify, "run_rek", runners["rek"])

        cls = mod["matrices"].DualSparseMatrix
        for attr in ("from_dense", "from_triplets"):
            inner = self.wrap("matrices.build", cls.__dict__[attr].__func__,
                              lambda a, k, r: {"nnz": r.nnz})
            self._set(cls, attr, classmethod(inner))

        for owner in (mod["mmio"], cli):
            self._patch(owner, "read_matrix_market", "mmio.read", _read_attrs)
            self._patch(owner, "write_matrix_market", "mmio.write", _write_attrs)

        for owner in (mod["generate"], cli):
            self._patch(owner, "generate", "generate")

        for owner in (verify, cli):
            self._patch(owner, "min_norm_solve", "reference.oracle")

        for attr in ("rek_checkpoint_errors", "rk_checkpoint_errors", "rop_checkpoint_errors"):
            self._patch(verify, attr, "verify.trajectory")
        for attr in ("rk_one_step_expectation", "rop_one_step_expectation"):
            self._patch(verify, attr, "verify.enumeration")
        self._set(verify, "ALL_CHECKS", tuple(
            (name, self.wrap("verify.check", fn)) for name, fn in verify.ALL_CHECKS))
        self._patch(cli, "run_all_checks", "verify.runner")

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def _report_attrs(args, kwargs, report):
    return {"iters": report.iters, "flops": report.flops, "check_flops": report.check_flops}


def _entries(obj):
    return int(obj.nnz) if hasattr(obj, "nnz") else int(obj.size)


def _read_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "entries": _entries(result)}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "entries": _entries(args[1])}


# ----------------------------------------------------------------------
# reduction of spans to per-layer metrics


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans):
    """{metric name: (value, unit)} for every layer metric the spans support."""
    own = self_times(spans)
    secs, count, attr = {}, {}, {}
    for s, t in zip(spans, own):
        secs[s[0]] = secs.get(s[0], 0.0) + t
        count[s[0]] = count.get(s[0], 0) + 1
        for key, value in (s[4] or {}).items():
            attr[(s[0], key)] = attr.get((s[0], key), 0) + value

    def a(name, key):
        return attr.get((name, key), 0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {}
    iters = flops = check_flops = line_flops = 0
    loop_s = 0.0
    for solver in SOLVER_NAMES:
        name = "solvers." + solver
        n_it = a(name, "iters")
        out[name + ".us_per_iter"] = (ratio(secs.get(name, 0.0), n_it, 1e6), "us")
        iters += n_it
        flops += a(name, "flops")
        check_flops += a(name, "check_flops")
        line_flops += a(name, "flops") - _SCALAR_FLOPS[solver] * n_it
        loop_s += secs.get(name, 0.0)
    out["solvers.iters"] = (iters, "count")
    out["solvers.flops"] = (flops, "flop")
    out["solvers.check_flops"] = (check_flops, "flop")
    out["solvers.gflops"] = (ratio(flops, loop_s, 1e-9), "GFLOP/s")
    out["solvers.flops_per_byte"] = (
        ratio(flops, line_flops // 4 * _BYTES_PER_ENTRY), "flop/B-computed")
    out["solvers.check_s"] = (secs.get("solvers.check", 0.0), "s")
    out["solvers.checks"] = (count.get("solvers.check", 0), "count")

    draws = a("sampling.draw", "draws")
    out["sampling.draw_ns"] = (ratio(secs.get("sampling.draw", 0.0), draws, 1e9), "ns")
    out["sampling.draws"] = (draws, "count")
    out["sampling.alias_build_s"] = (secs.get("sampling.alias_build", 0.0), "s")
    out["sampling.alias_builds"] = (count.get("sampling.alias_build", 0), "count")

    build_s = secs.get("matrices.build", 0.0)
    out["matrices.build_s"] = (build_s, "s")
    out["matrices.build_ns_per_nnz"] = (ratio(build_s, a("matrices.build", "nnz"), 1e9), "ns")

    for op in ("read", "write"):
        name = "mmio." + op
        op_s = secs.get(name, 0.0)
        out[name + "_s"] = (op_s, "s")
        out[name + "_us_per_nnz"] = (ratio(op_s, a(name, "entries"), 1e6), "us")
    out["mmio.bytes_read"] = (a("mmio.read", "bytes"), "B")
    out["mmio.bytes_written"] = (a("mmio.write", "bytes"), "B")

    out["generate.s"] = (secs.get("generate", 0.0), "s")
    out["reference.oracle_s"] = (secs.get("reference.oracle", 0.0), "s")
    out["verify.trajectory_s"] = (secs.get("verify.trajectory", 0.0), "s")
    out["verify.enumeration_s"] = (secs.get("verify.enumeration", 0.0), "s")
    out["verify.runner_s"] = (
        secs.get("verify.runner", 0.0) + secs.get("verify.check", 0.0), "s")
    out["cli.self_s"] = (secs.get("cli", 0.0), "s")
    return out
