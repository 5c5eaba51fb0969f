"""Statistical verification: do the solvers obey their own convergence theory?

The checkpoint drivers walk the same seeded trajectories as the solvers
(solvers.trajectory), but stop at chosen iteration counts to measure the
error against an oracle quantity instead of running termination checks. The
check battery compares empirical means across seeds with the closed-form
envelopes, inflated by a statistical slack factor (SLACK) that absorbs
Monte-Carlo noise; the envelopes themselves come only from the reference
oracle, never from the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRangeError
from .reference import min_norm_solve
from .sampling import sample_block  # noqa: F401  (the benchmark's tracer patches this name)
from .solvers import (
    REK,
    RK,
    ROP,
    SolverConfig,
    rk_step,
    rop_step,
    run_rek,
    theory_bounds,
    trajectory,
)

SLACK = 1.5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return "%s %s: %s" % ("PASS" if self.passed else "FAIL", self.name, self.detail)


# ----------------------------------------------------------------------
# checkpoint drivers (no termination checks; errors at given iterations)


def _checkpoint_errors(a, b, solver, ref, checkpoints, seed):
    """||v_t - ref||^2 at each checkpoint t of one seeded run; v is z for ROP, else x."""
    out = []
    for _, x, z, _, _ in trajectory(a, b, solver, seed, sorted(int(t) for t in checkpoints)):
        diff = (z if solver == ROP else x) - ref
        out.append(float(diff @ diff))
    return out


def rek_checkpoint_errors(a, b, x_ref, checkpoints, seed):
    """||x_t - x_ref||^2 at each checkpoint, one seeded REK run."""
    return _checkpoint_errors(a, b, REK, x_ref, checkpoints, seed)


def rk_checkpoint_errors(a, b, x_ref, checkpoints, seed):
    """||x_k - x_ref||^2 at each checkpoint, one seeded RK run from x = 0."""
    return _checkpoint_errors(a, b, RK, x_ref, checkpoints, seed)


def rop_checkpoint_errors(a, b, z_ref, checkpoints, seed):
    """||z_k - z_ref||^2 at each checkpoint, one seeded ROP run from z = b."""
    return _checkpoint_errors(a, b, ROP, z_ref, checkpoints, seed)


# ----------------------------------------------------------------------
# exact one-step expectations (enumerate every row / column choice)


def rk_one_step_expectation(a, b, x, target):
    """E ||x' - target||^2 over the row distribution, by enumeration."""
    total = 0.0
    for i in range(a.m):
        q = a.row_sq_norms[i] / a.frob_sq
        if q == 0.0:
            continue
        trial = x.copy()
        rk_step(a, trial, i, b[i])
        diff = trial - target
        total += q * float(diff @ diff)
    return total


def rop_one_step_expectation(a, z, target):
    """E ||z' - target||^2 over the column distribution, by enumeration."""
    total = 0.0
    for j in range(a.n):
        p = a.col_sq_norms[j] / a.frob_sq
        if p == 0.0:
            continue
        trial = z.copy()
        rop_step(a, trial, j)
        diff = trial - target
        total += p * float(diff @ diff)
    return total


# ----------------------------------------------------------------------
# the check battery behind `kaczmarz verify`


def _envelope_check(name, label, multipliers, envelope, errors, ref, reps, seed):
    """Mean of `errors(checkpoints, seed)` over `reps` seeds against SLACK * envelope(t).

    The checkpoints are round(c * kappa_F^2) for each multiplier c; `label`
    names them in the detail line.
    """
    checkpoints = [round(c * ref.kappa_f_sq) for c in multipliers]
    acc = None
    for r in range(reps):
        errs = errors(checkpoints, seed + r)
        acc = errs if acc is None else [s + e for s, e in zip(acc, errs)]
    worst = 0.0
    for t, total in zip(checkpoints, acc):
        mean = total / reps
        env = envelope(t)
        worst = max(worst, mean / (SLACK * env) if env > 0 else float(mean > 0))
    return CheckResult(
        name,
        worst <= 1.0,
        "max mean/bound ratio %.3g over %s=%s (%d runs)" % (worst, label, checkpoints, reps),
    )


def check_rek_envelope(a, b, ref, reps, seed):
    return _envelope_check(
        "rek-envelope", "T", (2, 4, 8), theory_bounds(ref, eps=1e-6).rek_envelope,
        lambda ts, s: rek_checkpoint_errors(a, b, ref.x_ls, ts, s), ref, reps, seed,
    )


def check_rk_envelope(a, b, ref, reps, seed):
    """Noisy-RK bound: rate^k ||x_ls||^2 + ||b_perp||^2 / sigma_min^2.

    Valid for any rhs; the noise term vanishes on consistent systems.
    """
    rate = 1.0 - 1.0 / ref.kappa_f_sq
    sigma_min_sq = ref.singular_values[ref.rank - 1] ** 2
    floor = float(ref.b_perp @ ref.b_perp) / sigma_min_sq
    x_ls_sq = float(ref.x_ls @ ref.x_ls)
    return _envelope_check(
        "rk-envelope", "k", (2, 4, 8), lambda t: rate**t * x_ls_sq + floor,
        lambda ts, s: rk_checkpoint_errors(a, b, ref.x_ls, ts, s), ref, reps, seed,
    )


def check_rop_rate(a, b, ref, reps, seed):
    rate = 1.0 - 1.0 / ref.kappa_f_sq
    b_range_sq = float(ref.b_range @ ref.b_range)
    return _envelope_check(
        "rop-rate", "k", (2, 4), lambda t: rate**t * b_range_sq,
        lambda ts, s: rop_checkpoint_errors(a, b, ref.b_perp, ts, s), ref, reps, seed,
    )


def check_one_step(a, b, ref, reps, seed):
    """Exact conditional-expectation contractions, enumerated, zero slack."""
    del reps  # deterministic check
    rate = 1.0 - 1.0 / ref.kappa_f_sq
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    # RK expected error reduction needs a consistent system; use b_range.
    for trial in range(3):
        x = ref.x_ls + ref.row_basis @ rng.standard_normal(ref.rank)
        err_sq = float((x - ref.x_ls) @ (x - ref.x_ls))
        expect = rk_one_step_expectation(a, ref.b_range, x, ref.x_ls)
        tol = 1e-12 * max(err_sq, 1.0)
        if expect > rate * err_sq + tol:
            ok = False
        details.append("rk %.3g<=%.3g" % (expect, rate * err_sq))
        z = ref.b_perp + a.matvec(rng.standard_normal(a.n))
        e_sq = float((z - ref.b_perp) @ (z - ref.b_perp))
        expect_z = rop_one_step_expectation(a, z, ref.b_perp)
        tol_z = 1e-12 * max(e_sq, 1.0)
        if expect_z > rate * e_sq + tol_z:
            ok = False
        details.append("rop %.3g<=%.3g" % (expect_z, rate * e_sq))
    return CheckResult("one-step-contraction", ok, "; ".join(details[:2]) + " ...")


def check_iteration_bound(a, b, ref, reps, seed):
    eps, delta = 1e-6, 0.1
    cap = math.ceil(theory_bounds(ref, eps=eps, delta=delta).t_star)
    hits = 0
    for r in range(reps):
        report = run_rek(a, b, SolverConfig(eps=eps, max_iters=cap, seed=seed + r))
        hits += report.converged
    need = math.ceil((1.0 - delta) * reps)
    return CheckResult(
        "iteration-bound",
        hits >= need,
        "%d/%d runs terminated within T*=%d (need %d)" % (hits, reps, cap, need),
    )


def check_flop_model(a, b, ref, reps, seed):
    del ref, reps
    iters = 2000
    config = SolverConfig(eps=1e-300, max_iters=iters, seed=seed)
    report = run_rek(a, b, config)
    model = 4.0 * (a.nnz / a.m + a.nnz / a.n) + 2.0
    per_iter = report.flops / report.iters
    if a.nnz == a.m * a.n:
        ok = report.flops == (4 * (a.m + a.n) + 2) * report.iters
        detail = "dense: %d flops == (4(m+n)+2)*%d: %s" % (report.flops, report.iters, ok)
    else:
        ok = abs(per_iter - model) <= 0.05 * model
        detail = "sparse: %.2f flops/iter vs model %.2f" % (per_iter, model)
    return CheckResult("flop-model", ok, detail)


def check_forward_error(a, b, ref, reps, seed):
    del reps
    eps = 1e-10
    bounds = theory_bounds(ref, eps=eps)
    config = SolverConfig(eps=eps, seed=seed)
    report = run_rek(a, b, config)
    if not report.converged:
        return CheckResult("forward-error", False, "run failed to converge")
    x_norm = float(np.linalg.norm(report.x))
    err = float(np.linalg.norm(report.x - ref.x_ls))
    rel = err / x_norm if x_norm > 0 else err
    limit = bounds.forward_err_bound * (1.0 + 1e-6)
    return CheckResult(
        "forward-error",
        rel <= limit,
        "rel err %.3g <= bound %.3g (%d iters)" % (rel, limit, report.iters),
    )


ALL_CHECKS = (
    ("rek-envelope", check_rek_envelope),
    ("rk-envelope", check_rk_envelope),
    ("rop-rate", check_rop_rate),
    ("one-step-contraction", check_one_step),
    ("iteration-bound", check_iteration_bound),
    ("flop-model", check_flop_model),
    ("forward-error", check_forward_error),
)


def run_all_checks(a, b, reps=100, seed=0, names=None):
    """Run the battery, or the checks in `names`, against one instance.

    reps below 1, an empty `names` and an unknown name are refused before the
    oracle runs. The oracle must fit in memory.
    """
    if reps < 1:
        raise InvalidRangeError("reps must be >= 1, got %d" % reps)
    if names is not None:
        known = [name for name, _ in ALL_CHECKS]
        unknown = [name for name in names if name not in known]
        if unknown or not names:
            raise InvalidRangeError("%s; the checks are %s" % (
                "unknown check " + ", ".join(map(repr, unknown)) if unknown
                else "no check selected", ", ".join(known)))
    ref = min_norm_solve(a, b)
    return [fn(a, b, ref, reps, seed) for name, fn in ALL_CHECKS
            if names is None or name in names]
