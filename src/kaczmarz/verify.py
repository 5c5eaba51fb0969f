"""Statistical verification: do the solvers obey their own convergence theory?

walk() reads the solvers' own seeded runs (solvers.trajectory) at chosen
iteration counts (marks), measuring the error of x and z against oracle
quantities there, with or without the termination checks. It takes every
seed of a check at once: the runs go through trajectory as one batch (or
consecutive batches within solvers.BATCH_BYTES), so one kernel call moves
them all to their next stop. It returns one record of them all (Walks): the
errors as seeds x marks arrays, and each seed's termination and stop, so a
check reads a column. The checkpoint drivers are row 0 of walk() of one seed
without the checks. The check battery compares empirical means across seeds
with the closed-form envelopes, inflated by a statistical slack factor
(SLACK) that absorbs Monte-Carlo noise; the envelopes themselves come only
from the reference oracle, never from the solvers.

one-step-contraction takes the expected error after one step exactly, over
every row (column) with its probability. Each line is the one-index block of
its own RK (ROP) run from the start, bound in batches by the solvers
(solvers._bind), so the check reads the step that runs: the compiled
block_steps where it is built, else the numpy loop.

rek-envelope, rop-rate and iteration-bound run on the same seeds, and share
one walk of them (Battery.walks): x at rek-envelope's checkpoints, z at
rop-rate's, and the termination check every check interval up to T*, as
run_rek stops. The walk runs REK when rek-envelope or iteration-bound is
selected, and ROP for rop-rate alone; REK's z is ROP's, bit for bit. A run
only stops where a selected check reads it, so each subset of the three runs
no more iterations than its checks would alone. rk-envelope walks RK on the
same seeds, and flop-model and forward-error call run_rek.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidRangeError
from .reference import min_norm_solve
from .sampling import sample_block  # noqa: F401  (the benchmark's tracer patches this name)
from .solvers import (
    CONVERGED,
    REK,
    RK,
    ROP,
    SolverConfig,
    _batches,
    _bind,
    _checked_rhs,
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
# the seeded runs, read at their marks


class Walks(NamedTuple):
    """What walk reads off its runs; row r of each array is seeds[r]'s."""

    x_errors: np.ndarray  # seeds x x_marks
    z_errors: np.ndarray  # seeds x z_marks
    termination: np.ndarray  # objects: an outcome, or None without the checks
    iters: np.ndarray  # objects: an int, or None without the checks


def walk(a, b, solver, config, seeds, x_ref, x_marks, z_ref, z_marks, checks):
    """The seeded runs of `solver`, one per seed, read at their marks: one Walks of them all.

    The runs go through trajectory in consecutive batches (solvers._batches),
    all of a batch stopping together, and each batch fills its own rows.
    x_errors[r, j] is ||x_t - x_ref||^2 of the run of seeds[r] at t =
    x_marks[j], and z_errors[r, j] is ||z_t - z_ref||^2 at t = z_marks[j]; a
    repeated mark repeats its error. With checks, termination[r] and iters[r]
    are those of the solver's runner on `config` and seeds[r], and the run
    goes on past its stop only as far as the marks beyond it. Without checks
    they are None and the run ends at the last mark.
    """
    x_marks, z_marks = [int(t) for t in x_marks], [int(t) for t in z_marks]
    read = Walks(np.empty((len(seeds), len(x_marks))), np.empty((len(seeds), len(z_marks))),
                 np.full(len(seeds), None), np.full(len(seeds), None))
    lo = 0
    for batch in _batches(a, solver, seeds):
        for t, x, z, _, checked in trajectory(
                a, b, solver, config, batch, sorted({*x_marks, *z_marks}), checks):
            if checked:
                read.termination[lo + checked[0]] = checked[1]
                read.iters[lo + checked[0]] = t
            for ref, marks, rows, errors in ((x_ref, x_marks, x, read.x_errors),
                                             (z_ref, z_marks, z, read.z_errors)):
                if t in marks:  # a repeated mark repeats its error
                    errors[lo:lo + len(batch), np.equal(marks, t)] = [
                        [float(diff @ diff)] for diff in (v - ref for v in rows)]
        lo += len(batch)
    return read


def rek_checkpoint_errors(a, b, x_ref, checkpoints, seed):
    """||x_t - x_ref||^2 at each checkpoint, one seeded REK run."""
    read = walk(a, b, REK, SolverConfig(), [seed], x_ref, checkpoints, None, (), False)
    return read.x_errors[0].tolist()


def rk_checkpoint_errors(a, b, x_ref, checkpoints, seed):
    """||x_k - x_ref||^2 at each checkpoint, one seeded RK run from x = 0."""
    read = walk(a, b, RK, SolverConfig(), [seed], x_ref, checkpoints, None, (), False)
    return read.x_errors[0].tolist()


def rop_checkpoint_errors(a, b, z_ref, checkpoints, seed):
    """||z_k - z_ref||^2 at each checkpoint, one seeded ROP run from z = b."""
    read = walk(a, b, ROP, SolverConfig(), [seed], None, (), z_ref, checkpoints, False)
    return read.z_errors[0].tolist()


# ----------------------------------------------------------------------
# exact one-step expectations (enumerate every row / column choice)


def _one_step_expectation(a, b, solver, start, target, sq_norms):
    """The sum over lines k of p_k ||v_k - target||^2, by enumeration.

    p_k = sq_norms[k] / ||A||_F^2 is the probability of line k, and v_k the
    work vector (x for RK, z for ROP) of a bound run of `solver` on b after
    one step on line k from `start`; lines of zero norm are skipped. Each
    line has its own run, and the lines go in consecutive batches
    (solvers._batches), each bound once and stepped by one call. The
    enumeration gives every step its index, so the runs' streams are never
    drawn from and their seeds do not matter. Binding still derives them and
    builds the matrix's alias table if no run has yet, and it checks b as a
    run's rhs: for ROP that is `start`, so a bad z is refused as a bad rhs.
    """
    b = _checked_rhs(a, b)  # before the weights divide by ||A||_F^2
    weights = sq_norms / a.frob_sq
    total = 0.0
    for lines in _batches(a, solver, np.flatnonzero(weights).astype(np.int64)):
        x, z, steps = _bind(a, b, solver, [0] * len(lines))
        trial = z if x is None else x
        trial[:] = start
        steps(1, lines, lines)  # RK reads only the rows, ROP only the columns
        for k, v in zip(lines.tolist(), trial):
            diff = v - target
            total += weights[k] * float(diff @ diff)
    return total


def rk_one_step_expectation(a, b, x, target):
    """E ||x' - target||^2 over the row distribution, one bound RK step each."""
    return _one_step_expectation(a, b, RK, x, target, a.row_sq_norms)


def rop_one_step_expectation(a, z, target):
    """E ||z' - target||^2 over the column distribution, one bound ROP step each."""
    # a bound ROP run starts from z = b
    return _one_step_expectation(a, z, ROP, z, target, a.col_sq_norms)


# ----------------------------------------------------------------------
# the check battery behind `kaczmarz verify`

REK_T = (2, 4, 8)  # rek-envelope's checkpoints, in multiples of kappa_F^2
RK_K = (2, 4, 8)  # rk-envelope's
ROP_K = (2, 4)  # rop-rate's
BOUND_EPS, BOUND_DELTA = 1e-6, 0.1  # iteration-bound's tolerance and failure probability


@dataclass
class Battery:
    """One instance, its oracle solution, the seeds seed .. seed+reps-1 and the checks that run."""

    a: object
    b: np.ndarray
    ref: object
    reps: int
    seed: int
    names: tuple

    @property
    def seeds(self):
        return range(self.seed, self.seed + self.reps)

    def checkpoints(self, multipliers):
        return [round(c * self.ref.kappa_f_sq) for c in multipliers]

    @functools.cached_property
    def bounds(self):
        """The instance's theory bounds at iteration-bound's (eps, delta)."""
        return theory_bounds(self.ref, eps=BOUND_EPS, delta=BOUND_DELTA)

    @functools.cached_property
    def bound_cap(self):
        """iteration-bound's cap, ceil(T*)."""
        return math.ceil(self.bounds.t_star)

    @functools.cached_property
    def walks(self):
        """The walks of the seeds for the selected checks: of REK, or of ROP for rop-rate alone."""
        names, ref = self.names, self.ref
        solver = REK if "rek-envelope" in names or "iteration-bound" in names else ROP
        x_marks = self.checkpoints(REK_T) if "rek-envelope" in names else ()
        z_marks = self.checkpoints(ROP_K) if "rop-rate" in names else ()
        return walk(self.a, self.b, solver, SolverConfig(eps=BOUND_EPS, max_iters=self.bound_cap),
                    self.seeds, ref.x_ls, x_marks, ref.b_perp, z_marks, "iteration-bound" in names)


def _envelope_check(name, label, checkpoints, envelope, errors):
    """Mean errors over the seeds against SLACK * envelope(t) at each checkpoint t.

    errors is seeds x checkpoints, a walk's x_errors or z_errors; `label`
    names the checkpoints in the detail line. Each column is summed in seed
    order in Python floats (numpy would sum some shapes pairwise). A positive
    mean over an envelope of 0 is ratio inf, and the worst ratio is nan when
    any is, so both fail.
    """
    ratios = []
    for t, column in zip(checkpoints, errors.T.tolist()):
        mean = functools.reduce(operator.add, column) / len(column)
        bound = SLACK * envelope(t)
        ratios.append(mean / bound if bound != 0 else math.inf if mean != 0 else 0.0)
    worst = float(np.max(ratios))
    return CheckResult(name, worst <= 1.0, "max mean/bound ratio %.3g over %s=%s (%d runs)"
                       % (worst, label, checkpoints, len(errors)))


def check_rek_envelope(bat):
    return _envelope_check(
        "rek-envelope", "T", bat.checkpoints(REK_T),
        bat.bounds.rek_envelope, bat.walks.x_errors,
    )


def check_rk_envelope(bat):
    """Noisy-RK bound: rate^k ||x_ls||^2 + ||b_perp||^2 / sigma_min^2.

    Valid for any rhs; the noise term vanishes on consistent systems.
    """
    ref = bat.ref
    rate = bat.bounds.rk_rate
    sigma_min_sq = ref.singular_values[ref.rank - 1] ** 2
    floor = float(ref.b_perp @ ref.b_perp) / sigma_min_sq
    x_ls_sq = float(ref.x_ls @ ref.x_ls)
    ks = bat.checkpoints(RK_K)
    return _envelope_check(
        "rk-envelope", "k", ks, lambda t: rate**t * x_ls_sq + floor,
        walk(bat.a, bat.b, RK, SolverConfig(), bat.seeds, ref.x_ls, ks, None, (), False).x_errors,
    )


def check_rop_rate(bat):
    ref = bat.ref
    rate = bat.bounds.rk_rate
    b_range_sq = float(ref.b_range @ ref.b_range)
    return _envelope_check("rop-rate", "k", bat.checkpoints(ROP_K),
                           lambda t: rate**t * b_range_sq, bat.walks.z_errors)


def check_one_step(bat):
    """Exact conditional-expectation contractions, enumerated, zero slack."""
    a, ref = bat.a, bat.ref
    rate = bat.bounds.rk_rate
    rng = np.random.default_rng(bat.seed)
    ok = True
    details = []
    # RK expected error reduction needs a consistent system; use b_range.
    for trial in range(3):
        x = ref.x_ls + ref.row_basis @ rng.standard_normal(ref.rank)
        err_sq = float((x - ref.x_ls) @ (x - ref.x_ls))
        expect = rk_one_step_expectation(a, ref.b_range, x, ref.x_ls)
        tol = 1e-12 * max(err_sq, 1.0)
        if not expect <= rate * err_sq + tol:  # nan fails too
            ok = False
        details.append("rk %.3g<=%.3g" % (expect, rate * err_sq))
        z = ref.b_perp + a.matvec(rng.standard_normal(a.n))
        e_sq = float((z - ref.b_perp) @ (z - ref.b_perp))
        expect_z = rop_one_step_expectation(a, z, ref.b_perp)
        tol_z = 1e-12 * max(e_sq, 1.0)
        if not expect_z <= rate * e_sq + tol_z:
            ok = False
        details.append("rop %.3g<=%.3g" % (expect_z, rate * e_sq))
    return CheckResult("one-step-contraction", ok, "; ".join(details[:2]) + " ...")


def check_iteration_bound(bat):
    hits = int(np.count_nonzero(bat.walks.termination == CONVERGED))
    need = math.ceil((1.0 - BOUND_DELTA) * bat.reps)
    return CheckResult(
        "iteration-bound",
        hits >= need,
        "%d/%d runs terminated within T*=%d (need %d)" % (hits, bat.reps, bat.bound_cap, need),
    )


def check_flop_model(bat):
    a = bat.a
    iters = 2000
    config = SolverConfig(eps=1e-300, max_iters=iters, seed=bat.seed)
    report = run_rek(a, bat.b, config)
    if a.nnz == a.m * a.n:
        ok = report.flops == (4 * (a.m + a.n) + 2) * report.iters
        detail = "dense: %d flops == (4(m+n)+2)*%d: %s" % (report.flops, report.iters, ok)
    else:
        # the expected entries of a row and a column drawn by their squared norms
        model = 4.0 * float(a.row_sq_norms @ np.diff(a.row_ptr)
                            + a.col_sq_norms @ np.diff(a.col_ptr)) / a.frob_sq + 2.0
        per_iter = report.flops / report.iters
        ok = abs(per_iter - model) <= 0.05 * model
        detail = "sparse: %.2f flops/iter vs model %.2f" % (per_iter, model)
    return CheckResult("flop-model", ok, detail)


def check_forward_error(bat):
    eps = 1e-10
    bounds = theory_bounds(bat.ref, eps=eps)
    config = SolverConfig(eps=eps, seed=bat.seed)
    report = run_rek(bat.a, bat.b, config)
    if not report.converged:
        return CheckResult("forward-error", False, "run failed to converge")
    x_norm = float(np.linalg.norm(report.x))
    err = float(np.linalg.norm(report.x - bat.ref.x_ls))
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
    selected = [(name, fn) for name, fn in ALL_CHECKS if names is None or name in names]
    bat = Battery(a, b, min_norm_solve(a, b), reps, seed, tuple(name for name, _ in selected))
    return [fn(bat) for _, fn in selected]
