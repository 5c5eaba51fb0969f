"""Randomized row/column projection solvers and their theory-side bounds.

Three related iterations over a DualSparseMatrix:

* ROP, randomized orthogonal projection. Starting from z = b, repeatedly
  project z off a random column (picked proportionally to squared column
  norm). z converges to the component of b orthogonal to the column space.

* RK, randomized Kaczmarz. Starting from x = 0, repeatedly project x onto
  the solution hyperplane of a random row (picked proportionally to squared
  row norm). Converges to the solution on consistent systems; on noisy ones it
  stalls at a floor set by the noise over sigma_min.

* REK, randomized extended Kaczmarz. Per iteration, one ROP step on z
  (driving z -> b_perp) and then one RK step on x toward b - z, with
  independently seeded row and column streams. Converges to the min-norm
  least-squares solution even for rank-deficient, inconsistent systems.

The REK x-update uses the z entry from *before* this iteration's column
projection (the two projections commute in expectation but not pathwise).

So RK is REK without z, aimed at b, and ROP is REK without x, and all three
run through one generator, trajectory(): it runs a batch of seeded runs,
one per seed, each block of steps on row indices (when there is an x) and
column indices (when there is a z) drawn from each run's seeded streams, and
yields the iterates at each stop. The runs stop together: for the solver's
termination check every check interval, until a run's check says stop, and
at any iteration counts (marks) its caller adds. run_rek / run_rk / run_rop
(and `solve`, which picks one) walk a batch of one with the checks alone;
verify's walk reads the iterates of every seed of a check at its marks,
with or without the checks. A block is one call of the compiled block_steps
in _blocks.c, which moves the runs of the batch in shares over the CPUs the
process may use and draws each step's indices as it goes; where that cannot
be built, sample_block draws them from the same streams and one numpy loop
runs the same steps, a run at a time, each step a BLAS dot and a numpy axpy
over the stored entries of one line. The compiled dots sum left to right, so
their iterates differ from the numpy loop's only by rounding (about 1e-14
relative) and do not depend on the BLAS kernel the host picks, nor on the
other runs of the batch or the number of CPUs.

A batch is bound once, not once per block or check: when trajectory starts,
_bind checks A and b and allocates a row of three arrays per run: its x, its
z, and its row and column streams, (seed, draws used) each, which both paths
move. Its steps and sums are one front for both paths: they list the runs to
move, check any given indices and book the flops, and call block_steps and
check_sums, the compiled kernels on one struct batch (the addresses of A's
line arrays, b, the alias tables and the three arrays, taken at binding) or
their numpy twins. Long lists of seeds are bound in consecutive batches
whose vectors stay within BATCH_BYTES.

The termination checks take their norms from the compiled check_sums, one
call for every run checked at a stop: the products A x and A^T z come out
bit-identical to the numpy ones, and every sum of squares runs left to
right. So on the compiled path the stopping decision and the reported
residual_norm / atz_norm do not depend on the BLAS kernel either. Where the
kernels are unavailable, the checks use the numpy products and BLAS dots, as
np.linalg.norm does. trajectory hands the stop's sums to one call of the
solver's check, a row per checked run, and the check decides every row at
once, each as it would alone.

Flops are booked by formula where the work runs; one dot or axpy over k
stored entries costs 2k. block_steps returns 4 per stored entry its steps
visit (a dot and an axpy) plus 2 per REK or RK step (one subtract, one
divide) or 1 per ROP step (one divide): 4(m+n)+2 per REK iteration on dense
instances. The compiled kernel reports the entries it visited; the numpy
loop counts them from the index arrays. Each termination check returns its
own cost, which the runners book apart from the iterations so that the
per-iteration tally stays exactly the model the bounds are stated in:
ROP 2nnz+2m+2n, RK 2nnz+3m+2n, REK 4nnz+4m+4n, and at x = 0 RK adds 2m and
REK 4m (2m when ||b|| overflows).
"""

from __future__ import annotations

import ctypes
import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _blocks
from .errors import DimensionMismatchError, InvalidRangeError, NonFiniteError
from .sampling import (
    COL_STREAM_SALT,
    ROW_STREAM_SALT,
    _check_table,
    col_sampler,
    derived_seeds,
    row_sampler,
    sample_block,
)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
OVERFLOW = "overflow"

ROP = "rop"
RK = "rk"
REK = "rek"
SOLVERS = (REK, RK, ROP)


@dataclass
class SolverConfig:
    """Knobs shared by the three runners.

    max_iters and check_interval default per instance when left None:
    check_interval becomes 8*min(m, n) and max_iters becomes 10**6 * min(m, n)
    (callers holding reference bounds typically pass ceil(2*T*) instead).
    """

    eps: float = 1e-14
    max_iters: Optional[int] = None
    check_interval: Optional[int] = None
    seed: int = 0
    solver: str = REK

    def validate(self):
        if not (0.0 < self.eps < 2.0):
            raise InvalidRangeError("eps must lie in (0, 2), got %r" % (self.eps,))
        if self.max_iters is not None and self.max_iters < 1:
            raise InvalidRangeError("max_iters must be >= 1")
        if self.check_interval is not None and self.check_interval < 1:
            raise InvalidRangeError("check_interval must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidRangeError("seed must fit in 64 bits")
        if self.solver not in SOLVERS:
            raise InvalidRangeError("unknown solver %r" % (self.solver,))

    def resolved(self, m, n):
        """(eps, max_iters, check_interval) with instance-size defaults filled in."""
        self.validate()
        interval = self.check_interval or 8 * min(m, n)
        cap = self.max_iters or 10**6 * min(m, n)
        return self.eps, cap, interval


@dataclass
class SolveReport:
    """What a runner hands back. x is None for ROP, z is None for RK."""

    x: Optional[np.ndarray]
    z: Optional[np.ndarray]
    iters: int
    flops: int
    check_flops: int
    termination: str
    residual_norm: Optional[float]
    atz_norm: Optional[float]
    wall_time: float

    @property
    def converged(self):
        return self.termination == CONVERGED


# ----------------------------------------------------------------------
# blocks of steps: one compiled call, or one numpy loop as the fallback
#
# A bound batch of runs steps each listed run's x and z in place and returns
# the flops booked per run: 4 per stored entry its steps visited, counted by
# block_steps (the kernel, or its numpy twin from the index arrays), plus
# the scalar flops of each step. Each listed run draws from its own row of
# the streams and is stepped whole by one thread: the kernel splits the
# listed runs over threads, the numpy twin takes them one after the other,
# and either way a run's bits do not depend on the others. Given indices are
# range-checked by the front, before either runs; drawn ones come from the
# norm-weighted samplers, which never pick a zero-norm line, so neither path
# checks a step's divisor.

# The most bytes of vectors and streams one batch holds: a longer list of
# seeds (or enumerated lines) goes through _bind in consecutive batches.
BATCH_BYTES = 8 << 20


def _line_nnz(ptr, ids):
    return int((ptr[ids + 1] - ptr[ids]).sum())


def _batches(a, solver, items):
    """Consecutive slices of `items`, one per batch of runs of `solver` on A within BATCH_BYTES."""
    # a run's x and z, and its streams' two (seed, draws used) pairs
    per_run = 8 * ((a.n if solver != ROP else 0) + (a.m if solver != RK else 0) + 4)
    size = max(1, BATCH_BYTES // per_run)
    return [items[lo:lo + size] for lo in range(0, len(items), size)]


def _checked_rhs(a, b):
    """b as a contiguous float64 array, once A and b pass the checks of a run.

    A's sum of squares must be positive and finite and b a finite vector of
    length m.
    """
    if not 0.0 < a.frob_sq < math.inf:
        # Line norms would overflow or vanish in the samplers and the
        # stopping rule would compare against eps * inf or eps * 0.
        what = ("sum of squares of A's entries overflows" if a.frob_sq
                else "squares of A's entries all underflow")
        raise InvalidRangeError("the %s float64 (largest |entry| %.3g); rescale A and b"
                                % (what, float(np.abs(a.row_vals).max())))
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.m,):
        raise DimensionMismatchError(
            "rhs must have length %d, got shape %r" % (a.m, b.shape)
        )
    if not np.isfinite(b).all():
        raise NonFiniteError("rhs entries must be finite")
    # the compiled kernels read b through a raw pointer
    return np.ascontiguousarray(b)


def _bind(a, b, solver, seeds):
    """A batch of seeded runs of `solver` on A and b, bound once: (x, z, steps, sums).

    A and b are checked first (_checked_rhs), then each seed must fit in 64
    bits. There is one run per seed: row r of x (a len(seeds) x n array, None for
    ROP) and of z (len(seeds) x m, None for RK) are run r's iterates, x
    starting at 0 and z at a copy of b. steps and sums keep x, z, b and A
    alive. steps(count, rows, cols, runs) runs `count` steps of each run in
    `runs` (every run when None), in place, on row and column indices drawn
    from the two streams derived from its seed, as sample_block draws them
    and moves each (seed, draws used) pair on, and returns the flops booked
    per listed run (an int64 array). Given index arrays rows and cols hold
    `count` indices per listed run, in the order listed, which the runs step
    on instead (rows unread for ROP, cols for RK), leaving their streams
    where they are. A given array of a half that runs must be a C-contiguous
    int64 array of that length (else ValueError) with every index in range
    (else IndexError), checked before any run steps. The compiled kernels
    split the listed runs over the CPUs the process may use, one thread per
    share of runs, so a run listed twice would be stepped twice at once:
    runs must be distinct (else ValueError) and in [0, len(seeds)) (else
    IndexError), for steps and sums alike and on both paths. sums(runs)
    gives a new (k, 5) array for the k listed runs: row n holds, for the
    n-th listed run, the sums of squares of A x - (b - z), A^T z, x, z and
    b, in that order, for the current contents of its x and z. RK's first
    sum is of A x - b and it leaves out A^T z and z; ROP leaves out
    A x - (b - z), x and b. Left-out sums are 0.0.
    """
    b = _checked_rhs(a, b)
    if len(seeds) and not (0 <= min(seeds) and max(seeds) < 2**64):
        raise InvalidRangeError("seed must fit in 64 bits")
    every = np.arange(len(seeds), dtype=np.int64)
    has_x, has_z = solver != ROP, solver != RK
    x = np.zeros((len(seeds), a.n)) if has_x else None
    z = np.tile(b, (len(seeds), 1)) if has_z else None
    scalar_flops = 2 if has_x else 1
    tables = row_sampler(a) if has_x else None, col_sampler(a) if has_z else None
    # run r's row and column streams, (seed, draws used) each, which both paths move
    streams = np.zeros((len(seeds), 2, 2), dtype=np.uint64)
    streams[:, 0, 0] = derived_seeds(seeds, ROW_STREAM_SALT)
    streams[:, 1, 0] = derived_seeds(seeds, COL_STREAM_SALT)
    listed = np.empty(len(seeds), dtype=np.int64)  # the runs a call steps or sums
    lib = _blocks.load()
    # block_steps(k, rows, cols, count) and check_sums(k) take the first k runs in listed
    block_steps, check_sums = (_numpy_batch(a, b, x, z, streams, tables, listed) if lib is None
                               else _compiled_batch(lib, a, b, x, z, streams, tables, listed))

    def list_runs(runs):
        if runs is None:
            runs = every
        # each listed run is stepped by one thread: a repeat would be two
        runs = np.asarray(runs, dtype=np.int64)
        ids = runs.tolist()
        if ids and not (0 <= min(ids) and max(ids) < len(seeds)):
            raise IndexError("runs must lie in [0, %d)" % len(seeds))
        if len(set(ids)) < len(ids):
            raise ValueError("runs must not repeat")
        listed[:runs.size] = runs
        return runs.size

    def steps(count, rows=None, cols=None, runs=None):
        k = list_runs(runs)
        rows, cols = rows if has_x else None, cols if has_z else None
        for given, size in ((rows, a.m), (cols, a.n)):
            # the kernel reads count indices per listed run through a raw pointer
            if given is not None and not (given.dtype == np.int64 and given.flags.c_contiguous
                                          and given.size == k * count):
                raise ValueError("given indices must be a C-contiguous int64 array of %d"
                                 % (k * count))
            if given is not None and given.size and not (0 <= given.min() and given.max() < size):
                raise IndexError("sampled row or column index out of range")
        return 4 * block_steps(k, rows, cols, count) + scalar_flops * count

    def sums(runs=None):
        # a copy: the compiled check_sums writes every call into one buffer
        return check_sums(list_runs(runs)).copy()
    return x, z, steps, sums


def _compiled_batch(lib, a, b, x, z, streams, tables, listed):
    """The kernels' block_steps and check_sums on one struct batch of the runs."""
    for table in tables:
        if table is not None:
            _check_table(table)
    arrays = [a.row_ptr, a.row_cols, a.col_ptr, a.col_rows, a.row_vals, a.row_sq_norms,
              a.col_vals, a.col_sq_norms, b, *(t and t.prob for t in tables),
              *(t and t.alias for t in tables), x, z, streams]
    batch = _blocks.Batch(a.m, a.n, *(None if v is None else v.ctypes.data for v in arrays))
    touched, out = np.empty(len(streams), dtype=np.int64), np.empty((len(streams), 5))
    addrs = ctypes.addressof(batch), listed.ctypes.data
    touched_addr, out_addr = touched.ctypes.data, out.ctypes.data

    def block_steps(k, rows, cols, count):
        lib.block_steps(*addrs, k, None if rows is None else rows.ctypes.data,
                        None if cols is None else cols.ctypes.data, count, touched_addr)
        return touched[:k]

    def check_sums(k):
        lib.check_sums(*addrs, k, out_addr)
        return out[:k]
    # the header holds raw addresses only: the calls keep what they point
    # into (the matrix's lines, b, the alias tables, x, z and streams) alive
    block_steps.owners = check_sums.owners = (a, b, tables, x, z, streams, batch)
    return block_steps, check_sums


def _numpy_batch(a, b, x, z, streams, tables, listed):
    """Numpy twins of the kernels' block_steps and check_sums, a run and a step at a time."""

    def run_steps(r, rows, cols, count):
        run_x = None if x is None else x[r]
        run_z = None if z is None else z[r]
        # drawn from the run's own streams, which move on as in the kernel
        if run_x is not None and rows is None:
            rows = sample_block(tables[0], streams[r, 0], count)
        if run_z is not None and cols is None:
            cols = sample_block(tables[1], streams[r, 1], count)
        # the compiled kernel's loop: the row target with z_i from before
        # the column step, then the column step, then the row step
        for i, j in zip(itertools.repeat(None) if run_x is None else rows.tolist(),
                        itertools.repeat(None) if run_z is None else cols.tolist()):
            if run_x is not None:
                target = b[i] if run_z is None else b[i] - run_z[i]
            if run_z is not None:
                lo, hi = a.col_ptr[j], a.col_ptr[j + 1]
                line, vals = a.col_rows[lo:hi], a.col_vals[lo:hi]
                scale = float(vals @ run_z[line]) / a.col_sq_norms[j]
                run_z[line] += -scale * vals
            if run_x is not None:
                lo, hi = a.row_ptr[i], a.row_ptr[i + 1]
                line, vals = a.row_cols[lo:hi], a.row_vals[lo:hi]
                run_x[line] += (target - float(vals @ run_x[line])) / a.row_sq_norms[i] * vals
        return ((0 if run_x is None else _line_nnz(a.row_ptr, rows))
                + (0 if run_z is None else _line_nnz(a.col_ptr, cols)))

    def block_steps(k, rows, cols, count):
        return np.array([run_steps(r, None if rows is None else rows[n * count:(n + 1) * count],
                                   None if cols is None else cols[n * count:(n + 1) * count], count)
                         for n, r in enumerate(listed[:k].tolist())], dtype=np.int64)

    def check_sums(k):
        # v.dot(v) is the sum np.linalg.norm takes the root of; b's is the
        # same for every run
        out = np.zeros((k, 5))
        b_sq = b.dot(b) if x is not None else 0.0
        for n, r in enumerate(listed[:k].tolist()):
            if x is not None:
                resid = a.matvec(x[r]) - (b if z is None else b - z[r])
                out[n, [0, 2, 4]] = resid.dot(resid), x[r].dot(x[r]), b_sq
            if z is not None:
                atz = a.rmatvec(z[r])
                out[n, [1, 3]] = atz.dot(atz), z[r].dot(z[r])
        return out
    return block_steps, check_sums


# ----------------------------------------------------------------------
# termination checks
#
# Each takes the matrix, the (k, 5) sums of the k runs checked at a stop (bound
# by _bind) and eps, and returns (outcomes, residual_norms, atz_norms, flops),
# one entry per run: CONVERGED, OVERFLOW (a norm it compares is inf or nan,
# where `inf <= eps * inf` would read as converged) or, where neither holds,
# MAX_ITERS, the outcome of a run that goes on until the cap; the norms (None
# for the one its solver lacks: atz for RK, residual for ROP); and the flops,
# for the runner's separate check tally. A row's entries are those it gets
# checked alone: each bound is formed in the order of the scalar rule, and as
# with Python floats, overflow to inf and nan pass without a warning. A norm
# is nan, inf or below 1.4e154, so a sum of norms is finite where each is.

_OUTCOMES = np.array([MAX_ITERS, CONVERGED, OVERFLOW], dtype=object)  # by np.where(finite, ok, 2)


@np.errstate(over="ignore", invalid="ignore")
def rop_termination_check(a, sums, eps):
    """||A^T z|| <= eps * ||A||_F * ||z||; an exactly-zero z is the limit itself."""
    _, atz, _, z_norm, _ = np.sqrt(sums).T
    # A^T z, then the sums of squares of z and A^T z
    flops = np.full(len(sums), 2 * (a.nnz + a.m + a.n))
    ok = (z_norm == 0.0) | (atz <= eps * math.sqrt(a.frob_sq) * z_norm)
    return _OUTCOMES[np.where(np.isfinite(atz + z_norm), ok, 2)], None, atz, flops


@np.errstate(over="ignore", invalid="ignore")
def rk_termination_check(a, sums, eps):
    """||A x - b|| <= eps * ||A||_F * ||x||, with the zero-x degenerate rule."""
    resid, _, x_norm, _, b_norm = np.sqrt(sums).T
    finite = np.isfinite(resid + x_norm)
    # Only a zero rhs legitimately stops at the origin (resid is ||b|| here).
    zero = (x_norm == 0.0) & finite
    # A x, then - b, then the sums of squares of the residual and x, and of b at x = 0
    flops = 2 * a.nnz + 3 * a.m + 2 * a.n + 2 * a.m * zero
    ok = resid <= np.where(zero, eps * b_norm, eps * math.sqrt(a.frob_sq) * x_norm)
    return _OUTCOMES[np.where(finite, ok, 2)], resid, None, flops


@np.errstate(over="ignore", invalid="ignore")
def rek_termination_check(a, sums, eps):
    """Both REK inequalities against the current (x, z).

    Residual is measured against b - z, the running estimate of the range
    component of b; A^T z measures how far z still is from b_perp.
    """
    resid, atz, x_norm, _, b_norm = np.sqrt(sums).T
    finite = np.isfinite(resid + atz + x_norm)
    # Degenerate rule: converged at the origin only if b - z has (relatively)
    # nothing left for x to explain, and overflow where ||b|| does.
    zero = (x_norm == 0.0) & finite
    b_finite = zero & np.isfinite(b_norm)
    # b - z, A x and their difference, A^T z, then the sums of squares of the
    # residual, A^T z and x; at x = 0 that of b, and (b finite) the residual
    # is b - z itself, booked as the norm of b - z
    flops = 4 * (a.nnz + a.m + a.n) + 2 * a.m * zero + 2 * a.m * b_finite
    ok = (resid <= np.where(zero, eps * b_norm, eps * math.sqrt(a.frob_sq) * x_norm)) & (
        zero | (atz <= eps * a.frob_sq * x_norm))
    return _OUTCOMES[np.where(finite & (b_finite | ~zero), ok, 2)], resid, atz, flops


# ----------------------------------------------------------------------
# the seeded trajectory, and the runners built on it


def trajectory(a, b, solver, config, seeds, marks=(), checks=True):
    """Yield (iters, x, z, flops, checked) of a batch of seeded runs at each distinct stop.

    There is one run per seed, all bound once by _bind: row r of x (None for
    ROP) and of z (None for RK) is the iterate of the run of seeds[r], which
    starts from x = 0 and z = b. Its rows and columns come from two streams
    derived from its seed, so its iterate after t steps depends on the seed
    and t only, not on where it stops. config gives eps, the cap and the
    check interval; its seed and solver are not read (the solver is
    `solver`). x and z are updated in place between yields, and flops holds
    each run's running total.

    Every run stops at each count in `marks`, which must not decrease and may
    be lazy. With checks, a run also stops for the solver's termination check
    every check interval and at the cap, until its check first gives
    CONVERGED or OVERFLOW; after that it goes on only as far as the
    marks ahead, and with none ahead it leaves the batch, its rows left as
    they are. checked is None at a stop where no run is checked, else
    (runs, outcomes, residual_norms, atz_norms, flops): the int64 array of
    the runs checked there and the check's entries for them, in that order.
    """
    eps, cap, interval = config.resolved(a.m, a.n)
    x, z, steps, sums = _bind(a, b, solver, seeds)
    # looked up per batch, so a wrapper bound to the module-level name sees
    # every check stop
    check = {REK: rek_termination_check, RK: rk_termination_check,
             ROP: rop_termination_check}[solver]
    schedule = itertools.chain(range(interval, cap, interval), (cap,))
    due = next(schedule) if checks else None  # the next check stop; None when done
    marks = iter(marks)
    mark = next(marks, None)  # the next mark; None when there is none
    every = np.arange(len(seeds), dtype=np.int64)
    checking = every  # the runs whose checks go on, while a check is due
    iters = 0
    flops = np.zeros(len(seeds), dtype=np.int64)
    while due is not None or mark is not None:
        stop = min(s for s in (due, mark) if s is not None)
        if stop < iters:
            raise ValueError("marks must not decrease from 0, got %d after %d" % (stop, iters))
        if stop > iters:
            stepping = every if mark is not None else checking
            flops[stepping] += steps(stop - iters, runs=stepping)
            iters = stop
        checked = None
        if stop == due:
            checked = (checking, *check(a, sums(checking), eps))
            checking = checking[checked[1] == MAX_ITERS]
            due = next(schedule, None) if checking.size else None
        while mark == stop:
            mark = next(marks, None)
        yield iters, x, z, flops, checked


def _run(a, b, config, solver):
    """Run `solver` until its termination check says stop, checking every interval."""
    config = config or SolverConfig(solver=solver)
    check_flops = 0
    start = time.perf_counter()
    # every stop is a check stop of the one run
    for iters, x, z, flops, (_, outcomes, resids, atzs, costs) in trajectory(
            a, b, solver, config, [config.seed]):
        check_flops += int(costs[0])
    return SolveReport(
        x=None if x is None else x[0],
        z=None if z is None else z[0],
        iters=iters,
        flops=int(flops[0]),
        check_flops=check_flops,
        termination=outcomes[0],
        residual_norm=None if resids is None else float(resids[0]),
        atz_norm=None if atzs is None else float(atzs[0]),
        wall_time=time.perf_counter() - start,
    )


def run_rop(a, b, config=None):
    """Drive z from b toward b_perp by random column projections."""
    return _run(a, b, config, ROP)


def run_rk(a, b, config=None):
    """Randomized Kaczmarz from x = 0."""
    return _run(a, b, config, RK)


def run_rek(a, b, config=None):
    """Randomized extended Kaczmarz from x = 0, z = b."""
    return _run(a, b, config, REK)


_RUNNERS = {ROP: run_rop, RK: run_rk, REK: run_rek}


def solve(a, b, config=None):
    """Dispatch on config.solver."""
    config = config or SolverConfig()
    config.validate()
    return _RUNNERS[config.solver](a, b, config)


# ----------------------------------------------------------------------
# theory-side quantities


@dataclass(frozen=True)
class TheoryBounds:
    """Closed-form bounds evaluated for one instance at one (eps, delta).

    rk_rate, 1 - 1/kappa_F^2, is the per-iteration expected decay factor of
    RK and ROP alike; t_star is the iteration count after which the REK error
    envelope drops below eps^2-level with probability at least 1 - delta; the
    two flop figures are the worst-case and expected total-work bounds at
    t_star.
    """

    eps: float
    delta: float
    kappa_f_sq: float
    cond_sq: float
    rank: int
    rk_rate: float
    x_ls_norm_sq: float
    t_star: float
    forward_err_bound: float
    worst_flops: float
    expected_flops: float

    def rek_envelope(self, t):
        """Expected-error bound for ||x_t - x_ls||^2 after t REK iterations."""
        return (
            self.rk_rate ** (int(t) // 2) * (1.0 + 2.0 * self.cond_sq) * self.x_ls_norm_sq
        )


def theory_bounds(ref, eps, delta=0.1):
    """Evaluate the bounds from a ReferenceSolution."""
    if not (0.0 < eps < 2.0):
        raise InvalidRangeError("eps must lie in (0, 2), got %r" % (eps,))
    if not (0.0 < delta < 1.0):
        raise InvalidRangeError("delta must lie in (0, 1), got %r" % (delta,))
    kappa_f_sq = ref.kappa_f_sq
    cond_sq = ref.cond_sq
    log_term = math.log(32.0 * (1.0 + 2.0 * cond_sq) / (delta * eps * eps))
    t_star = 2.0 * kappa_f_sq * log_term
    kappa_f = math.sqrt(kappa_f_sq)
    return TheoryBounds(
        eps=eps,
        delta=delta,
        kappa_f_sq=kappa_f_sq,
        cond_sq=cond_sq,
        rank=ref.rank,
        rk_rate=1.0 - 1.0 / kappa_f_sq,
        x_ls_norm_sq=float(ref.x_ls @ ref.x_ls),
        t_star=t_star,
        forward_err_bound=eps * kappa_f * (1.0 + kappa_f),
        worst_flops=10.0 * (ref.m + ref.n) * ref.rank * cond_sq * log_term,
        expected_flops=20.0 * ref.nnz * cond_sq * log_term,
    )
