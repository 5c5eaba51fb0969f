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
run through one driver, trajectory(): it draws each block of row indices
(when there is an x) and column indices (when there is a z) from the seeded
streams, runs the block with block_steps and yields the iterates at the
iteration counts it is given. run_rek / run_rk / run_rop (and `solve`, which
picks one) stop it every check interval for the solver's termination check;
verify's checkpoint drivers stop it at their checkpoints and measure the
error instead. block_steps runs a whole block in one call of the compiled
block_steps in _blocks.c; where that cannot be built, it runs the same loop
over rop_step and rk_step instead. The compiled dots sum left to right, so
their iterates differ from the per-step path's BLAS dots only by rounding
(about 1e-14 relative) and do not depend on the BLAS kernel the host picks.

trajectory binds the compiled call once per run, not once per block: b, x
and z are checked and their addresses taken when the run starts, and the
row and column indices are drawn into two reusable int64 buffers that grow
only when a block is larger than any before it (8*min(m, n) entries each at
the solvers' default check interval). So a block costs one alias_draws call
per stream and one block_steps call, with no array allocated or re-checked.

The termination checks take their norms from one call of the compiled
check_sums: the products A x and A^T z come out bit-identical to the numpy
ones, and every sum of squares runs left to right. So on the compiled path
the stopping decision and the reported residual_norm / atz_norm do not
depend on the BLAS kernel either. Where the kernels are unavailable, the
checks use the numpy products and BLAS dots, as np.linalg.norm does.

Flops are booked by formula where the work runs; one dot or axpy over k
stored entries costs 2k. block_steps returns 4 per stored entry its steps
visit (a dot and an axpy) plus 2 per REK or RK step (one subtract, one
divide) or 1 per ROP step (one divide): 4(m+n)+2 per REK iteration on dense
instances. The compiled kernel reports the entries it visited; the per-step
path counts them from the index arrays. Each termination check returns its
own cost, which the runners book apart from the iterations so that the
per-iteration tally stays exactly the model the bounds are stated in:
ROP 2nnz+2m+2n, RK 2nnz+3m+2n, REK 4nnz+4m+4n, and at x = 0 RK adds 2m and
REK 4m (2m when ||b|| overflows).
"""

from __future__ import annotations

import ctypes
import functools
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
    IndexBuffer,
    RngStream,
    col_sampler,
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
# single steps


def rop_step(a, z, j):
    """Project z off column j: z -= (<a_col_j, z> / ||a_col_j||^2) a_col_j."""
    sq = a.col_sq_norms[j]
    if sq == 0.0:
        raise ZeroDivisionError("column %d has zero norm" % j)
    scale = a.col_dot(j, z) / sq
    a.col_axpy(j, -scale, z)


def rk_step(a, x, i, beta):
    """Project x onto the hyperplane <a_row_i, x> = beta."""
    sq = a.row_sq_norms[i]
    if sq == 0.0:
        raise ZeroDivisionError("row %d has zero norm" % i)
    resid = (beta - a.row_dot(i, x)) / sq
    a.row_axpy(i, resid, x)


# ----------------------------------------------------------------------
# blocks of steps: one compiled call, or the per-step loop as the fallback
#
# block_steps updates x / z in place and returns the flops booked: 4 per
# stored entry its steps visited, counted by the kernel (or from the index
# arrays on the per-step path), plus the scalar flops of each step. The
# indices come from the norm-weighted samplers, which never pick a zero-norm
# line, so the compiled kernel divides without the per-step zero-norm check.


def _addr(v, size):
    """Address of a float64 vector the kernels may read or write `size` entries of."""
    if v.dtype != np.float64 or v.shape != (size,) or not v.flags.c_contiguous:
        raise DimensionMismatchError(
            "expected a contiguous float64 vector of length %d, got %s%r"
            % (size, v.dtype, v.shape)
        )
    return v.ctypes.data


def _line_nnz(ptr, ids):
    return int((ptr[ids + 1] - ptr[ids]).sum())


def _bound_steps(a, b, x, z):
    """block_steps for many blocks on the same b, x and z.

    b, x and z are checked, and their addresses taken, once here. The result
    is steps(rows, cols, row_addr, col_addr), which runs one block as
    block_steps does, given the int64 index arrays and their addresses (the
    compiled kernel reads the addresses, the per-step path the arrays).
    """
    has_x, has_z = x is not None, z is not None
    scalar_flops = 2 if has_x else 1
    lib = _blocks.load()
    if lib is None:
        def steps(rows, cols, row_addr, col_addr):
            # the compiled kernel's loop: the row target with z_i from before
            # the column step, then the column step, then the row step
            row_ids = rows.tolist() if has_x else itertools.repeat(None)
            col_ids = cols.tolist() if has_z else itertools.repeat(None)
            for i, j in zip(row_ids, col_ids):
                if has_x:
                    target = b[i] - z[i] if has_z else b[i]
                if has_z:
                    rop_step(a, z, j)
                if has_x:
                    rk_step(a, x, i, target)
            touched = ((_line_nnz(a.row_ptr, rows) if has_x else 0)
                       + (_line_nnz(a.col_ptr, cols) if has_z else 0))
            return 4 * touched + scalar_flops * (rows.size if has_x else cols.size)
        return steps

    kernel = functools.partial(
        lib.block_steps, a.m, a.n, *a._line_addrs[0], *a._line_addrs[1],
        _addr(b, a.m) if has_x else None, _addr(x, a.n) if has_x else None,
        _addr(z, a.m) if has_z else None)

    def steps(rows, cols, row_addr, col_addr):
        count = rows.size if has_x else cols.size
        touched = kernel(row_addr, col_addr, count)
        if touched < 0:
            raise IndexError("sampled row or column index out of range")
        return 4 * touched + scalar_flops * count
    return steps


def block_steps(a, b, x, z, rows, cols):
    """One block of steps, in index order, on whichever of x and z is not None.

    For each k: rop_step on column cols[k] (unless z is None), then rk_step
    on row i = rows[k] (unless x is None) toward b[i] - z[i], with z[i] read
    before the column step, or toward b[i] when z is None. The indices of a
    half left out, and b when x is None, are not read.
    """
    has_x, has_z = x is not None, z is not None
    rows = np.ascontiguousarray(rows, dtype=np.int64) if has_x else None
    cols = np.ascontiguousarray(cols, dtype=np.int64) if has_z else None
    if has_x and has_z and rows.shape != cols.shape:
        raise DimensionMismatchError("need as many column picks as row picks")
    return _bound_steps(a, b, x, z)(rows, cols, rows.ctypes.data if has_x else None,
                                    cols.ctypes.data if has_z else None)


# ----------------------------------------------------------------------
# termination checks
#
# Each returns its outcome first: CONVERGED, OVERFLOW (a norm it compares is
# inf or nan, where `inf <= eps * inf` would otherwise read as converged), or
# None to keep iterating. Its flops come last, for the runner's separate
# check tally. The sums of squares behind the norms come from one
# call of the compiled check_sums, or from numpy products and BLAS dots where
# the kernels are unavailable.


def _check_sums(a, b, x, z):
    """Sums of squares of A x - (b - z), A^T z, x, z and b, in that order.

    A None z makes the first A x - b and leaves out A^T z and z; a None x
    leaves out A x - (b - z), x and b. Left-out sums are 0.0.
    """
    lib = _blocks.load()
    if lib is not None:
        out = (ctypes.c_double * 5)()
        has_x = x is not None
        lib.check_sums(a.m, a.n, *a._line_addrs[0][:3], *a._line_addrs[1][:3],
                       _addr(b, a.m) if has_x else None, _addr(x, a.n) if has_x else None,
                       None if z is None else _addr(z, a.m), out)
        return tuple(out)
    # v.dot(v) is the sum np.linalg.norm takes the root of
    resid_sq = atz_sq = x_sq = z_sq = b_sq = 0.0
    if x is not None:
        resid = a.matvec(x) - (b if z is None else b - z)
        resid_sq, x_sq, b_sq = float(resid.dot(resid)), float(x.dot(x)), float(b.dot(b))
    if z is not None:
        atz = a.rmatvec(z)
        atz_sq, z_sq = float(atz.dot(atz)), float(z.dot(z))
    return resid_sq, atz_sq, x_sq, z_sq, b_sq


def _overflowed(*norms):
    return not all(math.isfinite(v) for v in norms)


def rop_termination_check(a, z, eps):
    """||A^T z|| <= eps * ||A||_F * ||z||; an exactly-zero z is the limit itself."""
    _, atz_sq, _, z_sq, _ = _check_sums(a, None, None, z)
    flops = 2 * (a.nnz + a.m + a.n)  # A^T z, then the sums of squares of z and A^T z
    z_norm, atz = math.sqrt(z_sq), math.sqrt(atz_sq)
    if _overflowed(z_norm, atz):
        return OVERFLOW, atz, flops
    if z_norm == 0.0:
        return CONVERGED, atz, flops
    return CONVERGED if atz <= eps * math.sqrt(a.frob_sq) * z_norm else None, atz, flops


def rk_termination_check(a, b, x, eps):
    """||A x - b|| <= eps * ||A||_F * ||x||, with the zero-x degenerate rule."""
    resid_sq, _, x_sq, _, b_sq = _check_sums(a, b, x, None)
    # A x, then - b, then the sums of squares of the residual and x
    flops = 2 * a.nnz + 3 * a.m + 2 * a.n
    resid, x_norm = math.sqrt(resid_sq), math.sqrt(x_sq)
    if _overflowed(resid, x_norm):
        return OVERFLOW, resid, flops
    if x_norm == 0.0:
        # Only a zero rhs legitimately stops at the origin (resid is ||b|| here).
        flops += 2 * a.m  # the sum of squares of b
        return CONVERGED if resid <= eps * math.sqrt(b_sq) else None, resid, flops
    return CONVERGED if resid <= eps * math.sqrt(a.frob_sq) * x_norm else None, resid, flops


def rek_termination_check(a, b, x, z, eps):
    """Both REK inequalities against the current (x, z).

    Residual is measured against b - z, the running estimate of the range
    component of b; A^T z measures how far z still is from b_perp.
    """
    resid_sq, atz_sq, x_sq, _, b_sq = _check_sums(a, b, x, z)
    # b - z, A x and their difference, A^T z, then the sums of squares of the
    # residual, A^T z and x
    flops = 4 * (a.nnz + a.m + a.n)
    resid, atz, x_norm = math.sqrt(resid_sq), math.sqrt(atz_sq), math.sqrt(x_sq)
    if _overflowed(resid, atz, x_norm):
        return OVERFLOW, resid, atz, flops
    if x_norm == 0.0:
        # Degenerate rule: converged at the origin only if b - z has
        # (relatively) nothing left for x to explain.
        b_norm = math.sqrt(b_sq)
        flops += 2 * a.m  # the sum of squares of b
        if _overflowed(b_norm):
            return OVERFLOW, resid, atz, flops
        # at x = 0 the residual is b - z itself; book it as the norm of b - z
        flops += 2 * a.m
        return CONVERGED if resid <= eps * b_norm else None, resid, atz, flops
    frob = math.sqrt(a.frob_sq)
    ok = resid <= eps * frob * x_norm and atz <= eps * a.frob_sq * x_norm
    return CONVERGED if ok else None, resid, atz, flops


# ----------------------------------------------------------------------
# the seeded trajectory, and the runners built on it


def _validated_rhs(a, b):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.m,):
        raise DimensionMismatchError(
            "rhs must have length %d, got shape %r" % (a.m, b.shape)
        )
    if not np.isfinite(b).all():
        raise NonFiniteError("rhs entries must be finite")
    # the compiled block kernels read b through a raw pointer
    return np.ascontiguousarray(b)


def trajectory(a, b, solver, seed, stops):
    """Yield (iters, x, z, flops) of one seeded run after each count in `stops`.

    The run starts from x = 0 (REK, RK) and z = b (REK, ROP); x is None for
    ROP and z is None for RK. Rows and columns come from two streams derived
    from `seed`, so the iterate after t steps depends on the seed and t only,
    not on how `stops` splits the run into blocks. x and z are updated in
    place between yields and flops is the running total. `stops` must not
    decrease and may be lazy.
    """
    if not 0.0 < a.frob_sq < math.inf:
        # Line norms would overflow or vanish in the samplers and the
        # stopping rule would compare against eps * inf or eps * 0.
        what = ("sum of squares of A's entries overflows" if a.frob_sq
                else "squares of A's entries all underflow")
        raise InvalidRangeError("the %s float64 (largest |entry| %.3g); rescale A and b"
                                % (what, float(np.abs(a.row_vals).max())))
    b = _validated_rhs(a, b)
    x = None if solver == ROP else np.zeros(a.n)
    z = None if solver == RK else b.copy()
    if x is not None:
        row_rng, row_table = RngStream.derived(seed, ROW_STREAM_SALT), row_sampler(a)
    if z is not None:
        col_rng, col_table = RngStream.derived(seed, COL_STREAM_SALT), col_sampler(a)
    row_buf, col_buf = IndexBuffer(), IndexBuffer()
    steps = _bound_steps(a, b, x, z)
    iters = flops = 0
    for stop in stops:
        block = stop - iters
        if block < 0:
            raise ValueError("stops must not decrease from 0, got %d after %d" % (stop, iters))
        if block:
            rows = sample_block(row_table, row_rng, block, row_buf) if x is not None else None
            cols = sample_block(col_table, col_rng, block, col_buf) if z is not None else None
            flops += steps(rows, cols, row_buf.address, col_buf.address)
            iters = stop
        yield iters, x, z, flops


def _run(a, b, config, solver):
    """Run `solver` until its termination check says stop, checking every interval."""
    config = config or SolverConfig(solver=solver)
    b = _validated_rhs(a, b)
    eps, cap, interval = config.resolved(a.m, a.n)
    check_flops = 0
    reason = MAX_ITERS
    resid = atz = None
    start = time.perf_counter()
    stops = itertools.chain(range(interval, cap, interval), (cap,))
    for iters, x, z, flops in trajectory(a, b, solver, config.seed, stops):
        if solver == REK:
            outcome, resid, atz, cost = rek_termination_check(a, b, x, z, eps)
        elif solver == RK:
            outcome, resid, cost = rk_termination_check(a, b, x, eps)
        else:
            outcome, atz, cost = rop_termination_check(a, z, eps)
        check_flops += cost
        if outcome:
            reason = outcome
            break
    return SolveReport(
        x=x,
        z=z,
        iters=iters,
        flops=flops,
        check_flops=check_flops,
        termination=reason,
        residual_norm=resid,
        atz_norm=atz,
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

    Rates are per-iteration expected decay factors; t_star is the iteration
    count after which the REK error envelope drops below eps^2-level with
    probability at least 1 - delta; the two flop figures are the worst-case
    and expected total-work bounds at t_star.
    """

    eps: float
    delta: float
    kappa_f_sq: float
    cond_sq: float
    rank: int
    rop_rate: float
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
    rate = 1.0 - 1.0 / kappa_f_sq
    log_term = math.log(32.0 * (1.0 + 2.0 * cond_sq) / (delta * eps * eps))
    t_star = 2.0 * kappa_f_sq * log_term
    kappa_f = math.sqrt(kappa_f_sq)
    return TheoryBounds(
        eps=eps,
        delta=delta,
        kappa_f_sq=kappa_f_sq,
        cond_sq=cond_sq,
        rank=ref.rank,
        rop_rate=rate,
        rk_rate=rate,
        x_ls_norm_sq=float(ref.x_ls @ ref.x_ls),
        t_star=t_star,
        forward_err_bound=eps * kappa_f * (1.0 + kappa_f),
        worst_flops=10.0 * (ref.m + ref.n) * ref.rank * cond_sq * log_term,
        expected_flops=20.0 * ref.nnz * cond_sq * log_term,
    )
