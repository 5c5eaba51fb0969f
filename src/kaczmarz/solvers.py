"""Randomized row/column projection solvers and their theory-side bounds.

Three related iterations over a DualSparseMatrix:

* run_rop: randomized orthogonal projection. Starting from z = b, repeatedly
  project z off a random column (picked proportionally to squared column
  norm). z converges to the component of b orthogonal to the column space.

* run_rk: randomized Kaczmarz. Starting from x = 0, repeatedly project x onto
  the solution hyperplane of a random row (picked proportionally to squared
  row norm). Converges to the solution on consistent systems; on noisy ones it
  stalls at a floor set by the noise over sigma_min.

* run_rek: randomized extended Kaczmarz. One column projection driving
  z -> b_perp and one row projection driving x against b - z, per iteration,
  with independently seeded row and column streams. Converges to the min-norm
  least-squares solution even for rank-deficient, inconsistent systems.

The REK x-update uses the z entry from *before* this iteration's column
projection (the two projections commute in expectation but not pathwise);
SolverConfig.rek_use_updated_z flips that for experiments.

Flop accounting: one dot or axpy over k stored entries costs 2k. A standalone
rk_step books 4*nnz(row)+2 (dot, axpy, one subtract, one divide) and a
rop_step 4*nnz(col)+1 (dot, axpy, one divide). A full REK iteration books
4*(nnz(row)+nnz(col))+2, i.e. 4(m+n)+2 on dense instances. Termination-check
work (two whole-matrix products plus norms) goes to a separate counter so the
per-iteration tally stays exactly the model the bounds are stated in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidRangeError, NonFiniteError
from .matrices import FlopCounter
from .sampling import (
    COL_STREAM_SALT,
    ROW_STREAM_SALT,
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
    rek_use_updated_z: bool = False

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


def rop_step(a, z, j, flops=None):
    """Project z off column j: z -= (<a_col_j, z> / ||a_col_j||^2) a_col_j."""
    sq = a.col_sq_norms[j]
    if sq == 0.0:
        raise ZeroDivisionError("column %d has zero norm" % j)
    scale = a.col_dot(j, z) / sq
    a.col_axpy(j, -scale, z)
    if flops is not None:
        flops.add(4 * a.col_nnz(j) + 1)


def rk_step(a, x, i, beta, flops=None):
    """Project x onto the hyperplane <a_row_i, x> = beta."""
    sq = a.row_sq_norms[i]
    if sq == 0.0:
        raise ZeroDivisionError("row %d has zero norm" % i)
    resid = (beta - a.row_dot(i, x)) / sq
    a.row_axpy(i, resid, x)
    if flops is not None:
        flops.add(4 * a.row_nnz(i) + 2)


def rek_iteration(a, b, x, z, i, j, flops=None, use_updated_z=False):
    """One REK iteration: column projection on z, then row projection on x.

    The row update aims at b_i - z_i with the pre-update z_i by default.
    """
    col_sq = a.col_sq_norms[j]
    row_sq = a.row_sq_norms[i]
    if col_sq == 0.0:
        raise ZeroDivisionError("column %d has zero norm" % j)
    if row_sq == 0.0:
        raise ZeroDivisionError("row %d has zero norm" % i)
    z_i = float(z[i])
    a.col_axpy(j, -a.col_dot(j, z) / col_sq, z)
    if use_updated_z:
        z_i = float(z[i])
    resid = (b[i] - z_i - a.row_dot(i, x)) / row_sq
    a.row_axpy(i, resid, x)
    if flops is not None:
        flops.add(4 * (a.row_nnz(i) + a.col_nnz(j)) + 2)


# ----------------------------------------------------------------------
# termination checks (cost booked on the separate check counter)
#
# Each returns its outcome first: CONVERGED, OVERFLOW (a norm it compares is
# inf or nan, where `inf <= eps * inf` would otherwise read as converged), or
# None to keep iterating.


def _norm(v, flops=None):
    if flops is not None:
        flops.add(2 * v.size)
    return float(np.linalg.norm(v))


def _overflowed(*norms):
    return not all(math.isfinite(v) for v in norms)


def rop_termination_check(a, z, eps, flops=None):
    """||A^T z|| <= eps * ||A||_F * ||z||; an exactly-zero z is the limit itself."""
    z_norm = _norm(z, flops)
    atz = _norm(a.rmatvec(z, flops), flops)
    if _overflowed(z_norm, atz):
        return OVERFLOW, atz
    if z_norm == 0.0:
        return CONVERGED, atz
    return CONVERGED if atz <= eps * math.sqrt(a.frob_sq) * z_norm else None, atz


def rk_termination_check(a, b, x, eps, flops=None):
    """||A x - b|| <= eps * ||A||_F * ||x||, with the zero-x degenerate rule."""
    resid_vec = a.matvec(x, flops) - b
    if flops is not None:
        flops.add(a.m)
    resid = _norm(resid_vec, flops)
    x_norm = _norm(x, flops)
    if _overflowed(resid, x_norm):
        return OVERFLOW, resid
    if x_norm == 0.0:
        # Only a zero rhs legitimately stops at the origin (resid is ||b|| here).
        return CONVERGED if resid <= eps * _norm(b, flops) else None, resid
    return CONVERGED if resid <= eps * math.sqrt(a.frob_sq) * x_norm else None, resid


def rek_termination_check(a, b, x, z, eps, flops=None):
    """Both REK inequalities against the current (x, z).

    Residual is measured against b - z, the running estimate of the range
    component of b; A^T z measures how far z still is from b_perp.
    """
    bz = b - z
    if flops is not None:
        flops.add(a.m)
    resid = _norm(a.matvec(x, flops) - bz, flops)
    if flops is not None:
        flops.add(a.m)
    atz = _norm(a.rmatvec(z, flops), flops)
    x_norm = _norm(x, flops)
    if _overflowed(resid, atz, x_norm):
        return OVERFLOW, resid, atz
    if x_norm == 0.0:
        # Degenerate rule: converged at the origin only if b - z has
        # (relatively) nothing left for x to explain.
        b_norm = _norm(b, flops)
        if _overflowed(b_norm):
            return OVERFLOW, resid, atz
        return CONVERGED if _norm(bz, flops) <= eps * b_norm else None, resid, atz
    frob = math.sqrt(a.frob_sq)
    ok = resid <= eps * frob * x_norm and atz <= eps * a.frob_sq * x_norm
    return CONVERGED if ok else None, resid, atz


# ----------------------------------------------------------------------
# runners


def _validated_rhs(a, b):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.m,):
        raise DimensionMismatchError(
            "rhs must have length %d, got shape %r" % (a.m, b.shape)
        )
    if not np.isfinite(b).all():
        raise NonFiniteError("rhs entries must be finite")
    return b


def run_rop(a, b, config=None):
    """Drive z from b toward b_perp by random column projections."""
    config = config or SolverConfig(solver=ROP)
    b = _validated_rhs(a, b)
    eps, cap, interval = config.resolved(a.m, a.n)
    rng = RngStream.derived(config.seed, COL_STREAM_SALT)
    table = col_sampler(a)
    z = b.copy()
    flops = FlopCounter()
    check_flops = FlopCounter()
    iters = 0
    reason = MAX_ITERS
    atz = None
    start = time.perf_counter()
    while iters < cap:
        block = min(interval, cap - iters)
        for j in sample_block(table, rng, block).tolist():
            rop_step(a, z, j, flops)
        iters += block
        outcome, atz = rop_termination_check(a, z, eps, check_flops)
        if outcome:
            reason = outcome
            break
    wall = time.perf_counter() - start
    return SolveReport(
        x=None,
        z=z,
        iters=iters,
        flops=flops.count,
        check_flops=check_flops.count,
        termination=reason,
        residual_norm=None,
        atz_norm=atz,
        wall_time=wall,
    )


def run_rk(a, b, config=None):
    """Randomized Kaczmarz from x = 0."""
    config = config or SolverConfig(solver=RK)
    b = _validated_rhs(a, b)
    eps, cap, interval = config.resolved(a.m, a.n)
    rng = RngStream.derived(config.seed, ROW_STREAM_SALT)
    table = row_sampler(a)
    x = np.zeros(a.n)
    flops = FlopCounter()
    check_flops = FlopCounter()
    iters = 0
    reason = MAX_ITERS
    resid = None
    start = time.perf_counter()
    while iters < cap:
        block = min(interval, cap - iters)
        for i in sample_block(table, rng, block).tolist():
            rk_step(a, x, i, b[i], flops)
        iters += block
        outcome, resid = rk_termination_check(a, b, x, eps, check_flops)
        if outcome:
            reason = outcome
            break
    wall = time.perf_counter() - start
    return SolveReport(
        x=x,
        z=None,
        iters=iters,
        flops=flops.count,
        check_flops=check_flops.count,
        termination=reason,
        residual_norm=resid,
        atz_norm=None,
        wall_time=wall,
    )


def run_rek(a, b, config=None):
    """Randomized extended Kaczmarz from x = 0, z = b."""
    config = config or SolverConfig()
    b = _validated_rhs(a, b)
    eps, cap, interval = config.resolved(a.m, a.n)
    row_rng = RngStream.derived(config.seed, ROW_STREAM_SALT)
    col_rng = RngStream.derived(config.seed, COL_STREAM_SALT)
    row_table = row_sampler(a)
    col_table = col_sampler(a)
    use_updated = config.rek_use_updated_z
    x = np.zeros(a.n)
    z = b.copy()
    flops = FlopCounter()
    check_flops = FlopCounter()
    iters = 0
    reason = MAX_ITERS
    resid = atz = None
    start = time.perf_counter()
    while iters < cap:
        block = min(interval, cap - iters)
        rows = sample_block(row_table, row_rng, block)
        cols = sample_block(col_table, col_rng, block)
        for i, j in zip(rows.tolist(), cols.tolist()):
            rek_iteration(a, b, x, z, i, j, flops, use_updated)
        iters += block
        outcome, resid, atz = rek_termination_check(a, b, x, z, eps, check_flops)
        if outcome:
            reason = outcome
            break
    wall = time.perf_counter() - start
    return SolveReport(
        x=x,
        z=z,
        iters=iters,
        flops=flops.count,
        check_flops=check_flops.count,
        termination=reason,
        residual_norm=resid,
        atz_norm=atz,
        wall_time=wall,
    )


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
