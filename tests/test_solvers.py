"""Projection kernels, runners, and closed-form bound evaluation.

Single steps are compared against a plain dense-numpy restatement of the
same projection. Runner behavior (termination bookkeeping, flop counts,
determinism) is pinned exactly. The compiled block kernels are compared
against the per-step loop they replace, which is also their fallback.
"""

import dataclasses
import hashlib
import logging
import math
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kaczmarz import _blocks
from kaczmarz.errors import DimensionMismatchError, InvalidRangeError, NonFiniteError
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.reference import min_norm_solve
from kaczmarz.sampling import (
    COL_STREAM_SALT,
    ROW_STREAM_SALT,
    RngStream,
    col_sampler,
    row_sampler,
    sample_block,
)
from kaczmarz.solvers import (
    CONVERGED,
    MAX_ITERS,
    OVERFLOW,
    REK,
    RK,
    ROP,
    SolverConfig,
    _bind,
    block_steps,
    rek_termination_check,
    rk_step,
    rk_termination_check,
    rop_step,
    rop_termination_check,
    run_rek,
    solve,
    theory_bounds,
    trajectory,
)
from kaczmarz.verify import rek_checkpoint_errors, rk_checkpoint_errors, rop_checkpoint_errors

from helpers import projector_residual

try:
    from numpy._core import _internal as np_internal
except ImportError:  # numpy < 2
    from numpy.core import _internal as np_internal

EPS = np.finfo(np.float64).eps


@pytest.fixture
def small_instance():
    rng = np.random.default_rng(100)
    dense = rng.standard_normal((7, 4))
    return dense, DualSparseMatrix.from_dense(dense), rng.standard_normal(7)


def test_rop_step_matches_dense_projection(small_instance):
    dense, a, b = small_instance
    rng = np.random.default_rng(1)
    z = rng.standard_normal(7)
    for j in range(4):
        col = dense[:, j]
        want = z - (col @ z) / (col @ col) * col
        got = z.copy()
        rop_step(a, got, j)
        np.testing.assert_allclose(got, want, atol=32 * EPS * np.linalg.norm(z), rtol=0)
        # the projected coordinate direction is annihilated
        assert abs(col @ got) <= 32 * EPS * np.linalg.norm(col) * np.linalg.norm(z)


def test_rk_step_matches_dense_projection(small_instance):
    dense, a, b = small_instance
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4)
    for i in range(7):
        row = dense[i]
        want = x + (b[i] - row @ x) / (row @ row) * row
        got = x.copy()
        rk_step(a, got, i, b[i])
        np.testing.assert_allclose(got, want, atol=32 * EPS * max(np.linalg.norm(x), 1), rtol=0)
        # after the step the hyperplane constraint holds
        assert abs(a.row_dot(i, got) - b[i]) <= 64 * EPS * np.linalg.norm(row) * np.linalg.norm(got)


def test_rek_step_uses_pre_update_z(small_instance, kernels):
    dense, a, b = small_instance
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(4)
    z0 = rng.standard_normal(7)
    i, j = 2, 1
    assert dense[i, j] != 0.0  # column step really moves z_i

    col = dense[:, j]
    row = dense[i]
    z_want = z0 - (col @ z0) / (col @ col) * col
    # default: the row target uses z_i from before the column step
    x_want = x0 + (b[i] - z0[i] - row @ x0) / (row @ row) * row

    x, z = x0.copy(), z0.copy()
    block_steps(a, b, x, z, [i], [j])
    np.testing.assert_allclose(z, z_want, atol=32 * EPS * np.linalg.norm(z0), rtol=0)
    np.testing.assert_allclose(x, x_want, atol=32 * EPS * max(np.linalg.norm(x0), 1), rtol=0)


def test_zero_norm_lines_raise():
    a = DualSparseMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ZeroDivisionError):
        rk_step(a, np.zeros(2), 1, 1.0)
    at = DualSparseMatrix.from_dense(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ZeroDivisionError):
        rop_step(at, np.zeros(2), 1)


_CHECK_A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])


def _rek_check(a, b, x, z, eps):
    return rek_termination_check(a, _bind(a, b, x, z)[1], eps)


def _rk_check(a, b, x, eps):
    return rk_termination_check(a, _bind(a, b, x, None)[1], eps)


def _rop_check(a, z, eps):
    return rop_termination_check(a, _bind(a, None, None, z)[1], eps)


def test_termination_check_degenerate_rules():
    a = DualSparseMatrix.from_dense(_CHECK_A)
    b = np.array([1.0, 2.0, 3.0])
    eps = 1e-8
    # x = 0 with nonzero rhs is not converged
    ok, _, atz, _ = _rk_check(a, b, np.zeros(2), eps)
    assert not ok and atz is None  # RK has no z
    # x = 0 with zero rhs is the answer
    ok, _, _, _ = _rk_check(a, np.zeros(3), np.zeros(2), eps)
    assert ok
    # z = 0 is already the orthogonal-complement limit
    ok, resid, _, _ = _rop_check(a, np.zeros(3), eps)
    assert ok and resid is None  # ROP has no x
    ok, _, _, _ = _rek_check(a, b, np.zeros(2), b.copy(), eps)
    assert ok  # b - z = 0 leaves nothing for x to explain
    ok, _, _, _ = _rek_check(a, b, np.zeros(2), np.zeros(3), eps)
    assert not ok


def test_termination_checks_book_their_flops_in_every_branch(kernels):
    # nnz 4, m 3, n 2: ROP 2nnz+2m+2n, RK 2nnz+3m+2n (+2m at x = 0),
    # REK 4nnz+4m+4n (+4m at x = 0, +2m when ||b|| overflows there)
    a = DualSparseMatrix.from_dense(_CHECK_A)
    b, x, eps = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0]), 1e-8
    zero = np.zeros(2)
    assert _rop_check(a, b, eps)[-1] == 18
    assert _rk_check(a, b, x, eps)[-1] == 21
    assert _rk_check(a, b, zero, eps)[-1] == 27
    assert _rek_check(a, b, x, b / 2, eps)[-1] == 36
    assert _rek_check(a, b, zero, b / 2, eps)[-1] == 48

    # overflowing norms stop a check early, before the x = 0 rule
    huge = np.array([1.0, 0.5, -1.0]) * 1e200  # orthogonal to A's columns
    np.testing.assert_array_equal(_CHECK_A.T @ huge, zero)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the fallback's numpy sums
        outcome, _, _, cost = _rk_check(a, huge, zero, eps)
        assert (outcome, cost) == (OVERFLOW, 21)
        # b - z = 0 and A^T z = 0 are finite, ||b||^2 is not
        outcome, resid, atz, cost = _rek_check(a, huge, zero, huge.copy(), eps)
        assert (outcome, resid, atz, cost) == (OVERFLOW, 0.0, 0.0, 42)


def test_bound_checks_follow_in_place_updates(kernels):
    # the runners bind the check sums once and keep updating x and z in place
    a, b, _ = generate(InstanceSpec(kind="sparse", m=40, n=12, density=0.3, seed=4))
    x, z = np.zeros(a.n), b.copy()
    rek_sums, rk_sums = _bind(a, b, x, z)[1], _bind(a, b, x, None)[1]
    rop_sums = _bind(a, b, None, z)[1]
    rng = np.random.default_rng(1)
    for _ in range(3):
        x[:] = rng.standard_normal(a.n)
        z[:] = rng.standard_normal(a.m)
        for eps in (1e-8, 10.0):
            # sums bound before the updates read what freshly bound ones do
            assert rek_termination_check(a, rek_sums, eps) == _rek_check(a, b, x, z, eps)
            assert rk_termination_check(a, rk_sums, eps) == _rk_check(a, b, x, eps)
            assert rop_termination_check(a, rop_sums, eps) == _rop_check(a, z, eps)


@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_overflow_is_not_convergence(solver, overflow_warnings):
    # inf <= eps * frob * inf is True; the checks must call it overflow instead
    a, b, _ = generate(InstanceSpec(kind="dense", m=30, n=10, seed=1))
    with overflow_warnings():
        rep = solve(a, b * 1e300, SolverConfig(solver=solver, seed=0))
    assert rep.termination == OVERFLOW and not rep.converged
    assert rep.iters == 80  # stopped at the first check (interval 8 * min(m, n))
    norm = rep.atz_norm if solver == ROP else rep.residual_norm
    assert not math.isfinite(norm)


_SCALED_A, _SCALED_B, _ = generate(InstanceSpec(kind="dense", m=12, n=5, seed=8))


# the patched fallback path holds for every example, as the property intends
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(solver=st.sampled_from([REK, RK, ROP]), a_exp=st.integers(-560, 530),
       b_exp=st.integers(-1074, 1023))
# a subnormal ||A||_F^2 whose zero-norm rows the sampler once picked
@example(solver=RK, a_exp=-536, b_exp=0)
def test_converged_is_never_reported_with_a_non_finite_state(kernels, solver, a_exp, b_exp):
    # power-of-two scales are exact, so only the float64 range limits the run
    base = _SCALED_A
    a = DualSparseMatrix.from_triplets(base.entry_rows(), base.row_cols,
                                       np.ldexp(base.row_vals, a_exp), (base.m, base.n))
    b = np.ldexp(_SCALED_B, b_exp)
    config = SolverConfig(solver=solver, eps=1e-6, max_iters=1200, seed=5)
    if not 0.0 < a.frob_sq < math.inf:
        with pytest.raises(InvalidRangeError, match="rescale A and b"):
            solve(a, b, config)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the fallback's overflowing norms
        rep = solve(a, b, config)
    assert rep.termination in (CONVERGED, MAX_ITERS, OVERFLOW)
    if rep.converged:
        for v in (rep.x, rep.z, rep.residual_norm, rep.atz_norm):
            assert v is None or np.isfinite(v).all()


def _scaled_instance(scale):
    rng = np.random.default_rng(0)
    a = DualSparseMatrix.from_dense(rng.standard_normal((40, 20)) * scale)
    return a, rng.standard_normal(40) * scale


@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_overflowing_frobenius_norm_is_refused(solver):
    # every line norm is finite but ||A||_F^2 is not, so the stopping rule
    # would compare against eps * inf (RK then read `converged` at 160 steps)
    a, b = _scaled_instance(1e153)
    assert np.isfinite(a.row_sq_norms).all() and np.isfinite(a.col_sq_norms).all()
    assert a.frob_sq == math.inf
    with pytest.raises(InvalidRangeError, match="sum of squares .* overflows float64"):
        solve(a, b, SolverConfig(solver=solver, eps=1e-10, seed=0))


@pytest.mark.parametrize("scale, words", [(1e200, "overflows"), (1e-170, "all underflow")])
def test_out_of_scale_matrix_is_refused_with_a_true_message(scale, words):
    a, b = _scaled_instance(scale)
    with pytest.raises(InvalidRangeError, match=words) as info:
        solve(a, b, SolverConfig(eps=1e-10, seed=0))
    largest = "largest |entry| %.3g); rescale A and b" % np.abs(a.row_vals).max()
    assert str(info.value).endswith(largest)
    with pytest.raises(InvalidRangeError, match=words):  # the verify drivers too
        rk_checkpoint_errors(a, b, 0.0, [5], 0)


def test_zero_rhs_converges_at_origin():
    a = generate(InstanceSpec(kind="dense", m=10, n=4, seed=5))[0]
    b = np.zeros(10)
    for solver in (REK, RK, ROP):
        rep = solve(a, b, SolverConfig(solver=solver, seed=1))
        assert rep.converged
        # first check fires after one full block of no-op iterations
        assert rep.iters == 8 * 4
        if rep.x is not None:
            np.testing.assert_array_equal(rep.x, np.zeros(4))


def test_flop_counts_are_exact_on_dense_instances():
    a, b, _ = generate(InstanceSpec(kind="dense", m=30, n=12, seed=6))
    m, n = a.m, a.n
    assert a.nnz == m * n  # gaussian entries, nothing is exactly zero

    rep = solve(a, b, SolverConfig(solver=REK, eps=1e-300, max_iters=500, seed=2))
    assert rep.termination == MAX_ITERS
    assert rep.iters == 500
    assert rep.flops == (4 * (m + n) + 2) * 500

    rep = solve(a, b, SolverConfig(solver=RK, eps=1e-300, max_iters=321, seed=2))
    assert rep.flops == (4 * n + 2) * 321

    rep = solve(a, b, SolverConfig(solver=ROP, eps=1e-300, max_iters=200, seed=2))
    assert rep.flops == (4 * m + 1) * 200

    assert rep.check_flops > 0  # audited separately from iteration work


def test_report_field_conventions():
    a, b, _ = generate(InstanceSpec(kind="dense", m=12, n=5, seed=7))
    rop_rep = solve(a, b, SolverConfig(solver=ROP, max_iters=50, eps=0.5, seed=0))
    assert rop_rep.x is None and rop_rep.residual_norm is None
    assert rop_rep.z is not None and rop_rep.atz_norm is not None
    rk_rep = solve(a, b, SolverConfig(solver=RK, max_iters=50, eps=0.5, seed=0))
    assert rk_rep.z is None and rk_rep.atz_norm is None
    assert rk_rep.x is not None and rk_rep.residual_norm is not None
    rek_rep = solve(a, b, SolverConfig(solver=REK, max_iters=50, eps=0.5, seed=0))
    assert rek_rep.x is not None and rek_rep.z is not None
    assert rek_rep.wall_time >= 0.0
    assert isinstance(rek_rep.flops, int) and isinstance(rek_rep.check_flops, int)


def test_same_seed_same_run_different_seed_different_run():
    a, b, _ = generate(InstanceSpec(kind="sparse", m=40, n=15, density=0.3, seed=8))
    cfg = dict(eps=1e-8, max_iters=5000)
    r1 = solve(a, b, SolverConfig(seed=31, **cfg))
    r2 = solve(a, b, SolverConfig(seed=31, **cfg))
    np.testing.assert_array_equal(r1.x, r2.x)
    np.testing.assert_array_equal(r1.z, r2.z)
    assert r1.iters == r2.iters and r1.flops == r2.flops
    r3 = solve(a, b, SolverConfig(seed=32, **cfg))
    assert not np.array_equal(r1.x, r3.x)


def test_solve_dispatch_matches_direct_runner():
    a, b, _ = generate(InstanceSpec(kind="dense", m=15, n=6, seed=9))
    cfg = SolverConfig(eps=1e-6, max_iters=2000, seed=4, solver=REK)
    via_solve = solve(a, b, cfg)
    direct = run_rek(a, b, SolverConfig(eps=1e-6, max_iters=2000, seed=4, solver=REK))
    np.testing.assert_array_equal(via_solve.x, direct.x)
    assert via_solve.iters == direct.iters


def test_convergence_happens_on_check_boundaries():
    a, b, _ = generate(InstanceSpec(kind="dense", m=20, n=8, consistent=True, seed=10))
    rep = solve(a, b, SolverConfig(eps=1e-10, seed=3, check_interval=64))
    assert rep.converged
    assert rep.iters % 64 == 0


def test_max_iters_cap_and_custom_interval():
    a, b, _ = generate(InstanceSpec(kind="dense", m=20, n=8, seed=11))
    rep = solve(a, b, SolverConfig(eps=1e-300, max_iters=100, check_interval=7, seed=0))
    assert rep.termination == MAX_ITERS and rep.iters == 100
    assert not rep.converged


def test_rek_converges_to_min_norm_solution():
    a, b, _ = generate(InstanceSpec(kind="dense", m=40, n=12, seed=12))
    ref = min_norm_solve(a, b)
    eps = 1e-11
    rep = solve(a, b, SolverConfig(eps=eps, seed=7))
    assert rep.converged
    bound = theory_bounds(ref, eps).forward_err_bound
    rel = np.linalg.norm(rep.x - ref.x_ls) / np.linalg.norm(ref.x_ls)
    assert rel <= bound


def test_rek_iterates_stay_in_row_space():
    # updates are combinations of rows, so null-space leakage is rounding only
    rng = np.random.default_rng(13)
    dense = rng.standard_normal((25, 6)) @ np.diag([1.0] * 3 + [0.0] * 3) @ rng.standard_normal((6, 10))
    a = DualSparseMatrix.from_dense(dense)
    b = rng.standard_normal(25)
    ref = min_norm_solve(a, b)
    assert ref.rank == 3
    rep = solve(a, b, SolverConfig(eps=1e-300, max_iters=4000, seed=5))
    leak = projector_residual(ref, rep.x)
    assert leak <= 64 * EPS * math.sqrt(rep.iters) * max(np.linalg.norm(rep.x), 1.0)


def test_rhs_validation():
    a, b, _ = generate(InstanceSpec(kind="dense", m=10, n=4, seed=14))
    with pytest.raises(DimensionMismatchError):
        solve(a, np.ones(9))
    with pytest.raises(NonFiniteError):
        solve(a, np.full(10, np.inf))


def test_config_validation():
    good = SolverConfig()
    good.validate()
    for bad in (
        SolverConfig(eps=0.0),
        SolverConfig(eps=2.0),
        SolverConfig(eps=-1e-3),
        SolverConfig(max_iters=0),
        SolverConfig(check_interval=0),
        SolverConfig(seed=-1),
        SolverConfig(seed=2**64),
        SolverConfig(solver="cg"),
    ):
        with pytest.raises(InvalidRangeError):
            bad.validate()


def test_resolved_defaults():
    eps, cap, interval = SolverConfig().resolved(50, 20)
    assert eps == 1e-14
    assert interval == 8 * 20
    assert cap == 10**6 * 20
    _, cap2, interval2 = SolverConfig(max_iters=99, check_interval=5).resolved(50, 20)
    assert cap2 == 99 and interval2 == 5


def test_theory_bounds_identity_matrix():
    n = 16
    a = DualSparseMatrix.from_dense(np.eye(n))
    b = np.ones(n)
    ref = min_norm_solve(a, b)
    eps, delta = 1e-6, 0.1
    tb = theory_bounds(ref, eps, delta)
    assert tb.kappa_f_sq == pytest.approx(n, rel=1e-12)
    assert tb.cond_sq == pytest.approx(1.0, rel=1e-12)
    assert tb.rk_rate == pytest.approx(1.0 - 1.0 / n, rel=1e-12)
    log_term = math.log(96.0 / (delta * eps * eps))
    assert tb.t_star == pytest.approx(2 * n * log_term, rel=1e-12)
    assert tb.forward_err_bound == pytest.approx(eps * math.sqrt(n) * (1 + math.sqrt(n)), rel=1e-12)
    assert tb.worst_flops == pytest.approx(10 * (n + n) * n * 1.0 * log_term, rel=1e-12)
    assert tb.expected_flops == pytest.approx(20 * n * 1.0 * log_term, rel=1e-12)
    assert tb.rek_envelope(10) == pytest.approx(tb.rk_rate**5 * 3.0 * n, rel=1e-12)


def test_theory_bounds_rank_one_rate_is_zero():
    u = np.arange(1.0, 7.0)
    v = np.array([2.0, -1.0, 0.5])
    a = DualSparseMatrix.from_dense(np.outer(u, v))
    ref = min_norm_solve(a, np.ones(6))
    tb = theory_bounds(ref, 1e-4)
    assert ref.rank == 1
    assert tb.kappa_f_sq == pytest.approx(1.0, rel=1e-12)
    # exact arithmetic gives rate 0; floating point leaves at most ~eps
    assert 0.0 <= tb.rk_rate < 1e-12
    assert tb.rek_envelope(6) < 1e-30


def test_theory_bounds_argument_ranges():
    a, b, _ = generate(InstanceSpec(kind="dense", m=8, n=3, seed=15))
    ref = min_norm_solve(a, b)
    with pytest.raises(InvalidRangeError):
        theory_bounds(ref, 0.0)
    with pytest.raises(InvalidRangeError):
        theory_bounds(ref, 1e-6, delta=0.0)
    with pytest.raises(InvalidRangeError):
        theory_bounds(ref, 1e-6, delta=1.0)


# ----------------------------------------------------------------------
# compiled block kernels against the per-step loop they replace

BLOCK_SPECS = {
    "dense": InstanceSpec(kind="dense", m=60, n=20, seed=21),
    "sparse": InstanceSpec(kind="sparse", m=80, n=30, density=0.2, seed=22),
    "illcond": InstanceSpec(kind="illcond", m=50, n=20, cond_target=100.0, seed=23),
}


@pytest.fixture
def compiled():
    if _blocks.load() is None:
        pytest.skip("no C compiler: only the per-step path runs here")


def _estimate(report):
    return report.z if report.x is None else report.x


@pytest.mark.parametrize("kind", sorted(BLOCK_SPECS))
@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_compiled_blocks_match_the_per_step_loop(kind, solver, compiled, monkeypatch):
    spec = BLOCK_SPECS[kind]
    # RK only converges on a consistent system; the others take the noisy rhs.
    a, b, _ = generate(dataclasses.replace(spec, consistent=solver == RK))
    config = SolverConfig(solver=solver, eps=1e-10, seed=3)
    fast = solve(a, b, config)
    monkeypatch.setattr(_blocks, "load", lambda: None)  # the per-step loop
    slow = solve(a, b, config)
    assert fast.termination == slow.termination == CONVERGED
    assert (fast.iters, fast.flops, fast.check_flops) == (slow.iters, slow.flops, slow.check_flops)
    got, want = _estimate(fast), _estimate(slow)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_block_flops_follow_the_line_populations_on_sparse_instances(kernels):
    a, b, _ = generate(BLOCK_SPECS["sparse"])
    assert a.nnz < a.m * a.n
    rng = np.random.default_rng(24)
    rows = rng.integers(0, a.m, 500)
    cols = rng.integers(0, a.n, 500)
    # 4 flops per stored entry visited, plus 2 per row step and 1 per ROP step
    row_entries = int(np.diff(a.row_ptr)[rows].sum())
    col_entries = int(np.diff(a.col_ptr)[cols].sum())
    x_blk, z_blk = np.zeros(a.n), b.copy()
    assert block_steps(a, b, x_blk, z_blk, rows, cols) == (
        4 * row_entries + 4 * col_entries + 2 * 500)
    # the iterates of the same draws, one REK step at a time
    x, z = np.zeros(a.n), b.copy()
    for i, j in zip(rows.tolist(), cols.tolist()):
        target = b[i] - z[i]
        rop_step(a, z, j)
        rk_step(a, x, i, target)
    np.testing.assert_allclose(x_blk, x, rtol=0, atol=1e-12 * np.linalg.norm(x))
    np.testing.assert_allclose(z_blk, z, rtol=0, atol=1e-12 * np.linalg.norm(z))
    assert block_steps(a, b, np.zeros(a.n), None, rows, None) == 4 * row_entries + 2 * 500
    assert block_steps(a, None, None, b.copy(), None, cols) == 4 * col_entries + 500


def test_block_steps_refuse_out_of_range_indices(compiled):
    a, b, _ = generate(BLOCK_SPECS["dense"])
    x, z = np.zeros(a.n), b.copy()
    for rows, cols in (([0, a.m], [0, 0]), ([0, 0], [-1, 0])):
        with pytest.raises(IndexError):
            block_steps(a, b, x, z, np.array(rows), np.array(cols))
    for bad in (-1, a.m):
        with pytest.raises(IndexError):
            block_steps(a, b, x, None, np.array([0, bad]), None)
    for bad in (-1, a.n):
        with pytest.raises(IndexError):
            block_steps(a, None, None, z, None, np.array([0, bad]))
    # a refused block leaves the iterates untouched
    np.testing.assert_array_equal(x, np.zeros(a.n))
    np.testing.assert_array_equal(z, b)


def test_strided_rhs_gives_the_same_report_as_its_contiguous_copy():
    a, b, _ = generate(BLOCK_SPECS["sparse"])
    stacked = np.column_stack([b, -b])
    strided = stacked[:, 0]
    assert not strided.flags.c_contiguous
    for solver in (REK, RK, ROP):
        config = SolverConfig(solver=solver, eps=1e-6, max_iters=2000, seed=4)
        got, want = solve(a, strided, config), solve(a, b.copy(), config)
        assert (got.iters, got.flops, got.termination) == (want.iters, want.flops, want.termination)
        np.testing.assert_array_equal(_estimate(got), _estimate(want))
    x_ref = np.zeros(a.n)
    assert rek_checkpoint_errors(a, strided, x_ref, [10, 50], 5) == rek_checkpoint_errors(
        a, b.copy(), x_ref, [10, 50], 5
    )


def test_dense_input_layout_does_not_change_the_trajectory():
    a, b, _ = generate(BLOCK_SPECS["sparse"])
    dense = a.to_dense()
    wide = np.zeros((a.m, 2 * a.n))
    wide[:, ::2] = dense
    layouts = (np.ascontiguousarray(dense), np.asfortranarray(dense), wide[:, ::2])
    assert not layouts[1].flags.c_contiguous and not layouts[2].flags.f_contiguous
    got = []
    for copy in layouts:
        rep = solve(DualSparseMatrix.from_dense(copy), b, SolverConfig(eps=1e-10, seed=2))
        assert rep.termination == CONVERGED
        got.append((rep.iters, _digest(rep.x), _digest(rep.z)))
    assert got[1] == got[0] and got[2] == got[0]


def test_missing_compiler_falls_back_with_unchanged_outputs(
    compiled, monkeypatch, tmp_path, caplog
):
    a, b, _ = generate(BLOCK_SPECS["dense"])
    config = SolverConfig(eps=1e-10, seed=6)
    want = solve(a, b, config)

    monkeypatch.setenv("PATH", str(tmp_path))  # no `cc` to be found
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _blocks.load.cache_clear()
    try:
        with caplog.at_level(logging.INFO, logger=_blocks.__name__):
            got = solve(a, b, config)
            again = solve(a, b, config)
        assert _blocks.load() is None
    finally:
        _blocks.load.cache_clear()
    assert [r.levelno for r in caplog.records] == [logging.INFO]  # logged once, not raised
    assert "unavailable" in caplog.records[0].getMessage()
    assert not [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
    for report in (got, again):
        assert (report.iters, report.flops, report.check_flops, report.termination) == (
            want.iters, want.flops, want.check_flops, want.termination)
        assert np.linalg.norm(report.x - want.x) <= 1e-12 * np.linalg.norm(want.x)


_DIGEST_SCRIPT = """
import hashlib
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.solvers import SolverConfig, solve
for spec in (InstanceSpec(kind="dense", m=200, n=50, seed=3),
             InstanceSpec(kind="sparse", m=300, n=80, density=0.2, seed=1)):
    a, b, _ = generate(spec)
    report = solve(a, b, SolverConfig(eps=1e-10, seed=1))
    print(spec.kind, report.iters, hashlib.sha256(report.x.tobytes()).hexdigest())
    # the stopping decision and the reported norms, for each solver
    for solver in ("rek", "rk", "rop"):
        report = solve(a, b, SolverConfig(solver=solver, eps=1e-10, seed=1, max_iters=20000))
        print(spec.kind, solver, report.iters, report.termination,
              repr(report.residual_norm), repr(report.atz_norm))
"""


def _numpy_uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or not _numpy_uses_openblas(),
    reason="OPENBLAS_CORETYPE selects kernels only in OpenBLAS on x86-64",
)
def test_iterates_do_not_depend_on_the_openblas_kernel(compiled):
    src = os.path.dirname(os.path.dirname(os.path.abspath(_blocks.__file__)))
    outputs = []
    for coretype in (None, "Prescott", "Nehalem"):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 8
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# ----------------------------------------------------------------------
# fixed-seed trajectories: pinned results, and independence of the block split

GOLDEN_SPECS = {
    "dense": InstanceSpec(kind="dense", m=200, n=50, seed=3),
    "sparse": InstanceSpec(kind="sparse", m=300, n=80, density=0.2, seed=1),
}

# (iters, flops, check_flops, termination, sha256 of x bytes, of z bytes),
# digests cut to their first 16 hex digits; None where the solver has no x / z
GOLDEN_RUNS = {
    ("dense", REK): (4400, 4408800, 451000, CONVERGED, "5caa5b567fca2cd1", "78e34538466e5681"),
    ("dense", RK): (20000, 4040000, 1035000, MAX_ITERS, "f378ffeeb5eb903b", None),
    ("dense", ROP): (3600, 2883600, 184500, CONVERGED, None, "126af46ec91a1185"),
    ("sparse", REK): (7040, 2193872, 228668, CONVERGED, "7f277cf985bd23ad", "51b2574aabc81917"),
    ("sparse", RK): (20000, 1408716, 342208, MAX_ITERS, "dfbfcee87351fd75", None),
    ("sparse", ROP): (6400, 1548232, 103940, CONVERGED, None, "6493cd1337dc08df"),
}


def _digest(v):
    return None if v is None else hashlib.sha256(v.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("kind, solver", sorted(GOLDEN_RUNS))
def test_fixed_seed_runs_keep_their_pinned_results(kind, solver, compiled):
    a, b, _ = generate(GOLDEN_SPECS[kind])
    rep = solve(a, b, SolverConfig(solver=solver, eps=1e-10, seed=1, max_iters=20000))
    got = (rep.iters, rep.flops, rep.check_flops, rep.termination, _digest(rep.x), _digest(rep.z))
    assert got == GOLDEN_RUNS[kind, solver]


@pytest.mark.parametrize("t", [10, 50, 400])
@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_checkpoint_drivers_walk_the_runners_trajectory(solver, t):
    # blocks of 3 and t - 3 against the runner's blocks of 7: any split of the
    # same index streams must reach the same iterate, bit for bit
    a, b, _ = generate(BLOCK_SPECS["sparse"])
    driver = {REK: rek_checkpoint_errors, RK: rk_checkpoint_errors, ROP: rop_checkpoint_errors}
    errs = driver[solver](a, b, 0.0, [3, t], 5)
    rep = solve(a, b, SolverConfig(solver=solver, eps=1e-300, max_iters=t, check_interval=7, seed=5))
    assert rep.iters == t
    v = _estimate(rep)
    assert errs[-1] == float(v @ v)


# ----------------------------------------------------------------------
# trajectory binds the compiled calls once per run


def _ctypes_constructions(monkeypatch, run):
    """How many ndarray.ctypes objects `run()` builds: one per address taken that way."""
    count = 0
    init = np_internal._ctypes.__init__

    def counting(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np_internal._ctypes, "__init__", counting)
        run()
    return count


@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_trajectory_takes_no_addresses_per_block(solver, compiled, monkeypatch):
    # addresses are taken when a run starts, on a table's first draw and when
    # an index buffer grows, so 50 blocks take as many as 5
    counts = []
    for blocks in (5, 50):
        a, b, _ = generate(BLOCK_SPECS["sparse"])  # a fresh matrix: its tables unbound
        stops = range(40, 40 * blocks + 1, 40)
        counts.append(_ctypes_constructions(
            monkeypatch, lambda: list(trajectory(a, b, solver, 4, stops))))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_trajectory_refuses_decreasing_stops(solver, kernels):
    a, b, _ = generate(BLOCK_SPECS["dense"])
    run = trajectory(a, b, solver, 0, [10, 5])
    iters, *_ = next(run)
    assert iters == 10
    with pytest.raises(ValueError, match="^stops must not decrease from 0, got 5 after 10$"):
        next(run)


@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_reused_index_buffers_leak_nothing_between_blocks(solver, kernels):
    # blocks of 1, 1, 298, 1 and 899 steps: the buffers grow, then serve
    # smaller blocks than they hold, then grow again
    a, b, _ = generate(BLOCK_SPECS["sparse"])

    def end_of_run(stops):
        *_, (iters, x, z, flops, _) = trajectory(a, b, solver, 9, stops)
        return iters, _digest(x), _digest(z), flops

    x = None if solver == ROP else np.zeros(a.n)
    z = None if solver == RK else b.copy()
    rows = None if x is None else sample_block(
        row_sampler(a), RngStream.derived(9, ROW_STREAM_SALT), 1200)
    cols = None if z is None else sample_block(
        col_sampler(a), RngStream.derived(9, COL_STREAM_SALT), 1200)
    flops = block_steps(a, b, x, z, rows, cols)
    want = (1200, _digest(x), _digest(z), flops)
    assert end_of_run((1, 2, 300, 301, 1200)) == want
    assert end_of_run((1200,)) == want


def test_package_exports_resolve():
    import kaczmarz

    assert "solve" in kaczmarz.__all__ and "KaczmarzError" in kaczmarz.__all__
    assert all(hasattr(kaczmarz, name) for name in kaczmarz.__all__)
