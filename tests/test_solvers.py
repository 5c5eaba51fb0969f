"""Projection kernels, runners, and closed-form bound evaluation.

Single steps are compared against a plain dense-numpy restatement of the
same projection. Runner behavior (termination bookkeeping, flop counts,
determinism) is pinned exactly.
"""

import math

import numpy as np
import pytest

from kaczmarz.errors import DimensionMismatchError, InvalidRangeError, NonFiniteError
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix, FlopCounter
from kaczmarz.reference import min_norm_solve, projector_residual
from kaczmarz.solvers import (
    CONVERGED,
    MAX_ITERS,
    OVERFLOW,
    REK,
    RK,
    ROP,
    SolverConfig,
    rek_iteration,
    rek_termination_check,
    rk_step,
    rk_termination_check,
    rop_step,
    rop_termination_check,
    run_rek,
    solve,
    theory_bounds,
)

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


def test_rek_iteration_uses_pre_update_z(small_instance):
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
    rek_iteration(a, b, x, z, i, j)
    np.testing.assert_allclose(z, z_want, atol=32 * EPS * np.linalg.norm(z0), rtol=0)
    np.testing.assert_allclose(x, x_want, atol=32 * EPS * max(np.linalg.norm(x0), 1), rtol=0)

    # variant: same column step, row target reads the updated z_i
    x2, z2 = x0.copy(), z0.copy()
    rek_iteration(a, b, x2, z2, i, j, use_updated_z=True)
    x_want2 = x0 + (b[i] - z_want[i] - row @ x0) / (row @ row) * row
    np.testing.assert_allclose(x2, x_want2, atol=32 * EPS * max(np.linalg.norm(x0), 1), rtol=0)
    assert not np.array_equal(x, x2)
    np.testing.assert_array_equal(z, z2)


def test_zero_norm_lines_raise():
    a = DualSparseMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ZeroDivisionError):
        rk_step(a, np.zeros(2), 1, 1.0)
    at = DualSparseMatrix.from_dense(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ZeroDivisionError):
        rop_step(at, np.zeros(2), 1)
    with pytest.raises(ZeroDivisionError):
        rek_iteration(a, np.ones(2), np.zeros(2), np.ones(2), 1, 0)


def test_termination_check_degenerate_rules():
    a = DualSparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
    b = np.array([1.0, 2.0, 3.0])
    eps = 1e-8
    # x = 0 with nonzero rhs is not converged
    ok, _ = rk_termination_check(a, b, np.zeros(2), eps)
    assert not ok
    # x = 0 with zero rhs is the answer
    ok, _ = rk_termination_check(a, np.zeros(3), np.zeros(2), eps)
    assert ok
    # z = 0 is already the orthogonal-complement limit
    ok, _ = rop_termination_check(a, np.zeros(3), eps)
    assert ok
    ok, _, _ = rek_termination_check(a, b, np.zeros(2), b.copy(), eps)
    assert ok  # b - z = 0 leaves nothing for x to explain
    ok, _, _ = rek_termination_check(a, b, np.zeros(2), np.zeros(3), eps)
    assert not ok


@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_overflow_is_not_convergence(solver):
    # inf <= eps * frob * inf is True; the checks must call it overflow instead
    a, b, _ = generate(InstanceSpec(kind="dense", m=30, n=10, seed=1))
    with pytest.warns(RuntimeWarning, match="overflow"):
        rep = solve(a, b * 1e300, SolverConfig(solver=solver, seed=0))
    assert rep.termination == OVERFLOW and not rep.converged
    assert rep.iters == 80  # stopped at the first check (interval 8 * min(m, n))
    norm = rep.atz_norm if solver == ROP else rep.residual_norm
    assert not math.isfinite(norm)


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
