"""Acceptance battery: one test per shipped guarantee.

Each test prints a single summary line on success (visible under -rA or -s),
and pytest -v itself gives the per-criterion pass/fail verdict. Tolerances
are pinned here, not computed from observed behavior; statistical checks use
fixed seeds so the battery is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from kaczmarz.cli import main as cli_main
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.reference import min_norm_solve
from kaczmarz.sampling import (
    ROW_STREAM_SALT,
    RngStream,
    build_alias_table,
    reconstructed_mass,
    row_sampler,
    sample_block,
)
from kaczmarz.solvers import REK, SolverConfig, solve, theory_bounds
from kaczmarz.verify import (
    rek_checkpoint_errors,
    rk_checkpoint_errors,
    rk_one_step_expectation,
    rop_checkpoint_errors,
    rop_one_step_expectation,
)

from helpers import projector_residual, read_csv

EPS = np.finfo(np.float64).eps
ENVELOPE_SLACK = 1.5


def rank_deficient_instance(seed, m, n, r):
    """Dense rank-r matrix from a Gaussian factor product, with random rhs."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return DualSparseMatrix.from_dense(dense), rng.standard_normal(m)


def stalled_consistent_instance(seed, m=30, n=20, tail=3e-3):
    """Consistent full-rank instance whose error barely moves in 1e4 steps.

    The first left singular vector is flat (so every row carries the same
    share of the dominant direction and row norms are comparable), the other
    nineteen singular values sit at `tail`, and the planted solution lives
    entirely in the slow right-singular span. Row projections then shrink
    the error at rate roughly 1 - tail^2 * m per step.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m))
    g[:, 0] = rng.choice([-1.0, 1.0], size=m) / math.sqrt(m)
    u, _ = np.linalg.qr(g)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.full(n, tail)
    sigma[0] = 1.0
    dense = (u[:, :n] * sigma) @ v.T
    coeffs = rng.standard_normal(n - 1)
    planted = v[:, 1:] @ (coeffs / np.linalg.norm(coeffs))
    b = dense @ planted
    return dense, b, planted


# ----------------------------------------------------------------------


def test_criterion_01_forward_accuracy_across_ensembles():
    """Converged solves land within eps*kappa_F*(1+kappa_F) of the oracle."""
    specs = []
    for i in range(7):
        m = 500 if i == 6 else 80 + 20 * i
        n = 200 if i == 6 else 20 + 5 * i
        specs.append(InstanceSpec(kind="dense", m=m, n=n, seed=100 + i,
                                  consistent=(i % 2 == 0)))
    for i in range(7):
        specs.append(InstanceSpec(kind="sparse", m=120 + 30 * i, n=30 + 8 * i,
                                  density=0.15 + 0.02 * i, seed=200 + i,
                                  consistent=(i % 2 == 1)))
    for i in range(4):
        specs.append(InstanceSpec(kind="illcond", m=40 + 10 * i, n=10 + 2 * i,
                                  cond_target=10.0 ** (3 + i % 2), seed=300 + i))

    eps = 1e-10
    start = time.perf_counter()
    worst = 0.0
    count = 0

    def check_one(a, b, seed):
        nonlocal worst, count
        ref = min_norm_solve(a, b)
        rep = solve(a, b, SolverConfig(eps=eps, seed=seed, solver=REK))
        assert rep.converged, "instance %d did not converge" % count
        kappa_f = math.sqrt(ref.kappa_f_sq)
        bound = eps * kappa_f * (1.0 + kappa_f) * (1.0 + 1e-6)
        rel = float(np.linalg.norm(rep.x - ref.x_ls) / np.linalg.norm(ref.x_ls))
        assert rel <= bound, "relative error %.3e above bound %.3e" % (rel, bound)
        worst = max(worst, rel / bound)
        count += 1

    for k, spec in enumerate(specs):
        a, b, _ = generate(spec)
        check_one(a, b, seed=k)
    for r in (8, 12):
        a, b = rank_deficient_instance(4242 + r, 90, 30, r)
        check_one(a, b, seed=r)

    elapsed = time.perf_counter() - start
    assert count == 20
    assert elapsed < 60.0, "accuracy sweep took %.1fs" % elapsed
    print("criterion 01 PASS: 20/20 converged within bound, "
          "worst margin %.3f, %.1fs" % (worst, elapsed))


def test_criterion_02_rek_error_envelope():
    """Mean squared REK error stays under the closed-form envelope."""
    a, b, _ = generate(InstanceSpec(kind="dense", m=120, n=40, seed=11))
    ref = min_norm_solve(a, b)
    tb = theory_bounds(ref, eps=1e-6)
    checkpoints = [int(round(c * ref.kappa_f_sq)) for c in (2, 4, 8)]
    acc = np.zeros(len(checkpoints))
    reps = 200
    for s in range(reps):
        acc += rek_checkpoint_errors(a, b, ref.x_ls, checkpoints, seed=s)
    means = acc / reps
    ratios = []
    for t, mean in zip(checkpoints, means):
        envelope = tb.rek_envelope(t)
        assert mean <= ENVELOPE_SLACK * envelope, (
            "mean %.3e above %.1fx envelope %.3e at t=%d"
            % (mean, ENVELOPE_SLACK, envelope, t)
        )
        ratios.append(mean / envelope)
    print("criterion 02 PASS: envelope ratios %s at t=%s"
          % (["%.4f" % r for r in ratios], checkpoints))


def test_criterion_03_rk_envelope_consistent():
    """On a consistent system RK contracts at the expected per-step rate."""
    a, b, _ = generate(InstanceSpec(kind="dense", m=120, n=40, consistent=True, seed=12))
    ref = min_norm_solve(a, b)
    tb = theory_bounds(ref, eps=1e-6)
    x_ls_sq = float(ref.x_ls @ ref.x_ls)
    checkpoints = [int(round(c * ref.kappa_f_sq)) for c in (2, 4, 8)]
    acc = np.zeros(len(checkpoints))
    reps = 200
    for s in range(reps):
        acc += rk_checkpoint_errors(a, b, ref.x_ls, checkpoints, seed=s)
    means = acc / reps
    ratios = []
    for t, mean in zip(checkpoints, means):
        bound = tb.rk_rate**t * x_ls_sq
        assert mean <= ENVELOPE_SLACK * bound
        ratios.append(mean / bound)
    print("criterion 03 PASS: decay ratios %s" % (["%.4f" % r for r in ratios],))


def test_criterion_04_rk_noisy_floor():
    """With noise on a full-rank consistent system, RK settles at the
    rate^k * ||x*||^2 + ||w||^2 / sigma_min^2 level."""
    a, b, planted = generate(
        InstanceSpec(kind="dense", m=100, n=20, consistent=True,
                     noise_scale=1e-3, seed=13)
    )
    ref = min_norm_solve(a, b)
    assert ref.rank == 20
    tb = theory_bounds(ref, eps=1e-6)
    w = b - a.matvec(planted)
    sigma_min_sq = float(ref.singular_values[ref.rank - 1]) ** 2
    k = int(round(10 * ref.kappa_f_sq))
    reps = 200
    total = 0.0
    for s in range(reps):
        total += rk_checkpoint_errors(a, b, planted, [k], seed=s)[0]
    mean = total / reps
    bound = tb.rk_rate**k * float(planted @ planted) + float(w @ w) / sigma_min_sq
    assert mean <= ENVELOPE_SLACK * bound
    print("criterion 04 PASS: noisy-floor ratio %.3f at k=%d" % (mean / bound, k))


def test_criterion_05_rop_rate():
    """Column projections drive z toward b_perp at the same rate."""
    a, b, _ = generate(InstanceSpec(kind="dense", m=100, n=30, seed=14))
    ref = min_norm_solve(a, b)
    tb = theory_bounds(ref, eps=1e-6)
    b_range_sq = float(ref.b_range @ ref.b_range)
    checkpoints = [int(round(c * ref.kappa_f_sq)) for c in (2, 4)]
    acc = np.zeros(len(checkpoints))
    reps = 200
    for s in range(reps):
        acc += rop_checkpoint_errors(a, b, ref.b_perp, checkpoints, seed=s)
    means = acc / reps
    ratios = []
    for t, mean in zip(checkpoints, means):
        bound = tb.rop_rate**t * b_range_sq
        assert mean <= ENVELOPE_SLACK * bound
        ratios.append(mean / bound)
    print("criterion 05 PASS: range-kill ratios %s" % (["%.4f" % r for r in ratios],))


def test_criterion_06_one_step_expected_contraction():
    """Exact enumeration of one step contracts by at least 1 - 1/kappa_F^2."""
    worst = 0.0
    for trial in range(5):
        kind = ("dense", "sparse", "dense", "sparse", "dense")[trial]
        a, b0, _ = generate(
            InstanceSpec(kind=kind, m=12, n=6, density=0.5, seed=40 + trial)
        )
        rng = np.random.default_rng(1000 + trial)
        ref0 = min_norm_solve(a, b0)
        rate = 1.0 - 1.0 / ref0.kappa_f_sq

        # row side needs a consistent rhs and a row-space error
        b = ref0.b_range
        ref = min_norm_solve(a, b)
        x = ref.x_ls + ref.row_basis @ rng.standard_normal(ref.rank)
        err_sq = float((x - ref.x_ls) @ (x - ref.x_ls))
        expected = rk_one_step_expectation(a, b, x, ref.x_ls)
        tol = 1e-12 * max(err_sq, 1.0)
        assert expected <= rate * err_sq + tol
        worst = max(worst, expected / (rate * err_sq))

        # column side works for any rhs; start z at b_perp plus a range part
        z = ref0.b_perp + a.matvec(rng.standard_normal(a.n))
        zerr_sq = float((z - ref0.b_perp) @ (z - ref0.b_perp))
        expected_z = rop_one_step_expectation(a, z, ref0.b_perp)
        assert expected_z <= rate * zerr_sq + 1e-12 * max(zerr_sq, 1.0)
        worst = max(worst, expected_z / (rate * zerr_sq))
    print("criterion 06 PASS: worst expectation/bound ratio %.6f" % worst)


def test_criterion_07_step_orthogonality_and_pythagoras():
    """Each row projection step is orthogonal to the remaining error.

    The step vector is formed as alpha * a_i, the update exactly as applied;
    differencing stored iterates instead would measure nothing but rounding
    noise whenever a row repeats immediately. The instance is built so the
    run neither converges nor lets row norms skew the sampled directions.
    The reference point is the planted solution: the rhs was computed from
    it directly, so it satisfies the hyperplane equations to rounding, which
    is exactly what the identity needs.
    """
    dense, b, planted = stalled_consistent_instance(20250813)
    a = DualSparseMatrix.from_dense(dense)
    ref = min_norm_solve(a, b)
    assert ref.rank == 20
    assert float(np.linalg.norm(ref.x_ls - planted)) <= 1e-10  # oracle agrees

    steps = 10_000
    rng = RngStream.derived(5150, ROW_STREAM_SALT)
    rows = sample_block(row_sampler(a), rng, steps)
    x = np.zeros(a.n)
    worst_orth = 0.0
    worst_pyth = 0.0
    for i in rows.tolist():
        diff_prev = x - planted
        prev_sq = float(diff_prev @ diff_prev)
        alpha = (b[i] - a.row_dot(i, x)) / float(a.row_sq_norms[i])
        step = alpha * dense[i]
        a.row_axpy(i, alpha, x)
        d1 = x - planted
        n1_sq = float(d1 @ d1)
        n2_sq = float(step @ step)
        orth = abs(float(d1 @ step))
        orth_tol = 32.0 * EPS * math.sqrt(n1_sq) * math.sqrt(n2_sq)
        assert orth <= orth_tol, "orthogonality defect %.3e > %.3e" % (orth, orth_tol)
        pyth = abs(prev_sq - n1_sq - n2_sq)
        pyth_tol = 32.0 * EPS * prev_sq
        assert pyth <= pyth_tol, "pythagoras defect %.3e > %.3e" % (pyth, pyth_tol)
        if orth_tol > 0.0:
            worst_orth = max(worst_orth, orth / orth_tol)
        worst_pyth = max(worst_pyth, pyth / pyth_tol)
    end_err = float(np.linalg.norm(x - planted))
    assert end_err > 0.5  # the run really did stall rather than converge
    print("criterion 07 PASS: worst orthogonality %.2f and pythagoras %.2f "
          "of tolerance over %d steps (end error %.3f)"
          % (worst_orth, worst_pyth, steps, end_err))


def test_criterion_08_iteration_bound():
    """At least 1-delta of runs converge within ceil(t_star) iterations."""
    a, b, _ = generate(InstanceSpec(kind="dense", m=100, n=30, seed=15))
    ref = min_norm_solve(a, b)
    eps, delta = 1e-6, 0.1
    cap = math.ceil(theory_bounds(ref, eps, delta).t_star)
    reps = 100
    hits = 0
    worst_iters = 0
    for s in range(reps):
        rep = solve(a, b, SolverConfig(eps=eps, max_iters=cap, seed=s, solver=REK))
        if rep.converged:
            hits += 1
            worst_iters = max(worst_iters, rep.iters)
    need = math.ceil((1.0 - delta) * reps)
    assert hits >= need, "only %d/%d runs converged within %d" % (hits, reps, cap)
    print("criterion 08 PASS: %d/%d converged within cap %d (slowest %d)"
          % (hits, reps, cap, worst_iters))


def test_criterion_09_flop_model():
    """Booked work matches the per-iteration cost model."""
    # dense: every row has n entries and every column m, so the count is exact
    a, b, _ = generate(InstanceSpec(kind="dense", m=40, n=16, seed=16))
    iters = 2000
    rep = solve(a, b, SolverConfig(eps=1e-300, max_iters=iters, seed=1))
    dense_model = (4 * (a.m + a.n) + 2) * iters
    assert rep.flops == dense_model

    # sparse: compare the achieved mean against the sampled expectation
    a2, b2, _ = generate(InstanceSpec(kind="sparse", m=200, n=80, density=0.2, seed=17))
    q = a2.row_sq_norms / a2.frob_sq
    p = a2.col_sq_norms / a2.frob_sq
    expect = 4.0 * (float(q @ np.diff(a2.row_ptr)) + float(p @ np.diff(a2.col_ptr))) + 2.0
    iters2 = 20_000
    rep2 = solve(a2, b2, SolverConfig(eps=1e-300, max_iters=iters2, seed=2))
    achieved = rep2.flops / rep2.iters
    rel = abs(achieved - expect) / expect
    assert rel <= 0.05, "sparse flop mean off by %.2f%%" % (100 * rel)
    print("criterion 09 PASS: dense count exact, sparse mean within %.3f%%"
          % (100 * rel))


def test_criterion_10_sampler_distribution():
    """Alias tables reproduce their weights, both exactly and statistically."""
    rng = np.random.default_rng(99)
    for size in (2, 17, 100, 513):
        w = rng.uniform(0.0, 1.0, size=size)
        w[rng.integers(size)] = 0.0
        if w.sum() == 0.0:
            w[0] = 1.0
        table = build_alias_table(w)
        np.testing.assert_allclose(
            reconstructed_mass(table), w / w.sum(), atol=4.0 * size * EPS, rtol=0
        )

    weights = np.random.default_rng(99).uniform(0.1, 1.0, size=100)
    table = build_alias_table(weights)
    probs = weights / weights.sum()
    draws = 100_000
    fails = 0
    worst_p = 1.0
    for s in range(100):
        idx = sample_block(table, RngStream(s), draws)
        counts = np.bincount(idx, minlength=100)
        stat = float((((counts - draws * probs) ** 2) / (draws * probs)).sum())
        pval = float(chi2.sf(stat, df=99))
        worst_p = min(worst_p, pval)
        if pval < 1e-3:
            fails += 1
    assert fails <= 1, "%d/100 seeds failed the 1e-3 goodness-of-fit test" % fails
    print("criterion 10 PASS: %d/100 chi-square rejections (worst p %.2e)"
          % (fails, worst_p))


def test_criterion_11_oracle_invariants():
    """Structural identities of the direct solver hold on every ensemble."""
    slack = 1.0 + 1e-12
    checked = 0
    for kind in ("dense", "sparse", "illcond"):
        for seed in range(4):
            a, b, _ = generate(
                InstanceSpec(kind=kind, m=24, n=10, density=0.4,
                             cond_target=1e4, seed=500 + seed)
            )
            ref = min_norm_solve(a, b)
            scale = float(np.linalg.norm(b))
            # rhs splits orthogonally and exactly
            np.testing.assert_allclose(
                ref.b_range + ref.b_perp, b, atol=64 * EPS * scale, rtol=0
            )
            assert abs(float(ref.b_range @ ref.b_perp)) <= 64 * EPS * scale**2
            # b_perp is invisible to the column space
            atb = a.rmatvec(ref.b_perp)
            assert float(np.linalg.norm(atb)) <= 1e3 * EPS * scale * math.sqrt(a.frob_sq)
            # the solution never leaves the row space
            x_scale = max(float(np.linalg.norm(ref.x_ls)), 1e-300)
            assert projector_residual(ref, ref.x_ls) <= 128 * EPS * x_scale
            # condition-number sandwich
            assert ref.cond_sq <= ref.kappa_f_sq * slack
            assert ref.kappa_f_sq <= ref.rank * ref.cond_sq * slack
            checked += 1

    # minimality against a null-space shift on a genuinely rank-deficient case
    a, b = rank_deficient_instance(777, 20, 12, 5)
    ref = min_norm_solve(a, b)
    assert ref.rank == 5
    rng = np.random.default_rng(778)
    null = rng.standard_normal(12)
    null -= ref.row_basis @ (ref.row_basis.T @ null)
    dense = a.to_dense()
    r_min = float(np.linalg.norm(dense @ ref.x_ls - b))
    r_shift = float(np.linalg.norm(dense @ (ref.x_ls + null) - b))
    assert r_shift == pytest.approx(r_min, rel=1e-9)
    assert np.linalg.norm(ref.x_ls + null) > np.linalg.norm(ref.x_ls)
    print("criterion 11 PASS: invariants held on %d instances plus "
          "rank-deficient minimality" % checked)


def test_criterion_12_bench_reproducibility(tmp_path, capsys):
    """The benchmark path is deterministic apart from measured wall time."""
    csv1, csv2 = str(tmp_path / "b1.csv"), str(tmp_path / "b2.csv")
    argv = ["bench", "--kind", "sparse", "--m", "30", "--n", "12",
            "--density", "0.3", "--consistent", "true", "--reps", "3",
            "--solver", "rek,rk,rop", "--eps", "1e-8", "--seed", "21", "--csv"]
    assert cli_main(argv + [csv1]) == 0
    assert cli_main(argv + [csv2]) == 0
    capsys.readouterr()

    rows1, rows2 = read_csv(csv1), read_csv(csv2)
    assert len(rows1) == 9 and len(rows2) == 9
    stripped1 = [{k: v for k, v in r.items() if k != "wall_time"} for r in rows1]
    stripped2 = [{k: v for k, v in r.items() if k != "wall_time"} for r in rows2]
    assert stripped1 == stripped2
    # on a consistent rhs the two x-producing solvers must converge; the
    # z-only solver legitimately runs out its cap (its target there is 0)
    assert all(r["converged"] == "true" for r in rows1 if r["solver"] in ("rek", "rk"))
    print("criterion 12 PASS: 9 rows byte-stable apart from wall_time")
