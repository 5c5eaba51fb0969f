"""Direct solver used as the accuracy oracle.

The decomposition itself is checked two independent ways: numpy's lstsq
driver (a different LAPACK path) must produce the same minimum-norm
solution, and the extreme singular values are rederived by power iteration
so the spectral quantities do not merely restate the factorization.
"""

from __future__ import annotations

import numpy as np
import pytest

from kaczmarz.errors import AllZeroMatrixError, DimensionMismatchError, NonFiniteError, TooLargeError
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.reference import (
    MAX_DENSE_ENTRIES,
    min_norm_solve,
    svd_decompose,
)

from helpers import projector_residual

EPS = np.finfo(np.float64).eps


def rank_deficient_dense(rng: np.random.Generator, m: int, n: int, r: int) -> np.ndarray:
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def power_iteration_sigma_max(dense: np.ndarray, iters: int = 2000) -> float:
    gram = dense.T @ dense
    v = np.ones(dense.shape[1]) / np.sqrt(dense.shape[1])
    for _ in range(iters):
        w = gram @ v
        v = w / np.linalg.norm(w)
    return float(np.sqrt(v @ gram @ v))


def test_min_norm_solution_matches_lstsq():
    rng = np.random.default_rng(0)
    for m, n in [(15, 8), (8, 15), (12, 12)]:
        dense = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        ref = min_norm_solve(DualSparseMatrix.from_dense(dense), b)
        want, *_ = np.linalg.lstsq(dense, b, rcond=None)
        np.testing.assert_allclose(ref.x_ls, want, atol=64 * max(m, n) * EPS * np.linalg.norm(want), rtol=0)


def test_rank_deficient_min_norm_and_lstsq_agree():
    rng = np.random.default_rng(1)
    dense = rank_deficient_dense(rng, 20, 12, 5)
    b = rng.standard_normal(20)
    ref = min_norm_solve(DualSparseMatrix.from_dense(dense), b)
    assert ref.rank == 5
    want, *_ = np.linalg.lstsq(dense, b, rcond=None)
    scale = max(np.linalg.norm(want), 1.0)
    np.testing.assert_allclose(ref.x_ls, want, atol=1e-9 * scale, rtol=0)


def test_extreme_singular_values_via_power_iteration():
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((18, 7))
    ref = min_norm_solve(DualSparseMatrix.from_dense(dense), rng.standard_normal(18))
    sig_max = power_iteration_sigma_max(dense)
    assert sig_max == pytest.approx(float(ref.singular_values[0]), rel=1e-8)
    # smallest singular value through the same trick on the inverse action:
    # power-iterate G = A^T A shifted so the smallest eigenpair dominates
    gram = dense.T @ dense
    shift = sig_max**2 * 1.0000001
    flipped = shift * np.eye(7) - gram
    v = np.ones(7) / np.sqrt(7)
    for _ in range(4000):
        w = flipped @ v
        v = w / np.linalg.norm(w)
    sig_min_sq = shift - float(v @ flipped @ v)
    assert np.sqrt(sig_min_sq) == pytest.approx(float(ref.singular_values[-1]), rel=1e-6)


def test_split_of_rhs_is_orthogonal_and_exact():
    rng = np.random.default_rng(3)
    dense = rank_deficient_dense(rng, 16, 10, 6)
    b = rng.standard_normal(16)
    ref = min_norm_solve(DualSparseMatrix.from_dense(dense), b)
    np.testing.assert_allclose(ref.b_range + ref.b_perp, b, atol=32 * EPS * np.linalg.norm(b), rtol=0)
    assert abs(ref.b_range @ ref.b_perp) <= 64 * EPS * np.linalg.norm(b) ** 2
    # b_perp is orthogonal to every column
    assert np.abs(dense.T @ ref.b_perp).max() <= 1e4 * EPS * np.linalg.norm(b) * np.linalg.norm(dense)


def test_solution_lies_in_row_space():
    rng = np.random.default_rng(4)
    dense = rank_deficient_dense(rng, 14, 9, 4)
    ref = min_norm_solve(DualSparseMatrix.from_dense(dense), rng.standard_normal(14))
    assert projector_residual(ref, ref.x_ls) <= 64 * EPS * np.linalg.norm(ref.x_ls)


def test_null_space_perturbation_is_not_smaller():
    # x_ls plus any null-space direction solves the normal equations with the
    # same residual but strictly larger norm
    rng = np.random.default_rng(5)
    dense = rank_deficient_dense(rng, 14, 9, 4)
    b = rng.standard_normal(14)
    ref = min_norm_solve(DualSparseMatrix.from_dense(dense), b)
    null = rng.standard_normal(9)
    null -= ref.row_basis @ (ref.row_basis.T @ null)
    assert np.linalg.norm(null) > 1e-6  # the draw really has a null component
    perturbed = ref.x_ls + null
    r0 = np.linalg.norm(dense @ ref.x_ls - b)
    r1 = np.linalg.norm(dense @ perturbed - b)
    assert r1 == pytest.approx(r0, rel=1e-10)
    assert np.linalg.norm(perturbed) > np.linalg.norm(ref.x_ls)


def test_condition_numbers_and_sandwich():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((20, 6))
    a = DualSparseMatrix.from_dense(dense)
    ref = min_norm_solve(a, rng.standard_normal(20))
    s = np.linalg.svd(dense, compute_uv=False)
    assert ref.cond_sq == pytest.approx((s[0] / s[-1]) ** 2, rel=1e-12)
    assert ref.kappa_f_sq == pytest.approx(a.frob_sq / s[-1] ** 2, rel=1e-12)
    slack = 1.0 + 1e-12
    assert ref.cond_sq <= ref.kappa_f_sq * slack
    assert ref.kappa_f_sq <= ref.rank * ref.cond_sq * slack


def test_resolving_with_range_component_reproduces_x_ls():
    rng = np.random.default_rng(7)
    dense = rank_deficient_dense(rng, 15, 10, 6)
    b = rng.standard_normal(15)
    ref = min_norm_solve(DualSparseMatrix.from_dense(dense), b)
    again = min_norm_solve(DualSparseMatrix.from_dense(dense), ref.b_range)
    scale = np.linalg.norm(ref.x_ls)
    np.testing.assert_allclose(again.x_ls, ref.x_ls, atol=1e-10 * scale, rtol=0)
    assert np.linalg.norm(again.b_perp) <= 1e-10 * np.linalg.norm(b)


def test_rank_cut_is_8_max_mn_eps_times_sigma_max():
    # the cut is 8*3*eps ~ 5.3e-15 times sigma_max: at any scale a tail of
    # 1e-15 sigma_max is dropped and one of 1e-13 sigma_max is kept
    b = np.ones(3)
    for scale in (1.0, 1e10):
        for tail, rank in ((1e-15, 2), (1e-13, 3)):
            a = DualSparseMatrix.from_dense(scale * np.diag([1.0, 1e-5, tail]))
            assert min_norm_solve(a, b).rank == rank


def test_accepts_plain_ndarray_and_validates():
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    ref_a = min_norm_solve(dense, b)
    ref_b = min_norm_solve(DualSparseMatrix.from_dense(dense), b)
    np.testing.assert_allclose(ref_a.x_ls, ref_b.x_ls, atol=32 * EPS, rtol=0)
    with pytest.raises(DimensionMismatchError):
        min_norm_solve(dense, np.ones(5))
    with pytest.raises(NonFiniteError):
        min_norm_solve(dense, np.full(6, np.nan))
    with pytest.raises(AllZeroMatrixError):
        min_norm_solve(np.zeros((3, 3)), np.zeros(3))
    # the bare factorization is defined for a zero matrix, all sigmas zero
    _, s, _ = svd_decompose(np.zeros((3, 3)))
    np.testing.assert_array_equal(s, np.zeros(3))


def test_oversized_dense_materialization_refused():
    m, n = 2500, 2000
    assert m * n > MAX_DENSE_ENTRIES
    big = DualSparseMatrix.from_triplets([0], [0], [1.0], (m, n))
    with pytest.raises(TooLargeError):
        min_norm_solve(big, np.zeros(m))


def test_projector_residual_on_generated_instances():
    for seed in range(3):
        a, b, _ = generate(InstanceSpec(kind="sparse", m=30, n=12, density=0.3, seed=seed))
        ref = min_norm_solve(a, b)
        v_in = ref.row_basis @ np.arange(1.0, ref.rank + 1)
        assert projector_residual(ref, v_in) <= 64 * EPS * np.linalg.norm(v_in)
