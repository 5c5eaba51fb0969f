"""Dual-view sparse storage against dense numpy oracles and scipy.sparse."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kaczmarz import _blocks
from kaczmarz.errors import (
    AllZeroMatrixError,
    DimensionMismatchError,
    InvalidRangeError,
    NonFiniteError,
)
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.mmio import read_matrix_market, write_matrix_market

EPS = np.finfo(np.float64).eps


def random_sparse_dense(rng, m, n, density):
    """Dense array with a random sparsity pattern. The oracle side."""
    mask = rng.random((m, n)) < density
    dense = np.where(mask, rng.standard_normal((m, n)), 0.0)
    if not dense.any():
        dense[rng.integers(m), rng.integers(n)] = 1.0
    return dense


def test_from_triplets_sums_duplicates_and_drops_zeros():
    # oracle: accumulate by hand into a dense array
    rows = [0, 0, 1, 2, 2, 2]
    cols = [1, 1, 0, 2, 2, 0]
    vals = [2.0, 3.0, -1.0, 4.0, -4.0, 0.5]
    dense = np.zeros((3, 3))
    for r, c, v in zip(rows, cols, vals):
        dense[r, c] += v
    a = DualSparseMatrix.from_triplets(rows, cols, vals, (3, 3))
    np.testing.assert_array_equal(a.to_dense(), dense)
    # (2,2) cancelled exactly, (0,1) merged: 3 stored entries remain
    assert a.nnz == 3
    assert np.diff(a.row_ptr).tolist() == [1, 1, 1]
    assert np.diff(a.col_ptr).tolist() == [2, 1, 0]


def test_canonical_triplets_store_what_the_sort_stores_and_stay_the_callers(kernels):
    rng = np.random.default_rng(7)
    dense = random_sparse_dense(rng, 30, 20, 0.3)
    rows, cols = np.nonzero(dense)  # row-major, each position once
    vals = dense[rows, cols]
    shuffled = rng.permutation(rows.size)
    want = DualSparseMatrix.from_triplets(rows[shuffled], cols[shuffled], vals[shuffled],
                                          dense.shape)
    # strided views, as numpy.loadtxt's structured fields are
    table = np.empty(rows.size, dtype=[("i", "i8"), ("j", "i8"), ("v", "f8")])
    table["i"], table["j"], table["v"] = rows, cols, vals
    for args in ((rows, cols, vals), (table["i"], table["j"], table["v"])):
        got = DualSparseMatrix.from_triplets(*args, dense.shape)
        for name in STORED:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for arr in args:
            assert arr.flags.writeable
            assert not any(np.shares_memory(arr, getattr(got, name)) for name in STORED)
    # read-only arrays that own their memory are kept as they are
    frozen = [arr.copy() for arr in (rows, cols, vals)]
    for arr in frozen:
        arr.setflags(write=False)
    got = DualSparseMatrix.from_triplets(*frozen, dense.shape)
    assert got.row_cols is frozen[1] and got.row_vals is frozen[2]
    assert got.row_vals.tobytes() == want.row_vals.tobytes()


def test_from_dense_round_trip_and_explicit_zero_dropped():
    dense = np.array([[1.0, 0.0], [0.0, -2.5], [3.0, 4.0]])
    a = DualSparseMatrix.from_dense(dense)
    assert a.m == 3 and a.n == 2
    assert a.nnz == 4
    np.testing.assert_array_equal(a.to_dense(), dense)


def test_all_zero_matrix_rejected():
    with pytest.raises(AllZeroMatrixError):
        DualSparseMatrix.from_dense(np.zeros((4, 3)))
    with pytest.raises(AllZeroMatrixError):
        # duplicates at one position cancelling to zero leave nothing stored
        DualSparseMatrix.from_triplets([0, 0], [0, 0], [1.0, -1.0], (2, 1))


def test_construction_errors():
    with pytest.raises(InvalidRangeError):
        DualSparseMatrix.from_triplets([], [], [], (0, 3))
    with pytest.raises(DimensionMismatchError):
        DualSparseMatrix.from_triplets([0, 1], [0], [1.0], (2, 2))
    with pytest.raises(IndexError):
        DualSparseMatrix.from_triplets([2], [0], [1.0], (2, 2))
    with pytest.raises(IndexError):
        DualSparseMatrix.from_triplets([0], [-1], [1.0], (2, 2))
    with pytest.raises(NonFiniteError):
        DualSparseMatrix.from_triplets([0], [0], [np.nan], (2, 2))
    with pytest.raises(NonFiniteError):
        DualSparseMatrix.from_dense(np.array([[np.inf]]))
    with pytest.raises(DimensionMismatchError):
        DualSparseMatrix.from_dense(np.ones(3))


# dyadic values, so duplicates can cancel exactly, and arbitrary finite ones
VALUES = st.one_of(st.sampled_from([-2.5, -1.0, 0.5, 1.0, 3.0]), st.floats(-1e6, 1e6))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), VALUES),
        min_size=1,
        max_size=60,
    ),
)
def test_canonicalisation_is_idempotent(m, n, triplets):
    rows, cols, vals = (np.array(v) for v in zip(*triplets))
    keep = (rows < m) & (cols < n)
    try:
        a = DualSparseMatrix.from_triplets(rows[keep], cols[keep], vals[keep], (m, n))
    except AllZeroMatrixError:
        return  # nothing survived (no entries in range, or duplicates that cancel)
    own = np.repeat(np.arange(a.m), np.diff(a.row_ptr))
    again = DualSparseMatrix.from_triplets(own, a.row_cols, a.row_vals, (a.m, a.n))
    for name in ("row_ptr", "row_cols", "row_vals", "col_ptr", "col_rows", "col_vals",
                 "row_sq_norms", "col_sq_norms"):
        np.testing.assert_array_equal(getattr(again, name), getattr(a, name), err_msg=name)
    assert again.frob_sq == a.frob_sq and again.nnz == a.nnz


# ----------------------------------------------------------------------
# scipy.sparse as the test-only reference for construction and products

# quarters in [-1, 1]: sums of a few of them, and their squares, are exact in
# any order, so duplicates can cancel and norms have one correct value
DYADIC = st.integers(-4, 4).map(lambda k: k / 4)
STORED = ("row_ptr", "row_cols", "row_vals", "col_ptr", "col_rows", "col_vals",
          "row_sq_norms", "col_sq_norms")


def _assert_matches_scipy(build, csr):
    """`build()` stores what scipy's canonical CSR/CSC of `csr` hold."""
    csr.sum_duplicates()
    csr.eliminate_zeros()
    if csr.nnz == 0:
        with pytest.raises(AllZeroMatrixError):
            build()
        return
    a = build()
    csc = csr.tocsc()
    sq = csr.multiply(csr)
    want = {
        "row_ptr": csr.indptr, "row_cols": csr.indices, "row_vals": csr.data,
        "col_ptr": csc.indptr, "col_rows": csc.indices, "col_vals": csc.data,
        "row_sq_norms": np.asarray(sq.sum(axis=1)).ravel(),
        "col_sq_norms": np.asarray(sq.sum(axis=0)).ravel(),
    }
    for name in STORED:
        got = getattr(a, name)
        assert got.dtype == (np.float64 if "vals" in name or "norms" in name else np.int64)
        np.testing.assert_array_equal(got, want[name], err_msg=name)
    assert a.frob_sq == float(sq.sum()) and a.nnz == csr.nnz


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), DYADIC), max_size=40),
)
def test_triplets_are_stored_as_scipy_stores_them(m, n, triplets):
    triplets = [(i, j, v) for i, j, v in triplets if i < m and j < n]
    rows, cols, vals = (list(t) for t in zip(*triplets)) if triplets else ([], [], [])
    csr = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, n), dtype=np.float64).tocsr()
    _assert_matches_scipy(lambda: DualSparseMatrix.from_triplets(rows, cols, vals, (m, n)), csr)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda m: st.integers(1, 8).flatmap(
            lambda n: arrays(np.float64, (m, n),
                             elements=st.one_of(st.sampled_from([0.0, -0.0]), DYADIC))
        )
    )
)
def test_dense_input_is_stored_as_scipy_stores_it(dense):
    csr = scipy.sparse.csr_matrix(dense)
    _assert_matches_scipy(lambda: DualSparseMatrix.from_dense(dense), csr)


def test_products_equal_scipys_bit_for_bit():
    # lines of ~20 entries, so a blocked or pairwise sum would differ
    rng = np.random.default_rng(17)
    dense = random_sparse_dense(rng, 40, 30, 0.6)
    dense[[3, 7]] = 0.0  # empty rows
    dense[:, [2, 5]] = 0.0  # empty columns
    a = DualSparseMatrix.from_dense(dense)
    csr = scipy.sparse.csr_matrix(dense)
    x = rng.standard_normal(30)
    z = rng.standard_normal(40)
    np.testing.assert_array_equal(a.matvec(x), csr @ x)
    np.testing.assert_array_equal(a.rmatvec(z), csr.T @ z)


def test_duplicates_are_summed_in_input_order():
    a = DualSparseMatrix.from_triplets([1, 0, 1, 1], [2, 0, 2, 2], [0.1, 5.0, 0.2, 0.3], (2, 3))
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert a.nnz == 2 and a.row_vals[1] == (0.1 + 0.2) + 0.3


def test_duplicates_that_sum_past_float64_are_refused():
    # each entry is finite; only their sum at (0, 1) is not
    with pytest.raises(NonFiniteError, match="duplicate entries sum past float64"):
        DualSparseMatrix.from_triplets([0, 1, 0], [1, 0, 1], [1e308, 1.0, 1e308], (2, 2))
    # finite sums of duplicates are kept, and cancelled ones dropped
    a = DualSparseMatrix.from_triplets([0, 0, 1, 1], [1, 1, 0, 0], [1e153, 1e153, 1e153, -1e153],
                                       (2, 2))
    assert a.nnz == 1 and a.row_vals.tolist() == [2e153]


def test_row_and_col_views_agree_with_dense():
    rng = np.random.default_rng(7)
    dense = random_sparse_dense(rng, 9, 6, 0.4)
    a = DualSparseMatrix.from_dense(dense)
    row_nnz, col_nnz = np.diff(a.row_ptr), np.diff(a.col_ptr)
    for i in range(9):
        lo, hi = a.row_ptr[i], a.row_ptr[i + 1]
        got = np.zeros(6)
        got[a.row_cols[lo:hi]] = a.row_vals[lo:hi]
        np.testing.assert_array_equal(got, dense[i])
        assert row_nnz[i] == np.count_nonzero(dense[i])
    for j in range(6):
        lo, hi = a.col_ptr[j], a.col_ptr[j + 1]
        got = np.zeros(9)
        got[a.col_rows[lo:hi]] = a.col_vals[lo:hi]
        np.testing.assert_array_equal(got, dense[:, j])
        assert col_nnz[j] == np.count_nonzero(dense[:, j])


def test_cached_norms_match_dense():
    rng = np.random.default_rng(21)
    dense = random_sparse_dense(rng, 12, 8, 0.35)
    a = DualSparseMatrix.from_dense(dense)
    scale = max(a.frob_sq, 1.0)
    tol = 4.0 * a.nnz * EPS * scale
    np.testing.assert_allclose(a.row_sq_norms, (dense**2).sum(axis=1), atol=tol, rtol=0)
    np.testing.assert_allclose(a.col_sq_norms, (dense**2).sum(axis=0), atol=tol, rtol=0)
    assert abs(a.frob_sq - (dense**2).sum()) <= tol
    # the two caches are two summations of the same multiset
    assert abs(a.row_sq_norms.sum() - a.col_sq_norms.sum()) <= tol


def test_dot_kernels_match_dense():
    rng = np.random.default_rng(3)
    dense = random_sparse_dense(rng, 10, 7, 0.5)
    a = DualSparseMatrix.from_dense(dense)
    x = rng.standard_normal(7)
    z = rng.standard_normal(10)
    row_nnz, col_nnz = np.diff(a.row_ptr), np.diff(a.col_ptr)
    for i in range(10):
        want = float(dense[i] @ x)
        tol = 4.0 * max(row_nnz[i], 1) * EPS * max(abs(want), np.abs(dense[i] * x).sum())
        assert abs(a.row_dot(i, x) - want) <= tol
    for j in range(7):
        want = float(dense[:, j] @ z)
        tol = 4.0 * max(col_nnz[j], 1) * EPS * max(abs(want), np.abs(dense[:, j] * z).sum())
        assert abs(a.col_dot(j, z) - want) <= tol


def test_axpy_kernels_match_dense_exactly():
    # axpy touches entries elementwise, no reductions: results are bit-exact
    rng = np.random.default_rng(5)
    dense = random_sparse_dense(rng, 8, 5, 0.6)
    a = DualSparseMatrix.from_dense(dense)
    x = rng.standard_normal(5)
    want = x + 0.37 * dense[4]
    got = x.copy()
    a.row_axpy(4, 0.37, got)
    np.testing.assert_array_equal(got, want)
    z = rng.standard_normal(8)
    want_z = z + (-1.25) * dense[:, 2]
    got_z = z.copy()
    a.col_axpy(2, -1.25, got_z)
    np.testing.assert_array_equal(got_z, want_z)


def test_matvec_rmatvec_and_adjointness():
    rng = np.random.default_rng(11)
    dense = random_sparse_dense(rng, 14, 9, 0.3)
    a = DualSparseMatrix.from_dense(dense)
    x = rng.standard_normal(9)
    z = rng.standard_normal(14)
    tol = 16.0 * a.nnz * EPS * np.sqrt(a.frob_sq)
    np.testing.assert_allclose(a.matvec(x), dense @ x, atol=tol * np.linalg.norm(x), rtol=0)
    np.testing.assert_allclose(a.rmatvec(z), dense.T @ z, atol=tol * np.linalg.norm(z), rtol=0)
    # the prebuilt transpose sums in the same order as scipy's own A.T @ z
    np.testing.assert_array_equal(a.rmatvec(z), scipy.sparse.csr_matrix(dense).T @ z)
    lhs = float(z @ a.matvec(x))
    rhs = float(a.rmatvec(z) @ x)
    assert abs(lhs - rhs) <= tol * np.linalg.norm(x) * np.linalg.norm(z)


def test_matvec_shape_checks():
    a = DualSparseMatrix.from_dense(np.eye(3, 2))
    with pytest.raises(DimensionMismatchError):
        a.matvec(np.ones(3))
    with pytest.raises(DimensionMismatchError):
        a.rmatvec(np.ones(2))


def test_line_index_bounds():
    a = DualSparseMatrix.from_dense(np.ones((3, 2)))
    x = np.zeros(2)
    z = np.zeros(3)
    with pytest.raises(IndexError):
        a.row_dot(3, x)
    with pytest.raises(IndexError):
        a.row_dot(-1, x)
    with pytest.raises(IndexError):
        a.col_axpy(2, 1.0, z)
    with pytest.raises(IndexError):
        a.row_axpy(3, 1.0, x)


def test_storage_is_immutable():
    a = DualSparseMatrix.from_dense(np.ones((2, 2)))
    for arr in (a.row_vals, a.row_cols, a.row_ptr, a.col_vals, a.col_rows, a.col_ptr,
                a.row_sq_norms, a.col_sq_norms):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_shapes_whose_position_keys_overflow_int64_are_refused():
    # row-major and column-major position keys need m * n < 2**63
    with pytest.raises(InvalidRangeError, match="2\\*\\*63"):
        DualSparseMatrix.from_triplets([0], [0], [1.0], (2**32, 2**31))


def test_init_refuses_arrays_the_kernels_cannot_address():
    row_ptr, cols, vals = np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, 2.0])
    strided = np.array([[0, 9], [1, 9]])[:, 0]
    assert not strided.flags.c_contiguous
    for bad_cols in (strided, np.array([0, 1], dtype=np.int32)):
        with pytest.raises(ValueError, match="C-contiguous"):
            DualSparseMatrix((2, 2), row_ptr, bad_cols, vals)
    with pytest.raises(ValueError, match="C-contiguous"):
        DualSparseMatrix((2, 2), row_ptr.astype(np.int32), cols, vals)
    # one pointer too many, and three columns for two values
    for bad in ((np.array([0, 1, 2, 2]), cols), (row_ptr, np.array([0, 1, 1]))):
        with pytest.raises(DimensionMismatchError, match="m\\+1 row pointers"):
            DualSparseMatrix((2, 2), *bad, vals)
    # pointers that would visit an entry twice, or skip one, in the scatter
    for bad_ptr in ([0, 3, 2], [1, 1, 2], [0, 1, 1]):
        with pytest.raises(DimensionMismatchError, match="rise from 0"):
            DualSparseMatrix((2, 2), np.array(bad_ptr), cols, vals)
    a = DualSparseMatrix((2, 2), row_ptr, cols, vals)
    np.testing.assert_array_equal(a.to_dense(), np.diag(vals))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda m: st.integers(1, 9).flatmap(
            lambda n: arrays(np.float64, (m, n),
                             elements=st.one_of(st.just(0.0), DYADIC, st.floats(-1e6, 1e6)))
        )
    )
)
def test_csc_scatter_and_argsort_store_the_same_arrays(dense):
    if _blocks.load() is None:
        pytest.skip("no C compiler: only the argsort runs here")
    assume(np.any(dense != 0.0))
    compiled = DualSparseMatrix.from_dense(dense)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "load", lambda: None)
        fallback = DualSparseMatrix.from_dense(dense)
    for name in ("col_ptr", "col_rows", "col_vals", "row_sq_norms", "col_sq_norms"):
        got, want = getattr(compiled, name), getattr(fallback, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.float64(compiled.frob_sq).tobytes() == np.float64(fallback.frob_sq).tobytes()


def test_norms_are_bincounts_of_the_squares_where_these_underflow_or_overflow(kernels):
    rng = np.random.default_rng(11)
    dense = random_sparse_dense(rng, 12, 9, 0.5)
    dense[0] = 0.0
    dense[0, :3] = [5e-324, -2e-310, 1e-160]  # squares 0, 0 and subnormal
    dense[1, 2] = 2e154  # squares to inf
    dense[4, 5] = -1e300
    a = DualSparseMatrix.from_dense(dense)
    rows, cols = np.nonzero(dense)
    with np.errstate(over="ignore"):
        squares = dense[rows, cols] ** 2
    for got, line, size in ((a.row_sq_norms, rows, 12), (a.col_sq_norms, cols, 9)):
        want = np.bincount(line, weights=squares, minlength=size)
        assert got.tobytes() == want.tobytes()
    assert np.isinf(a.row_sq_norms[[1, 4]]).all() and np.isinf(a.col_sq_norms[[2, 5]]).all()
    assert 0.0 < a.row_sq_norms[0] < np.finfo(np.float64).tiny


def test_csc_order_skips_empty_rows_and_columns(kernels):
    dense = np.zeros((6, 5))
    dense[[1, 4, 4, 5], [3, 0, 3, 3]] = [1.0, 2.0, 3.0, 4.0]
    a = DualSparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(a.col_ptr, [0, 1, 1, 1, 4, 4])
    np.testing.assert_array_equal(a.col_rows, [4, 1, 4, 5])
    np.testing.assert_array_equal(a.col_vals, [2.0, 1.0, 3.0, 4.0])


def test_reading_or_generating_a_matrix_needs_little_more_memory_than_it_stores(tmp_path):
    # 200k entries: the row-major arrays in hand plus a transient per-entry
    # array come to the 32 B per entry stored; a second transient (the
    # reader's row array, a squares temporary or copies of the arrays kept)
    # would add 8 B, a quarter
    if _blocks.load() is None:
        pytest.skip("no C compiler: the fallback's argsort needs the rows")
    spec = InstanceSpec("sparse", 4000, 500, density=0.1, seed=5)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, generate(spec)[0])
    for build in (lambda: generate(spec)[0], lambda: read_matrix_market(path)):
        tracemalloc.start()
        try:
            a = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(getattr(a, name).nbytes for name in STORED)
        assert a.nnz > 190_000 and peak <= 1.15 * stored
