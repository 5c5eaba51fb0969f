"""Dual-layout sparse storage and the per-line kernels the solvers touch.

A DualSparseMatrix keeps the same nonzero set twice, row-major (CSR) and
column-major (CSC), so that single rows and single columns are both O(nnz of
that line) to read. These six numpy arrays are the only copy of the matrix:
the whole-matrix products and to_dense are computed from them too.
Construction canonicalizes triplets (duplicates summed in input order,
entries that sum to exactly zero dropped) and caches the squared row norms,
squared column norms and the squared Frobenius norm, which the samplers and
the termination checks read constantly. Entries above about 1.3e154 square
to inf without a warning; the solvers refuse such a matrix with their own
message.

All arrays are frozen after construction. A matrix can be shared between
solver runs without defensive copies; the kernels mutate only the vectors
they are handed.

Flop convention: a dot or an axpy over k stored entries costs 2k flops, and
a whole-matrix product 2*nnz. The kernels count nothing themselves; the
solvers book each block and each termination check by formula (see
kaczmarz.solvers).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AllZeroMatrixError,
    DimensionMismatchError,
    InvalidRangeError,
    NonFiniteError,
)


class DualSparseMatrix:
    """Immutable sparse matrix stored in both CSR and CSC order."""

    __slots__ = (
        "m",
        "n",
        "nnz",
        "row_ptr",
        "row_cols",
        "row_vals",
        "col_ptr",
        "col_rows",
        "col_vals",
        "row_sq_norms",
        "col_sq_norms",
        "frob_sq",
        "_line_addrs",
        "_alias_tables",
    )

    def __init__(self, shape, rows, cols, vals):
        """Build from canonical int64/float64 triplets. Use the classmethods instead.

        Canonical means row-major order, no duplicate positions and no zero
        values; the arrays are kept, not copied, and frozen.
        """
        self.m, self.n = (int(d) for d in shape)
        self.nnz = int(vals.size)
        if self.nnz == 0:
            raise AllZeroMatrixError("matrix has no nonzero entries")
        self.row_cols = cols
        self.row_vals = vals
        self.row_ptr = _line_ptr(rows, self.m)
        self.col_ptr = _line_ptr(cols, self.n)
        # column-major positions are unique, so any sort gives the one order
        order = np.argsort(cols * self.m + rows)
        self.col_rows = rows[order]
        self.col_vals = vals[order]
        del order
        with np.errstate(over="ignore"):
            squares = vals**2
            self.frob_sq = float(vals @ vals)
        self.row_sq_norms = np.bincount(rows, weights=squares, minlength=self.m)
        # row-major order visits each column's entries in row order, as CSC does
        self.col_sq_norms = np.bincount(cols, weights=squares, minlength=self.n)
        # Filled on first use by sampling.row_sampler / col_sampler.
        self._alias_tables = {}

        # Addresses of the frozen row and column arrays, in the order the
        # compiled block kernels take them; valid while this matrix lives.
        row_arrays = (self.row_ptr, self.row_cols, self.row_vals, self.row_sq_norms)
        col_arrays = (self.col_ptr, self.col_rows, self.col_vals, self.col_sq_norms)
        dtypes = (np.int64, np.int64, np.float64, np.float64) * 2
        for arr, dtype in zip(row_arrays + col_arrays, dtypes):
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise ValueError("matrix storage must be C-contiguous %s arrays" % dtype.__name__)
        for arr in row_arrays + col_arrays:
            arr.setflags(write=False)
        self._line_addrs = (
            tuple(arr.ctypes.data for arr in row_arrays),
            tuple(arr.ctypes.data for arr in col_arrays),
        )

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape):
        """Build from COO triplets; duplicate positions are summed in input order.

        Entries whose duplicates cancel to exactly zero are dropped from the
        stored pattern. Raises AllZeroMatrixError if nothing survives.
        """
        m, n = (int(d) for d in shape)
        if m <= 0 or n <= 0:
            raise InvalidRangeError("matrix shape must be positive, got %dx%d" % (m, n))
        if m * n >= 2**63:
            raise InvalidRangeError(
                "matrix shape %dx%d is too large: m*n must be below 2**63" % (m, n)
            )
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape and rows.ndim == 1):
            raise DimensionMismatchError("triplet arrays must be 1-D and equally long")
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise IndexError("row index out of range for %dx%d matrix" % (m, n))
            if cols.min() < 0 or cols.max() >= n:
                raise IndexError("column index out of range for %dx%d matrix" % (m, n))
        if not np.isfinite(vals).all():
            raise NonFiniteError("matrix entries must be finite")
        # Row-major position of each entry; a stable sort keeps duplicates in
        # input order, and bincount over run ids sums each run left to right.
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        vals = vals[order]
        del order, rows, cols
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        run = np.cumsum(first)
        run -= 1
        vals = np.bincount(run, weights=vals)
        del run
        if vals.size < key.size and not np.isfinite(vals).all():
            raise NonFiniteError("duplicate entries sum past float64")
        key = key[first]
        del first
        nonzero = vals != 0.0
        rows, cols = np.divmod(key[nonzero], n)
        return cls((m, n), rows, cols, vals[nonzero])

    @classmethod
    def from_dense(cls, dense):
        """Build from a 2-D array; exact zeros are not stored."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise DimensionMismatchError("expected a 2-D array")
        if not np.isfinite(dense).all():
            raise NonFiniteError("matrix entries must be finite")
        flat = dense.ravel()
        pos = np.flatnonzero(flat)
        # divmod gives fresh contiguous index arrays (np.nonzero gives strided views)
        rows, cols = np.divmod(pos, dense.shape[1])
        return cls(dense.shape, rows, cols, flat[pos])

    def to_dense(self):
        dense = np.zeros((self.m, self.n))
        dense[self.entry_rows(), self.row_cols] = self.row_vals
        return dense

    # ------------------------------------------------------------------
    # per-line kernels

    def row_dot(self, i, x):
        """<a_i, x>, touching only the stored entries of row i."""
        self._check_row(i)
        lo = self.row_ptr[i]
        hi = self.row_ptr[i + 1]
        return float(self.row_vals[lo:hi] @ x[self.row_cols[lo:hi]])

    def col_dot(self, j, z):
        """<a^(j), z> for column j."""
        self._check_col(j)
        lo = self.col_ptr[j]
        hi = self.col_ptr[j + 1]
        return float(self.col_vals[lo:hi] @ z[self.col_rows[lo:hi]])

    def row_axpy(self, i, alpha, x):
        """x += alpha * a_i, in place, touching only stored entries."""
        self._check_row(i)
        lo = self.row_ptr[i]
        hi = self.row_ptr[i + 1]
        x[self.row_cols[lo:hi]] += alpha * self.row_vals[lo:hi]

    def col_axpy(self, j, alpha, z):
        """z += alpha * a^(j), in place."""
        self._check_col(j)
        lo = self.col_ptr[j]
        hi = self.col_ptr[j + 1]
        z[self.col_rows[lo:hi]] += alpha * self.col_vals[lo:hi]

    # ------------------------------------------------------------------
    # whole-matrix products (used by termination checks and reports)

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionMismatchError(
                "matvec expects a length-%d vector, got shape %r" % (self.n, x.shape)
            )
        # the column-major entries visit each row left to right, as a CSR loop does
        weights = self.col_vals * np.repeat(x, np.diff(self.col_ptr))
        return np.bincount(self.col_rows, weights=weights, minlength=self.m)

    def rmatvec(self, z):
        """A^T z."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.m,):
            raise DimensionMismatchError(
                "rmatvec expects a length-%d vector, got shape %r" % (self.m, z.shape)
            )
        # the row-major entries visit each column in row order, as a CSC loop does
        weights = self.row_vals * np.repeat(z, np.diff(self.row_ptr))
        return np.bincount(self.row_cols, weights=weights, minlength=self.n)

    def entry_rows(self):
        """Row of each stored entry, in row-major order."""
        return np.repeat(np.arange(self.m), np.diff(self.row_ptr))

    # ------------------------------------------------------------------

    def _check_row(self, i):
        if not 0 <= i < self.m:
            raise IndexError("row index %d out of range [0, %d)" % (i, self.m))

    def _check_col(self, j):
        if not 0 <= j < self.n:
            raise IndexError("column index %d out of range [0, %d)" % (j, self.n))

    def __repr__(self):
        return "DualSparseMatrix(%dx%d, nnz=%d)" % (self.m, self.n, self.nnz)


def _line_ptr(line_of_entry, count):
    """Pointer array of a line-sorted layout: line k spans ptr[k]:ptr[k+1]."""
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(line_of_entry, minlength=count), out=ptr[1:])
    return ptr
