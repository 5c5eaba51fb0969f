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

The constructor takes the CSR arrays it keeps. Every builder forms the row
pointer from the row-major positions of the entries and holds no per-entry
row array of its own when the column-major arrays are allocated, so building
a matrix needs little more memory than the matrix itself. The column-major arrays and
both squared-norm vectors come from one counting pass over the row-major
arrays (csc_scatter in _blocks.c); where the kernels are not built, the rows
are spelled out again for an argsort and two bincounts.

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

from . import _blocks
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

    def __init__(self, shape, row_ptr, cols, vals):
        """Build from canonical CSR arrays (int64 row_ptr and cols, float64 vals).

        Canonical means each row's columns strictly increasing and no zero or
        non-finite values; that is not checked. The arrays are kept, not
        copied, and frozen. Triplets not known to be canonical go through the
        classmethods.
        """
        self.m, self.n = (int(d) for d in shape)
        self.nnz = int(vals.size)
        if self.nnz == 0:
            raise AllZeroMatrixError("matrix has no nonzero entries")
        if not (cols.shape == vals.shape == (self.nnz,) and row_ptr.shape == (self.m + 1,)):
            raise DimensionMismatchError(
                "CSR arrays must be 1-D: m+1 row pointers, and as many columns as values")
        for arr, dtype in ((row_ptr, np.int64), (cols, np.int64), (vals, np.float64)):
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise ValueError("matrix storage must be C-contiguous %s arrays" % dtype.__name__)
        # any other pointer would send the scatter past the column arrays
        if row_ptr[0] != 0 or row_ptr[-1] != self.nnz or (row_ptr[1:] < row_ptr[:-1]).any():
            raise DimensionMismatchError("row pointers must rise from 0 to the entry count")
        self.row_ptr = row_ptr
        self.row_cols = cols
        self.row_vals = vals
        self.col_ptr = _line_ptr(cols, self.n)
        (self.col_rows, self.col_vals,
         self.row_sq_norms, self.col_sq_norms) = _csc_and_norms(self.m, row_ptr, cols, vals,
                                                                self.col_ptr)
        with np.errstate(over="ignore"):
            self.frob_sq = float(vals @ vals)
        # Filled on first use by sampling.row_sampler / col_sampler.
        self._alias_tables = {}

        # Addresses of the frozen row and column arrays, in the order the
        # compiled block kernels take them; valid while this matrix lives.
        row_arrays = (self.row_ptr, self.row_cols, self.row_vals, self.row_sq_norms)
        col_arrays = (self.col_ptr, self.col_rows, self.col_vals, self.col_sq_norms)
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

        A caller's array is never frozen: already canonical triplets keep
        `cols` and `vals` as they are only when they are read-only and own
        their memory (as mmio's reader hands them over), and store copies of
        any others. The rows are not kept: once the row pointer is formed,
        they are freed unless the caller holds them.
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
        # Row-major position of each entry. Strictly increasing positions of
        # nonzero values are canonical already (as every coordinate file this
        # package writes is): the constructor takes them as they are.
        key = rows * n + cols
        del rows
        if (key[1:] > key[:-1]).all() and vals.all():
            row_ptr = _row_ptr(key, m, n)
            del key
            return cls((m, n), row_ptr, _keepable(cols), _keepable(vals))
        # A stable sort keeps duplicates in input order, and bincount over run
        # ids sums each run left to right.
        order = np.argsort(key, kind="stable")
        key = key[order]
        vals = vals[order]
        del order, cols
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
        if not vals.all():
            key, vals = key[vals != 0.0], vals[vals != 0.0]
        row_ptr = _row_ptr(key, m, n)
        return cls((m, n), row_ptr, np.remainder(key, n, out=key), vals)

    @classmethod
    def from_dense(cls, dense):
        """Build from a 2-D array; exact zeros are not stored."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise DimensionMismatchError("expected a 2-D array")
        if not np.isfinite(dense).all():
            raise NonFiniteError("matrix entries must be finite")
        m, n = dense.shape
        flat = dense.ravel()
        pos = np.flatnonzero(flat)
        row_ptr = _row_ptr(pos, m, n)
        vals = flat[pos]
        return cls(dense.shape, row_ptr, np.remainder(pos, n, out=pos), vals)

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
        return _entry_rows(self.row_ptr)

    # ------------------------------------------------------------------

    def _check_row(self, i):
        if not 0 <= i < self.m:
            raise IndexError("row index %d out of range [0, %d)" % (i, self.m))

    def _check_col(self, j):
        if not 0 <= j < self.n:
            raise IndexError("column index %d out of range [0, %d)" % (j, self.n))

    def __repr__(self):
        return "DualSparseMatrix(%dx%d, nnz=%d)" % (self.m, self.n, self.nnz)


def _row_ptr(key, m, n):
    """CSR row pointer of the strictly increasing row-major positions `key`."""
    return np.searchsorted(key, np.arange(m + 1) * n)


def _line_ptr(line_of_entry, count):
    """Pointer array of a line-sorted layout: line k spans ptr[k]:ptr[k+1]."""
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(line_of_entry, minlength=count), out=ptr[1:])
    return ptr


def _entry_rows(row_ptr):
    """Row of each entry of a CSR layout."""
    return np.repeat(np.arange(row_ptr.size - 1), np.diff(row_ptr))


def _keepable(arr):
    """`arr` if a matrix may keep and freeze it, else a copy.

    Keepable means read-only and owning its memory: no one can write to it
    through another name without first unfreezing it.
    """
    if arr.flags.owndata and not arr.flags.writeable:
        return arr
    return arr.copy()


def _csc_and_norms(m, row_ptr, cols, vals, col_ptr):
    """(col_rows, col_vals, row_sq_norms, col_sq_norms) of the CSR arrays.

    The column arrays are the row-major entries reordered column by column.
    Each norm adds its line's squares in row-major order.
    """
    n = col_ptr.size - 1
    lib = _blocks.load()
    if lib is None:
        rows = _entry_rows(row_ptr)
        # column-major positions are unique, so any sort gives the one order
        order = np.argsort(cols * m + rows)
        with np.errstate(over="ignore"):
            squares = vals**2
        return (rows[order], vals[order], np.bincount(rows, weights=squares, minlength=m),
                np.bincount(cols, weights=squares, minlength=n))
    col_rows = np.empty_like(cols)
    col_vals = np.empty_like(vals)
    row_sq = np.empty(m)
    col_sq = np.zeros(n)
    next_slot = col_ptr[:-1].copy()
    lib.csc_scatter(m, row_ptr.ctypes.data, cols.ctypes.data, vals.ctypes.data,
                    next_slot.ctypes.data, col_rows.ctypes.data, col_vals.ctypes.data,
                    row_sq.ctypes.data, col_sq.ctypes.data)
    return col_rows, col_vals, row_sq, col_sq
