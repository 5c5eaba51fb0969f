"""Dual-layout sparse storage and the flop-counted kernels the solvers touch.

A DualSparseMatrix keeps the same nonzero set twice, row-major (CSR) and
column-major (CSC), so that single rows and single columns are both O(nnz of
that line) to read. Construction canonicalizes triplets (duplicates summed,
entries that sum to exactly zero dropped) and caches the squared row norms,
squared column norms and the squared Frobenius norm, which the samplers and
the termination checks read constantly.

All arrays are frozen after construction. A matrix can be shared between
solver runs without defensive copies; the kernels mutate only the vectors
they are handed.

Flop accounting convention: a dot or an axpy over k stored entries costs 2k
flops. Kernels take an optional FlopCounter and add exactly what they touch,
so counts are a deterministic function of the index sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import (
    AllZeroMatrixError,
    DimensionMismatchError,
    InvalidRangeError,
    NonFiniteError,
)


class FlopCounter:
    """Mutable flop tally threaded through the kernels."""

    __slots__ = ("count",)

    def __init__(self, count=0):
        self.count = int(count)

    def add(self, n):
        self.count += n

    def __repr__(self):
        return "FlopCounter(%d)" % self.count


@dataclass(frozen=True)
class SparsityProfile:
    """Average line populations of a matrix, as used by the flop model."""

    nnz: int
    row_avg: float  # nnz / m
    col_avg: float  # nnz / n
    density: float  # nnz / (m * n)


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
        "_csr",
        "_csr_t",
        "_line_addrs",
        "_alias_tables",
    )

    def __init__(self, csr):
        """Build from a canonical scipy CSR matrix. Use the classmethods instead."""
        csr = csr.tocsr()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if csr.nnz == 0:
            raise AllZeroMatrixError("matrix has no nonzero entries")
        csc = csr.tocsc()
        self.m, self.n = (int(d) for d in csr.shape)
        self.nnz = int(csr.nnz)
        self.row_ptr = csr.indptr.astype(np.int64)
        self.row_cols = csr.indices.astype(np.int64)
        self.row_vals = np.asarray(csr.data, dtype=np.float64)
        self.col_ptr = csc.indptr.astype(np.int64)
        self.col_rows = csc.indices.astype(np.int64)
        self.col_vals = np.asarray(csc.data, dtype=np.float64)

        row_of_entry = np.repeat(np.arange(self.m), np.diff(self.row_ptr))
        col_of_entry = np.repeat(np.arange(self.n), np.diff(self.col_ptr))
        self.row_sq_norms = np.bincount(
            row_of_entry, weights=self.row_vals**2, minlength=self.m
        )
        self.col_sq_norms = np.bincount(
            col_of_entry, weights=self.col_vals**2, minlength=self.n
        )
        self.frob_sq = float(self.row_vals @ self.row_vals)
        self._csr = csr
        # A^T in CSR form shares the CSC arrays; built once, not per rmatvec.
        self._csr_t = scipy.sparse.csr_matrix(
            (self.col_vals, self.col_rows, self.col_ptr), shape=(self.n, self.m)
        )
        # Filled on first use by sampling.row_sampler / col_sampler.
        self._alias_tables = {}

        for arr in (
            self.row_ptr,
            self.row_cols,
            self.row_vals,
            self.col_ptr,
            self.col_rows,
            self.col_vals,
            self.row_sq_norms,
            self.col_sq_norms,
        ):
            arr.setflags(write=False)
        # Addresses of the frozen row and column arrays, in the order the
        # compiled block kernels take them; valid while this matrix lives.
        rows = (self.row_ptr, self.row_cols, self.row_vals, self.row_sq_norms)
        cols = (self.col_ptr, self.col_rows, self.col_vals, self.col_sq_norms)
        self._line_addrs = (
            tuple(arr.ctypes.data for arr in rows),
            tuple(arr.ctypes.data for arr in cols),
        )

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape):
        """Build from COO triplets; duplicate positions are summed.

        Entries whose duplicates cancel to exactly zero are dropped from the
        stored pattern. Raises AllZeroMatrixError if nothing survives.
        """
        m, n = (int(d) for d in shape)
        if m <= 0 or n <= 0:
            raise InvalidRangeError("matrix shape must be positive, got %dx%d" % (m, n))
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
        coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, n))
        return cls(coo.tocsr())

    @classmethod
    def from_dense(cls, dense):
        """Build from a 2-D array; exact zeros are not stored."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise DimensionMismatchError("expected a 2-D array")
        if not np.isfinite(dense).all():
            raise NonFiniteError("matrix entries must be finite")
        return cls(scipy.sparse.csr_matrix(dense))

    def to_dense(self):
        return self._csr.toarray()

    # ------------------------------------------------------------------
    # per-line kernels

    def row_nnz(self, i):
        self._check_row(i)
        return int(self.row_ptr[i + 1] - self.row_ptr[i])

    def col_nnz(self, j):
        self._check_col(j)
        return int(self.col_ptr[j + 1] - self.col_ptr[j])

    def row_dot(self, i, x, flops=None):
        """<a_i, x>, touching only the stored entries of row i."""
        self._check_row(i)
        lo = self.row_ptr[i]
        hi = self.row_ptr[i + 1]
        if flops is not None:
            flops.add(2 * int(hi - lo))
        return float(self.row_vals[lo:hi] @ x[self.row_cols[lo:hi]])

    def col_dot(self, j, z, flops=None):
        """<a^(j), z> for column j."""
        self._check_col(j)
        lo = self.col_ptr[j]
        hi = self.col_ptr[j + 1]
        if flops is not None:
            flops.add(2 * int(hi - lo))
        return float(self.col_vals[lo:hi] @ z[self.col_rows[lo:hi]])

    def row_axpy(self, i, alpha, x, flops=None):
        """x += alpha * a_i, in place, touching only stored entries."""
        self._check_row(i)
        lo = self.row_ptr[i]
        hi = self.row_ptr[i + 1]
        x[self.row_cols[lo:hi]] += alpha * self.row_vals[lo:hi]
        if flops is not None:
            flops.add(2 * int(hi - lo))

    def col_axpy(self, j, alpha, z, flops=None):
        """z += alpha * a^(j), in place."""
        self._check_col(j)
        lo = self.col_ptr[j]
        hi = self.col_ptr[j + 1]
        z[self.col_rows[lo:hi]] += alpha * self.col_vals[lo:hi]
        if flops is not None:
            flops.add(2 * int(hi - lo))

    # ------------------------------------------------------------------
    # whole-matrix products (used by termination checks and reports)

    def matvec(self, x, flops=None):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionMismatchError(
                "matvec expects a length-%d vector, got shape %r" % (self.n, x.shape)
            )
        if flops is not None:
            flops.add(2 * self.nnz)
        return self._csr @ x

    def rmatvec(self, z, flops=None):
        """A^T z."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.m,):
            raise DimensionMismatchError(
                "rmatvec expects a length-%d vector, got shape %r" % (self.m, z.shape)
            )
        if flops is not None:
            flops.add(2 * self.nnz)
        return self._csr_t @ z

    def sparsity_profile(self):
        return SparsityProfile(
            nnz=self.nnz,
            row_avg=self.nnz / self.m,
            col_avg=self.nnz / self.n,
            density=self.nnz / (self.m * self.n),
        )

    # ------------------------------------------------------------------

    def _check_row(self, i):
        if not 0 <= i < self.m:
            raise IndexError("row index %d out of range [0, %d)" % (i, self.m))

    def _check_col(self, j):
        if not 0 <= j < self.n:
            raise IndexError("column index %d out of range [0, %d)" % (j, self.n))

    def __repr__(self):
        return "DualSparseMatrix(%dx%d, nnz=%d)" % (self.m, self.n, self.nnz)
