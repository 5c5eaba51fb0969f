"""Deterministic SVD-backed oracle for min-norm least-squares ground truth.

Everything the statistical checks compare against comes from here: the
minimum-norm solution, the split of the right-hand side into its column-space
and orthogonal parts, and the two condition measures. The solvers never call
into this module; it densifies the matrix and works at desk scale only
(guarded by a dense-work cap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroMatrixError,
    DimensionMismatchError,
    NonFiniteError,
    TooLargeError,
)
from .matrices import DualSparseMatrix

# Dense-work cap: refuse anything bigger than ~2000x2000 worth of entries.
MAX_DENSE_ENTRIES = 4_000_000


@dataclass(frozen=True)
class ReferenceSolution:
    """Oracle output for one (A, b) instance."""

    x_ls: np.ndarray  # minimum-norm least-squares solution
    singular_values: np.ndarray  # all of them, descending
    rank: int
    b_range: np.ndarray  # projection of b onto the column space
    b_perp: np.ndarray  # b - b_range
    kappa_f_sq: float  # ||A||_F^2 / sigma_min^2 (sigma_min = smallest kept)
    cond_sq: float  # sigma_max^2 / sigma_min^2
    row_basis: np.ndarray  # n x rank orthonormal basis of the row space
    m: int
    n: int
    nnz: int


def _as_dense(a):
    """`a` as a dense float64 array and its nonzero count, refused by shape past the cap."""
    sparse = isinstance(a, DualSparseMatrix)
    if not sparse:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionMismatchError("expected a matrix (2-D array)")
    m, n = (a.m, a.n) if sparse else a.shape
    if m * n > MAX_DENSE_ENTRIES:
        raise TooLargeError(
            "oracle is dense-only; %dx%d exceeds the %d-entry cap"
            % (m, n, MAX_DENSE_ENTRIES)
        )
    if sparse:
        return a.to_dense(), a.nnz
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")
    return a, int(np.count_nonzero(a))


def min_norm_solve(a, b):
    """Rank-revealing min-norm least-squares solve of A x ~ b.

    Singular values at or below 8*max(m,n)*machine_epsilon*sigma_max are
    treated as zero.
    """
    dense, nnz = _as_dense(a)
    m, n = dense.shape
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m,):
        raise DimensionMismatchError(
            "rhs must have length %d, got shape %r" % (m, b.shape)
        )
    if not np.isfinite(b).all():
        raise NonFiniteError("rhs entries must be finite")

    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    rank_tol = 8.0 * max(m, n) * np.finfo(np.float64).eps
    sigma_max = float(s[0]) if s.size else 0.0
    if sigma_max == 0.0:
        raise AllZeroMatrixError("matrix has no nonzero entries")
    rank = int(np.count_nonzero(s > rank_tol * sigma_max))

    u_r = u[:, :rank]
    v_r = vt[:rank].T
    s_r = s[:rank]
    coeffs = u_r.T @ b
    x_ls = v_r @ (coeffs / s_r)
    b_range = u_r @ coeffs
    b_perp = b - b_range
    frob_sq = float((dense * dense).sum())
    sigma_min = float(s_r[-1])

    v_r = v_r.copy()
    v_r.setflags(write=False)
    sing = s.copy()
    sing.setflags(write=False)
    return ReferenceSolution(
        x_ls=x_ls,
        singular_values=sing,
        rank=rank,
        b_range=b_range,
        b_perp=b_perp,
        kappa_f_sq=frob_sq / sigma_min**2,
        cond_sq=(sigma_max / sigma_min) ** 2,
        row_basis=v_r,
        m=m,
        n=n,
        nnz=nnz,
    )
