"""Seeded instance ensembles for benchmarks and statistical checks.

Three kinds:

* "sparse": entrywise Bernoulli(density) mask times standard normals,
  columns then scaled to unit norm (columns that drew empty stay zero).
* "dense": standard normal entries, columns scaled to unit norm.
* "illcond": U diag(sigma) V^T with orthonormal factors from QR of normal
  draws and the spectrum {1, t, t, ...} where t = cond_target**-0.5, so the
  measured ratio sigma_max^2/sigma_min^2 lands on cond_target. No column
  scaling here, since it would wreck the prescribed spectrum.

The right-hand side is standard normal when consistent=False; otherwise
b = A @ planted (+ noise_scale * normal noise), with planted a standard
normal pre-image. planted equals the min-norm solution only when A has full
column rank; rank-deficient callers should ask the oracle.

Identical specs produce bit-identical instances: every draw goes through one
numpy Generator seeded from spec.seed, in a fixed order.

The sparse kind never holds an m x n array. It is drawn in chunks of row-
major positions through one 1 MB buffer, which takes a chunk's mask
uniforms and then its normals, and it is handed to the matrix constructor
as CSR arrays: the row pointer is read off the sorted positions, and the
column indices overwrite them, so no per-entry row array is formed. Its
draws and bits are still those of the whole-matrix draw: an m x n array of
mask uniforms, then an m x n array of normals, then the unit-column scaling.
Each attempt takes the mask uniforms from the generator as it stands (one
64-bit draw per double, row-major) and the normals from a copy of it
advanced by m*n draws (PCG64.advance). Afterwards
the generator takes the copy's state, so a redraw, planted and b start
where they would after the two whole arrays. The column norms add each
column's squares in row order, as numpy's norm over axis 0 of a C-ordered
array does for n >= 2; numpy sums a single column pairwise, so for n = 1
that column is formed and normed by numpy itself.

A consistent sparse b is the BLAS product over dense row blocks of a
multiple of 64 rows. It equals the whole-matrix product bit for bit wherever
the BLAS groups the rows of both alike: when the whole product runs on one
BLAS thread or fits in one block. OpenBLAS can split a larger product across
threads at a row that is not a multiple of four; then a few entries of b
differ by rounding, and the whole-matrix product itself changed with the
number of BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensityError, InvalidRangeError
from .matrices import DualSparseMatrix, _row_ptr

SPARSE = "sparse"
DENSE = "dense"
ILLCOND = "illcond"
KINDS = (SPARSE, DENSE, ILLCOND)

_MAX_REDRAWS = 16
# The sparse kind is drawn this many positions (1 MB of float64) at a time.
_DRAW_CHUNK = 1 << 17
# A consistent sparse b is formed in row blocks of about this size.
_BLOCK_BYTES = 1 << 22


@dataclass
class InstanceSpec:
    kind: str
    m: int
    n: int
    density: float = 0.25
    cond_target: float = 1e6
    consistent: bool = False
    noise_scale: float = 0.0
    seed: int = 0

    def validate(self):
        if self.kind not in KINDS:
            raise InvalidRangeError("unknown instance kind %r" % (self.kind,))
        if self.m < 1 or self.n < 1:
            raise InvalidRangeError("instance shape must be positive")
        if not (0.0 < self.density <= 1.0):
            raise InvalidRangeError("density must lie in (0, 1]")
        if self.cond_target < 1.0:
            raise InvalidRangeError("cond_target must be >= 1")
        if self.noise_scale < 0.0:
            raise InvalidRangeError("noise_scale must be >= 0")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidRangeError("seed must fit in 64 bits")


def _unit_columns(dense):
    """Scale each column of `dense` to unit norm in place; all-zero columns stay zero."""
    norms = np.linalg.norm(dense, axis=0)
    dense /= np.where(norms > 0.0, norms, 1.0)
    return dense


def _row_blocks(m, n):
    """(lo, hi) row ranges of about _BLOCK_BYTES of float64 each.

    Every range but the last spans a multiple of 64 rows, so the BLAS gemv
    kernel's groups of four rows fall on the same rows as in a one-thread
    product over the whole matrix, also where the block's own product is
    split over 2, 4, 8 or 16 threads. The last range takes any tail of fewer
    than 64 rows with it, so no range is a lone row (numpy multiplies a
    one-row matrix by a vector with another routine than gemv).
    """
    step = max(64, _BLOCK_BYTES // (8 * n) // 64 * 64)
    starts = list(range(0, m, step))
    if len(starts) > 1 and m - starts[-1] < 64:
        starts.pop()
    return zip(starts, starts[1:] + [m])


def _draw_sparse(spec, rng):
    """The sparse kind, one chunk of positions at a time; see the module docstring."""
    m, n = spec.m, spec.n
    bits = rng.bit_generator
    size = m * n
    # one buffer takes each chunk's uniforms, then its normals
    draws = np.empty(min(size, _DRAW_CHUNK))
    for _ in range(_MAX_REDRAWS):
        # the normals start where m*n uniforms of one 64-bit draw each end
        normal_bits = np.random.PCG64()
        normal_bits.state = bits.state
        normal_bits.advance(size)
        normals = np.random.Generator(normal_bits)
        keys, vals = [], []
        for lo in range(0, size, draws.size):
            chunk = draws[:size - lo]
            pos = np.flatnonzero(rng.random(out=chunk) < spec.density)
            vals.append(normals.standard_normal(out=chunk)[pos])
            pos += lo
            keys.append(pos)
        bits.state = normal_bits.state
        if any(pos.size for pos in keys):
            break
    else:
        raise DegenerateDensityError(
            "sparse draw came up empty %d times (density %g on %dx%d)"
            % (_MAX_REDRAWS, spec.density, spec.m, spec.n)
        )
    del draws, chunk
    key = np.concatenate(keys)
    del keys
    val = np.concatenate(vals)
    del vals
    if not val.all():
        # a normal drawn as exactly zero is not stored
        key, val = key[val != 0.0], val[val != 0.0]
    row_ptr = _row_ptr(key, m, n)
    if n == 1:
        # numpy norms one contiguous column by a pairwise sum, so form it;
        # with one column, each position is its row
        column = np.zeros((m, 1))
        column[key, 0] = val
        norms = np.linalg.norm(column, axis=0)
    cols = np.remainder(key, n, out=key)
    if n > 1:
        # numpy's norm over axis 0 adds the rows one at a time: row order
        norms = np.sqrt(np.bincount(cols, weights=val * val, minlength=n))
    val /= norms[cols]
    return DualSparseMatrix((m, n), row_ptr, cols, val)


def _row_block_product(a, x):
    """A @ x as the BLAS product over dense row blocks of A."""
    b = np.empty(a.m)
    for lo, hi in _row_blocks(a.m, a.n):
        p0, p1 = a.row_ptr[lo], a.row_ptr[hi]
        block = np.zeros((hi - lo, a.n))
        block[np.repeat(np.arange(hi - lo), np.diff(a.row_ptr[lo:hi + 1])),
              a.row_cols[p0:p1]] = a.row_vals[p0:p1]
        b[lo:hi] = block @ x
    return b


def _draw_dense(spec, rng):
    if spec.kind == DENSE:
        return _unit_columns(rng.standard_normal((spec.m, spec.n)))
    # illcond
    r = min(spec.m, spec.n)
    u, _ = np.linalg.qr(rng.standard_normal((spec.m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((spec.n, r)))
    sigma = np.full(r, spec.cond_target**-0.5)
    sigma[0] = 1.0
    return (u * sigma) @ v.T


def generate(spec):
    """Materialize (A, b, planted). planted is None when consistent=False."""
    spec.validate()
    rng = np.random.default_rng(int(spec.seed))
    if spec.kind == SPARSE:
        a = _draw_sparse(spec, rng)
    else:
        dense = _draw_dense(spec, rng)
        a = DualSparseMatrix.from_dense(dense)
    if spec.consistent:
        planted = rng.standard_normal(spec.n)
        b = _row_block_product(a, planted) if spec.kind == SPARSE else dense @ planted
        if spec.noise_scale > 0.0:
            b = b + spec.noise_scale * rng.standard_normal(spec.m)
    else:
        planted = None
        b = rng.standard_normal(spec.m)
    return a, b, planted
