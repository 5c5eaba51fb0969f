"""Seeded sampling: a pinned 64-bit generator and Walker/Vose alias tables.

The generator is SplitMix64 driven in counter mode: draw number k (1-based)
from seed s is mix64(s + k*GOLDEN) with the usual xorshift-multiply finalizer.
Because the state is an affine function of the draw index, any stretch of the
stream can be computed without the ones before it, and the stream is
bit-for-bit reproducible on any platform; no libc rand state is involved.

Uniform doubles are (u64 >> 11) * 2^-53, i.e. dyadic rationals in [0, 1).

Alias tables give O(1) draws from a fixed discrete distribution: one uniform
picks the cell, one uniform flips the accept/alias coin. Zero-weight indices
keep their cell but carry acceptance probability 0 and are never returned.

sample_block, the solvers' only source of indices, draws a whole block in one
call of alias_draws in the compiled _blocks.c. Where that cannot be built it
runs the same arithmetic on numpy arrays instead. Both emit the sequence of
one draw at a time (cell uniform, then coin uniform, per index), which the
tests restate as a scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blocks
from .errors import DegenerateWeightsError

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Fixed salts: one REK run derives its two independent streams (row picks,
# column picks) from the single user seed.
ROW_STREAM_SALT = 0x8BADF00D5EEDFACE
COL_STREAM_SALT = 0x0DDBA11CAFEBABE5


def mix64(z):
    """SplitMix64 output finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


class RngStream:
    """A SplitMix64 stream identified by (seed, draws consumed so far)."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed, counter=0):
        self.seed = int(seed) & MASK64
        self.counter = int(counter)

    @classmethod
    def derived(cls, seed, salt):
        """Independent stream obtained from a user seed by a fixed salt."""
        return cls(mix64((int(seed) ^ int(salt)) & MASK64))

    def uniform_block(self, count):
        """The next `count` uniforms, (mix64(seed + k*GOLDEN) >> 11) * 2^-53 for each k."""
        ks = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += int(count)
        z = np.uint64(self.seed) + ks * np.uint64(GOLDEN)  # wraps mod 2^64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)) * 2.0**-53

    def __repr__(self):
        return "RngStream(seed=%d, counter=%d)" % (self.seed, self.counter)


@dataclass(frozen=True)
class AliasTable:
    """Walker alias table over indices 0..size-1."""

    size: int
    prob: np.ndarray  # acceptance probability of each cell
    alias: np.ndarray  # fallback index of each cell


def build_alias_table(weights):
    """Vose's O(size) construction from nonnegative weights.

    Indices with zero weight are kept in the table with acceptance
    probability 0, so they are never sampled but index arithmetic stays
    aligned with the caller's numbering.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise DegenerateWeightsError("weights must be a nonempty 1-D array")
    if not np.isfinite(w).all():
        raise DegenerateWeightsError("weights must be finite")
    if (w < 0).any():
        raise DegenerateWeightsError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateWeightsError("weights must not all be zero")

    size = w.size
    if size / total == np.inf:
        # a subnormal total: scale up by an exact power of two, or the zero
        # weights would scale to 0 * inf = nan and be sampled
        w = np.ldexp(w, 600)
        total = float(w.sum())
    scaled = w * (size / total)
    prob = np.ones(size)
    alias = np.arange(size, dtype=np.int64)

    small = [k for k in range(size) if scaled[k] < 1.0]
    large = [k for k in range(size) if scaled[k] >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)

    # Leftovers hold ~1 unit of mass up to roundoff and accept outright.
    # A zero-weight cell can only be left over if roundoff starved it of a
    # donor; keep it unreachable rather than giving it spurious mass.
    heaviest = int(np.argmax(w))
    for k in small:
        if w[k] == 0.0:
            prob[k] = 0.0
            alias[k] = heaviest
        else:
            prob[k] = 1.0
    prob.setflags(write=False)
    alias.setflags(write=False)
    return AliasTable(size=size, prob=prob, alias=alias)


def sample_block(table, rng, count):
    """`count` draws, each from one uniform for the cell and the next for the coin."""
    lib = _blocks.load()
    if lib is not None:
        size, prob, alias = table.size, table.prob, table.alias
        # the kernel reads prob[cell] and alias[cell] for cells 0..size-1
        for arr, dtype in ((prob, np.float64), (alias, np.int64)):
            if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
                    and arr.shape == (size,) and arr.flags.c_contiguous and size >= 1):
                raise ValueError("alias table needs C-contiguous %s arrays of its size %r"
                                 % (np.dtype(dtype).name, size))
        out = np.empty(count, dtype=np.int64)
        lib.alias_draws(rng.seed, rng.counter, size, prob.ctypes.data, alias.ctypes.data,
                        count, out.ctypes.data)
        rng.counter += 2 * count
        return out
    u = rng.uniform_block(2 * count)
    cells = (u[0::2] * table.size).astype(np.int64)
    np.minimum(cells, table.size - 1, out=cells)
    return np.where(u[1::2] < table.prob[cells], cells, table.alias[cells])


def reconstructed_mass(table):
    """Probability actually assigned to each index by the table.

    Index k is returned when its own cell accepts, or when any cell aliased
    to k rejects: (prob[k] + sum over l with alias[l]==k of (1-prob[l])) / size.
    """
    mass = table.prob.copy()
    np.add.at(mass, table.alias, 1.0 - table.prob)
    return mass / table.size


def _cached_table(a, key, weights):
    # The matrix is immutable, so its tables are built once and kept on it.
    table = a._alias_tables.get(key)
    if table is None:
        table = a._alias_tables[key] = build_alias_table(weights)
    return table


def row_sampler(a):
    """Alias table over rows of a DualSparseMatrix, weighted by squared norms.

    Built on the first call for a matrix and reused by every later one.
    """
    return _cached_table(a, "row", a.row_sq_norms)


def col_sampler(a):
    """Alias table over columns, weighted by squared norms; built once per matrix."""
    return _cached_table(a, "col", a.col_sq_norms)
