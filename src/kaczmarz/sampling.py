"""Seeded sampling: a pinned 64-bit generator and Walker/Vose alias tables.

The generator is SplitMix64 driven in counter mode: draw number k (1-based)
from seed s is mix64(s + k*GOLDEN) with the usual xorshift-multiply finalizer.
Because the state is an affine function of the draw index, any stretch of the
stream can be computed without the ones before it, and the stream is
bit-for-bit reproducible on any platform; no libc rand state is involved.

Uniform doubles are (u64 >> 11) * 2^-53, i.e. dyadic rationals in [0, 1).
A stream is the pair (seed, draws used), a length-2 uint64 array: its next
draw is number draws used + 1, and drawing moves the second entry on.

Alias tables give O(1) draws from a fixed discrete distribution: one uniform
picks the cell, one uniform flips the accept/alias coin. Zero-weight indices
keep their cell but carry acceptance probability 0 and are never returned.

sample_block draws a whole block on numpy arrays, in the sequence of one
draw at a time (cell uniform, then coin uniform, per index), which the tests
restate as a scalar reference. Each run of a solver batch owns two streams,
rows of the batch's `streams` array. The solvers' compiled block kernel in
_blocks.c draws by the same arithmetic itself, inside its step loop, and
moves those rows in place; where that cannot be built, sample_block draws
from the same rows and moves them alike.

A table is checked (_check_table) on every use: by each sample_block call,
and once when a compiled batch is bound, which is when the addresses of its
prob and alias arrays are taken. The check covers every alias entry, as
neither path range-checks its draws.
"""

from __future__ import annotations

import array
from dataclasses import dataclass

import numpy as np

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
    """SplitMix64 output finalizer on a 64-bit integer; _mix64_array is its array form."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z):
    """mix64 of each entry of a uint64 array, which wraps mod 2^64 as mix64 masks."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def derived_seeds(seeds, salt):
    """mix64(s ^ salt) for each s in `seeds`, as a uint64 array: the seeds of the runs' streams."""
    return _mix64_array(np.asarray(seeds, dtype=np.uint64) ^ np.uint64(salt))


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
    # Vose's loop on Python lists and floats, writing the table into typed
    # arrays: the same order and the same double arithmetic as on numpy
    # scalars, several times faster, and no Python int object per cell
    scaled = w * (size / total)
    small = np.flatnonzero(scaled < 1.0).tolist()
    large = np.flatnonzero(scaled >= 1.0).tolist()
    scaled = scaled.tolist()
    prob = array.array("d", [1.0]) * size
    alias = array.array("q", range(size))
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
    prob = np.frombuffer(prob)
    alias = np.frombuffer(alias, dtype=np.int64)
    prob.setflags(write=False)
    alias.setflags(write=False)
    return AliasTable(size=size, prob=prob, alias=alias)


def _check_table(table):
    """Refuse (ValueError) a table whose `size` cells could not all be drawn from.

    Both arrays must be C-contiguous of its size, and every alias entry must
    lie in [0, size).
    """
    size = table.size
    for arr, dtype in ((table.prob, np.float64), (table.alias, np.int64)):
        if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
                and arr.shape == (size,) and arr.flags.c_contiguous and size >= 1):
            raise ValueError("alias table needs C-contiguous %s arrays of its size %r"
                             % (np.dtype(dtype).name, size))
    if not (0 <= table.alias.min() and table.alias.max() < size):
        raise ValueError("alias table entries must lie in [0, %d)" % size)


def sample_block(table, stream, count):
    """`count` draws from `stream`, which moves on by the 2 * count uniforms they take.

    `stream` is a (seed, draws used) uint64 pair, moved in place. Each draw
    takes one uniform for the cell and the next for the coin.
    """
    _check_table(table)  # refuses a malformed table before the stream moves
    seed, used = (int(v) for v in stream)
    ks = np.arange(used + 1, used + 2 * count + 1, dtype=np.uint64)
    stream[1] = used + 2 * count
    z = _mix64_array(np.uint64(seed) + ks * np.uint64(GOLDEN))  # wraps mod 2^64
    u = (z >> np.uint64(11)) * 2.0**-53
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
