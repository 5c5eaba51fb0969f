"""The compiled kernels in _blocks.c, called directly.

Each C function is held to the numpy computation it stands in for: the
block kernels' entry counts to the index arrays' line populations, and the
check sums to sequential sums of squares of the numpy products, bit for bit.
The source itself must compile without a warning.
"""

import shutil
import subprocess

import numpy as np
import pytest

from kaczmarz import _blocks
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.solvers import _check_sums, _line_nnz


@pytest.fixture
def lib():
    lib = _blocks.load()
    if lib is None:
        pytest.skip("no C compiler: only the numpy paths run here")
    return lib


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings():
    flags = [f for f in _blocks.CFLAGS if f != "-shared"]
    proc = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", *flags, _blocks.SOURCE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _with_empty_lines(seed, m=40, n=30):
    # lines of ~20 entries, and two empty rows and two empty columns
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((m, n)) < 0.6, rng.standard_normal((m, n)), 0.0)
    dense[[3, 7]] = 0.0
    dense[:, [2, 5]] = 0.0
    return DualSparseMatrix.from_dense(dense), rng


def _sequential_sum_sq(v):
    return float(np.cumsum(v * v)[-1])


@pytest.mark.parametrize("halves", ["both", "x only", "z only"])
def test_check_sums_are_sequential_sums_over_the_numpy_products(lib, halves):
    a, rng = _with_empty_lines(31)
    b = rng.standard_normal(a.m)
    x = None if halves == "z only" else rng.standard_normal(a.n)
    z = None if halves == "x only" else rng.standard_normal(a.m)
    got = _check_sums(a, b, x, z)
    want = [0.0] * 5
    if x is not None:
        resid = a.matvec(x) - (b if z is None else b - z)
        want[0], want[2], want[4] = (_sequential_sum_sq(v) for v in (resid, x, b))
    if z is not None:
        want[1], want[3] = _sequential_sum_sq(a.rmatvec(z)), _sequential_sum_sq(z)
    assert got == tuple(want)
    assert all(v > 0.0 for v, w in zip(got, want) if w)


def test_block_kernels_return_the_entries_they_visit(lib):
    a, rng = _with_empty_lines(32)
    rows = rng.choice(np.flatnonzero(a.row_sq_norms), 200).astype(np.int64)
    cols = rng.choice(np.flatnonzero(a.col_sq_norms), 200).astype(np.int64)
    b, x, z = rng.standard_normal(a.m), np.zeros(a.n), rng.standard_normal(a.m)
    row_nnz, col_nnz = _line_nnz(a.row_ptr, rows), _line_nnz(a.col_ptr, cols)
    assert lib.rop_block(a.n, *a._line_addrs[1], z.ctypes.data, cols.ctypes.data,
                         cols.size) == col_nnz
    assert lib.rk_block(a.m, *a._line_addrs[0], b.ctypes.data, x.ctypes.data,
                        rows.ctypes.data, rows.size) == row_nnz
    assert lib.rek_block(a.m, a.n, *a._line_addrs[0], *a._line_addrs[1], b.ctypes.data,
                         x.ctypes.data, z.ctypes.data, rows.ctypes.data, cols.ctypes.data,
                         rows.size) == row_nnz + col_nnz
    bad = np.array([0, a.n], dtype=np.int64)
    assert lib.rop_block(a.n, *a._line_addrs[1], z.ctypes.data, bad.ctypes.data, 2) == -1
