"""The compiled kernels in _blocks.c, called directly.

Each C function is held to the numpy computation it stands in for: the
block kernel's entry counts to the index arrays' line populations, and the
check sums to sequential sums of squares of the numpy products, bit for bit.
The source itself must compile without a warning, and the ctypes signatures
must match the functions it defines.
"""

import ctypes
import re
import shutil
import subprocess
import textwrap

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


# C parameter and result types as ctypes passes them; pointers go as addresses
_CTYPES = {"void": None, "int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64,
           "double": ctypes.c_double}


def _exported_functions(source):
    """{name: (result, parameter types)} of the non-static functions defined in C source."""
    source = re.sub(r"/\*.*?\*/", " ", source, flags=re.S)
    found = {}
    for head, name, params in re.findall(r"^(\w[\w ]*?)\s+(\w+)\(([^)]*)\)\s*\{", source,
                                         flags=re.M):
        if "static" in head.split():
            continue
        types = []
        for param in params.split(","):
            if "*" in param:
                types.append(ctypes.c_void_p)
            elif param.strip() != "void":
                types.append(_CTYPES[param.split()[-2]])
        found[name] = (_CTYPES[head.split()[-1]], tuple(types))
    return found


def test_signatures_name_exactly_the_exported_functions():
    # ctypes trusts argtypes blindly: a stale entry corrupts memory without an error
    with open(_blocks.SOURCE) as fh:
        exported = _exported_functions(fh.read())
    assert exported == _blocks._SIGNATURES
    assert set(exported) == {"alias_draws", "block_steps", "check_sums"}


def test_signature_parser_reads_declarations_it_must_not_miss():
    source = textwrap.dedent("""
    /* int64_t commented_out(int64_t a) { */
    static double helper(const double *v, int64_t n)
    {
    }
    void two_lines(uint64_t s,
                   const double *p, int64_t k)
    {
    }
    int64_t no_args(void)
    {
    }
    """)
    assert _exported_functions(source) == {
        "two_lines": (None, (ctypes.c_uint64, ctypes.c_void_p, ctypes.c_int64)),
        "no_args": (ctypes.c_int64, ()),
    }


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


def _block_steps(lib, a, b, x, z, rows, cols, count):
    def addr(v):
        return None if v is None else v.ctypes.data

    return lib.block_steps(a.m, a.n, *a._line_addrs[0], *a._line_addrs[1], addr(b), addr(x),
                           addr(z), addr(rows), addr(cols), count)


@pytest.mark.parametrize("halves", ["both", "x only", "z only"])
def test_block_kernels_return_the_entries_they_visit(lib, halves):
    a, rng = _with_empty_lines(32)
    rows = rng.choice(np.flatnonzero(a.row_sq_norms), 200).astype(np.int64)
    cols = rng.choice(np.flatnonzero(a.col_sq_norms), 200).astype(np.int64)
    b = rng.standard_normal(a.m)
    x = None if halves == "z only" else np.zeros(a.n)
    z = None if halves == "x only" else rng.standard_normal(a.m)
    row_nnz = _line_nnz(a.row_ptr, rows) if x is not None else 0
    col_nnz = _line_nnz(a.col_ptr, cols) if z is not None else 0
    assert row_nnz + col_nnz > 0
    assert _block_steps(lib, a, b, x, z, rows, cols, rows.size) == row_nnz + col_nnz

    # an index out of range in a half that runs refuses the block untouched
    before = [None if v is None else v.copy() for v in (x, z)]
    bad_rows = np.array([0, a.m], dtype=np.int64)
    bad_cols = np.array([0, -1], dtype=np.int64)
    if x is not None:
        assert _block_steps(lib, a, b, x, z, bad_rows, cols, 2) == -1
    if z is not None:
        assert _block_steps(lib, a, b, x, z, rows, bad_cols, 2) == -1
    for got, want in zip((x, z), before):
        assert got is None or np.array_equal(got, want)
    # a half left out ignores its index array, and ROP does not read b
    if x is None:
        assert _block_steps(lib, a, None, x, z, bad_rows, cols, 2) == _line_nnz(a.col_ptr, cols[:2])
    if z is None:
        assert _block_steps(lib, a, b, x, z, rows, bad_cols, 2) == _line_nnz(a.row_ptr, rows[:2])
