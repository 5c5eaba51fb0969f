"""The compiled kernels in _blocks.c, called directly.

Each C function is held to the computation it stands in for: the block
kernel's entry counts to the index arrays' line populations and its iterates
to a plain-Python transcription of the steps, the check sums to sequential
sums of squares of the numpy products, both bit for bit,
and the entry formatter to Python's "%.17g" formatting, byte for byte (the
CSC scatter and the entry parser are held to their numpy twins in
test_matrices.py and test_mmio.py). The source itself must compile without a warning, and the ctypes signatures
must match the functions it defines.
"""

import ctypes
import math
import re
import shutil
import subprocess
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kaczmarz import _blocks
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.solvers import REK, RK, ROP, _bind, _line_nnz


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


def _structs(source):
    """{name: [(field, type)]} of the structs defined in C source, pointers as c_void_p."""
    source = re.sub(r"/\*.*?\*/", " ", source, flags=re.S)
    found = {}
    for name, body in re.findall(r"^struct (\w+) \{(.*?)\};", source, flags=re.M | re.S):
        fields = []
        for decl in body.split(";")[:-1]:
            first, *more = decl.split(",")
            base, head = re.match(r"\s*(?:const\s+)?(\w+)\s+(.*)", first, flags=re.S).groups()
            for declarator in [head] + more:
                kind = ctypes.c_void_p if "*" in declarator else _CTYPES[base]
                fields.append((declarator.strip(" *\n"), kind))
        found[name] = fields
    return found


def test_signatures_name_exactly_the_exported_functions():
    # ctypes trusts argtypes and struct fields blindly: a stale entry corrupts
    # memory without an error
    with open(_blocks.SOURCE) as fh:
        source = fh.read()
    exported = _exported_functions(source)
    assert exported == _blocks._SIGNATURES
    assert set(exported) == {"block_steps", "check_sums", "csc_scatter", "format_lines",
                             "parse_lines"}
    structs = _structs(source)
    # struct share, one thread's part of a call, never crosses into Python
    assert set(structs) == {"batch", "share"}
    assert structs["batch"] == _blocks.Batch._fields_


def test_kernels_take_their_bytes_from_their_callers():
    # the file reader of kaczmarz.mmio reads the pieces parse_lines parses
    with open(_blocks.SOURCE) as fh:
        code = re.sub(r"/\*.*?\*/", " ", fh.read(), flags=re.S)
    calls = set(re.findall(r"\b(\w+)\s*\(", code))
    assert not calls & {"fopen", "fread", "fseek", "ferror", "fclose", "malloc", "free"}


def test_parse_lines_goes_on_from_the_entry_it_is_given(lib):
    rows, cols, vals = (np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), np.zeros(3))
    addrs = [a.ctypes.data for a in (rows, cols, vals)]

    def parse(text, k):
        buf = np.frombuffer(text, dtype=np.uint8)
        return lib.parse_lines(buf.ctypes.data, buf.size, k, 3, *addrs)

    assert parse(b"1 2 0.5\n", 0) == 1
    assert parse(b"3 4 -2\n5\t6 1e3\n", 1) == 3
    assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([1, 3, 5], [2, 4, 6],
                                                             [0.5, -2.0, 1000.0])
    assert parse(b"", 3) == 3
    assert parse(b"1 1 1\n", 3) == -1  # past the count
    assert parse(b"1 1 1", 0) == -1  # the last line unended
    assert parse(b"1 1 x\n", 0) == -1


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


def _dense(seed, m=12, n=7):
    # every line full: the kernels read v without the index gather
    rng = np.random.default_rng(seed)
    return DualSparseMatrix.from_dense(rng.standard_normal((m, n))), rng


@pytest.mark.parametrize("matrix", [_with_empty_lines, _dense])
@pytest.mark.parametrize("halves", ["both", "x only", "z only"])
def test_check_sums_are_sequential_sums_over_the_numpy_products(lib, halves, matrix):
    a, rng = matrix(31)
    b = rng.standard_normal(a.m)
    x = None if halves == "z only" else rng.standard_normal(a.n)
    z = None if halves == "x only" else rng.standard_normal(a.m)
    run_x, run_z, _, sums = _bind(a, b, {"both": REK, "x only": RK, "z only": ROP}[halves], [0])
    if x is not None:
        run_x[0] = x
    if z is not None:
        run_z[0] = z
    (got,) = sums().tolist()
    want = [0.0] * 5
    if x is not None:
        resid = a.matvec(x) - (b if z is None else b - z)
        want[0], want[2], want[4] = (_sequential_sum_sq(v) for v in (resid, x, b))
    if z is not None:
        want[1], want[3] = _sequential_sum_sq(a.rmatvec(z)), _sequential_sum_sq(z)
    assert got == want
    assert all(v > 0.0 for v, w in zip(got, want) if w)


def _block_steps(lib, a, b, x, z, rows, cols, count):
    """block_steps on a batch of one run, x and z its only rows: the entries it visited."""
    def addr(v):
        return None if v is None else v.ctypes.data

    lines = (a.row_ptr, a.row_cols, a.col_ptr, a.col_rows,
             a.row_vals, a.row_sq_norms, a.col_vals, a.col_sq_norms, b)
    # given indices only: the alias tables are not read, nor the streams moved
    streams = np.zeros((1, 2, 2), dtype=np.uint64)
    batch = _blocks.Batch(a.m, a.n, *map(addr, lines), None, None, None, None, addr(x), addr(z),
                          addr(streams))
    listed, touched = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    lib.block_steps(ctypes.byref(batch), addr(listed), 1, addr(rows), addr(cols), count,
                    addr(touched))
    assert not streams.any()
    return int(touched[0])


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

    # a half left out ignores its index array, and ROP does not read b
    bad_rows = np.array([0, a.m], dtype=np.int64)
    bad_cols = np.array([0, -1], dtype=np.int64)
    if x is None:
        assert _block_steps(lib, a, None, x, z, bad_rows, cols, 2) == _line_nnz(a.col_ptr, cols[:2])
    if z is None:
        assert _block_steps(lib, a, b, x, z, rows, bad_cols, 2) == _line_nnz(a.row_ptr, rows[:2])


def _reference_steps(a, b, x, z, rows, cols):
    """The steps of REK (RK with z None, ROP with x None) in plain Python.

    For each k in the paper's order: the row target with z_i from before the
    column step, the column step on z, then the row step on x; every dot
    sums its line's stored entries left to right, every axpy updates them
    in order. Returns the new x and z as float64 arrays.
    """
    x = None if x is None else x.tolist()
    z = None if z is None else z.tolist()
    b = b.tolist()
    row_ptr, row_cols, row_vals, row_sq = (v.tolist() for v in (
        a.row_ptr, a.row_cols, a.row_vals, a.row_sq_norms))
    col_ptr, col_rows, col_vals, col_sq = (v.tolist() for v in (
        a.col_ptr, a.col_rows, a.col_vals, a.col_sq_norms))

    def dot(ptr, idx, vals, line, v):
        s = 0.0
        for k in range(ptr[line], ptr[line + 1]):
            s += vals[k] * v[idx[k]]
        return s

    def axpy(ptr, idx, vals, line, alpha, v):
        for k in range(ptr[line], ptr[line + 1]):
            v[idx[k]] += alpha * vals[k]

    for i, j in zip(rows.tolist(), cols.tolist()):
        if x is not None:
            target = b[i] - z[i] if z is not None else b[i]
        if z is not None:
            scale = dot(col_ptr, col_rows, col_vals, j, z) / col_sq[j]
            axpy(col_ptr, col_rows, col_vals, j, -scale, z)
        if x is not None:
            resid = (target - dot(row_ptr, row_cols, row_vals, i, x)) / row_sq[i]
            axpy(row_ptr, row_cols, row_vals, i, resid, x)
    return tuple(None if v is None else np.array(v) for v in (x, z))


def _sparse_40x6(rng):
    # density 0.8: about a quarter of the rows full, no column full
    dense = np.where(rng.random((40, 6)) < 0.8, rng.standard_normal((40, 6)), 0.0)
    dense[np.arange(40), rng.integers(0, 6, 40)] = rng.standard_normal(40)  # no empty row
    return dense


def _dense_12x7_with_zeros(rng):
    # full rows and columns next to ones a zero or two short of full
    dense = rng.standard_normal((12, 7))
    dense[[1, 4, 4, 9, 10], [2, 5, 0, 2, 6]] = 0.0
    return dense


@pytest.mark.parametrize("block", [1, 2, 300])
@pytest.mark.parametrize("matrix", [_sparse_40x6, _dense_12x7_with_zeros])
@pytest.mark.parametrize("halves", ["both", "x only", "z only"])
def test_block_steps_are_the_sequential_steps_bit_for_bit(lib, halves, matrix, block):
    rng = np.random.default_rng(41)
    a = DualSparseMatrix.from_dense(matrix(rng))
    row_len, col_len = np.diff(a.row_ptr), np.diff(a.col_ptr)
    assert row_len.all() and col_len.all()
    assert (row_len == a.n).any() and (row_len < a.n).any() and (col_len < a.m).any()
    steps = 600
    rows = rng.integers(0, a.m, steps)
    cols = rng.integers(0, a.n, steps)
    b = rng.standard_normal(a.m)
    x = None if halves == "z only" else np.zeros(a.n)
    z = None if halves == "x only" else b.copy()
    want = _reference_steps(a, b, x, z, rows, cols)
    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        _block_steps(lib, a, b, x, z, rows[lo:hi], cols[lo:hi], hi - lo)
    for got, ref in zip((x, z), want):
        assert (got is None) == (ref is None)
        assert got is None or got.tobytes() == ref.tobytes()


# the %g exponent switch points and the ends of the float64 range, each with
# its neighbour below
_FORMAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
                 0.1, 1.0 / 3.0]
for _edge in (1e-11, 1e-5, 1e-4, 1e16, 1e17):
    _FORMAT_EDGES += [_edge, -_edge, math.nextafter(_edge, 0.0)]
# decimals one half past a 17-digit number: their rounding is a near-tie
_NEAR_TIES = st.builds(lambda d, e: float("%d5e%d" % (d, e)),
                       st.integers(10**16, 10**17 - 1), st.integers(-40, 20))


def _format_lines(lib, vals, row_ptr=None, row_cols=None, lo=0):
    buf = np.empty(max(vals.size - lo, 1) * 72, dtype=np.uint8)
    row = 0 if row_ptr is None else int(np.searchsorted(row_ptr, lo, side="right")) - 1
    addrs = [None if a is None else a.ctypes.data for a in (row_ptr, row_cols, vals)]
    size = lib.format_lines(*addrs, row, lo, vals.size, buf.ctypes.data)
    return buf[:size].tobytes().decode("ascii")


# the lib fixture only skips; it is the same for every example
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vals=st.lists(st.one_of(st.sampled_from(_FORMAT_EDGES), _NEAR_TIES,
                               st.floats(allow_nan=False)), min_size=1, max_size=40),
       data=st.data())
def test_format_lines_writes_what_python_formats(lib, vals, data):
    vals = np.array(vals)
    # rows of 0-5 entries, the last row taking what is left
    row_nnz = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    row_ptr = np.minimum(np.concatenate([[0], np.cumsum(row_nnz)]), vals.size)
    row_ptr[-1] = vals.size
    row_cols = np.array(data.draw(st.lists(st.integers(0, 2**63 - 2), min_size=vals.size,
                                           max_size=vals.size)), dtype=np.int64)
    lo = data.draw(st.integers(0, vals.size - 1))
    rows = np.searchsorted(row_ptr, np.arange(vals.size), side="right") - 1
    assert _format_lines(lib, vals, lo=lo) == "".join("%.17g\n" % v for v in vals[lo:])
    assert _format_lines(lib, vals, row_ptr, row_cols, lo) == "".join(
        "%d %d %.17g\n" % (i + 1, j + 1, v)
        for i, j, v in zip(rows[lo:], row_cols[lo:], vals[lo:]))


def _exact_ties(rng, per_k):
    """Doubles halfway between two 17-digit decimals, which round to the even one."""
    ties = []
    for k in range(1, 24):
        # N 2^-(k+1) 10^k = N 5^k / 2, an odd number of halves for odd N
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        if lo < hi:
            ties += [math.ldexp(int(n) | 1, -(k + 1)) for n in rng.integers(lo, hi, per_k)]
    return ties


def test_format_lines_rounds_ties_edges_and_powers_of_two_as_python(lib):
    rng = np.random.default_rng(7)
    vals = _exact_ties(rng, 200)
    vals += [math.ldexp(1.0, e) for e in range(-1074, 1024)]  # every power of two
    for decade in range(-12, 19):  # either side of each 10^d, 1e-11 and 1e17 among them
        edge = float("1e%d" % decade)
        below = above = edge
        for _ in range(20):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            vals += [below, above]
        vals += [edge, float("9" * 17 + "e%d" % (decade - 17))]  # rounds up to 10^d
    bits = rng.integers(0, 2**63, 20000, dtype=np.int64).view(np.float64)
    vals += bits[np.isfinite(bits)].tolist()  # every exponent, mostly outside 1e-11 .. 1e17
    vals += (10 ** rng.uniform(-11, 17, 20000)).tolist()
    vals = np.array(vals + [-v for v in vals])
    assert _format_lines(lib, vals) == "".join("%.17g\n" % v for v in vals)


def test_format_lines_writes_indices_of_every_width(lib):
    cols = np.array([10**k + d for k in range(19) for d in (-1, 0)] + [2**63 - 2],
                    dtype=np.int64)
    vals = np.ones(cols.size)
    row_ptr = np.array([0, cols.size], dtype=np.int64)
    assert _format_lines(lib, vals, row_ptr, cols) == "".join("1 %d 1\n" % (j + 1) for j in cols)
