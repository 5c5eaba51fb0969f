"""Matrix Market and CSV plumbing.

Supported Matrix Market subset: `matrix coordinate real general` (read into a
DualSparseMatrix; duplicate coordinates sum, 1-based indices on disk) and
`matrix array real general` (read into a dense ndarray, column-major entry
order per the format). `integer` files parse as real. Everything else
(complex, pattern, any symmetry but general) raises UnsupportedFormatError.

The banner and the size line are parsed by hand; the entries are parsed in
one pass and checked as arrays (entry count, index range, finiteness).
Entry tokens must be plain decimal: integers are `[+-]digits`, and neither
indices nor values may contain `_`. On an entry line `%` starts a comment
wherever it stands, as in numpy.loadtxt. When the entries are refused, the
file is scanned again line by line, only to report the first bad line by its
1-based number.

The entry pass is parse_entries in the compiled _blocks.c where that is
built. It reads the file in 1 MB chunks and takes only a strict grammar: one
space or tab between tokens, indices of at most 18 digits, plain decimal
values, `\\n` line ends, no comment or blank line among the entries and
exactly the announced number of them. Any other file, and every file when
the kernels are not built, goes to numpy.loadtxt, so the accepted files, the
values (both parsers round correctly) and every error message are the same
on both paths.

Floats are written with 17 significant digits, which round-trips float64
exactly; reading back a file this module wrote reproduces the object bit for
bit. Entries are formatted a chunk of lines at a time, by format_lines in
_blocks.c or else in Python, to the same bytes as one
`"%d %d %s\\n" % (i, j, format_float(v))` line per entry. CSV output uses
the same float formatting, a header row, commas and LF line endings, so
identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import math
import os
import re
import warnings

import numpy as np

from . import _blocks
from .errors import MatrixMarketError, NonFiniteError, UnsupportedFormatError
from .matrices import DualSparseMatrix

_BANNER = "%%MatrixMarket"
_COORDINATE_ENTRY = np.dtype([("i", "i8"), ("j", "i8"), ("v", "f8")])
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")
_LINES_PER_WRITE = 65536
_LINE_BYTES = 72  # the longest entry line format_lines in _blocks.c can write


def format_float(x):
    """Round-trip-exact decimal form of a float64."""
    return format(float(x), ".17g")


# ----------------------------------------------------------------------
# writing


def _write_lines(fh, fmt, columns):
    """Write `fmt % (c[k] for c in columns)` for every k in one write."""
    flat = [None] * (len(columns) * len(columns[0]))
    for c, col in enumerate(columns):
        flat[c::len(columns)] = col.tolist()
    fh.write((fmt * len(columns[0]) % tuple(flat)).encode("ascii"))


def _write_entries(fh, vals, row_ptr=None, row_cols=None):
    """One line per entry, `_LINES_PER_WRITE` lines per write.

    The lines are "i j v" (1-based) for the CSR arrays row_ptr/row_cols/vals,
    "v" alone without them. The compiled formatter writes them where it runs,
    `_write_lines` otherwise; both give the bytes of one
    `"%d %d %s\\n" % (i, j, format_float(v))` per entry, since "%.17g" % v and
    format_float(v) share CPython's float formatter.
    """
    lib = _blocks.load()
    if lib is not None:
        buf = np.empty(min(vals.size, _LINES_PER_WRITE) * _LINE_BYTES, dtype=np.uint8)
        addrs = [None if a is None else a.ctypes.data for a in (row_ptr, row_cols, vals)]
    for lo in range(0, vals.size, _LINES_PER_WRITE):
        hi = min(lo + _LINES_PER_WRITE, vals.size)
        # the row that holds entry lo
        row = 0 if row_ptr is None else int(np.searchsorted(row_ptr, lo, side="right")) - 1
        size = -1 if lib is None else lib.format_lines(*addrs, row, lo, hi, buf.ctypes.data)
        if size >= 0:
            fh.write(buf[:size])
        elif row_ptr is None:
            _write_lines(fh, "%.17g\n", (vals[lo:hi],))
        else:
            rows = np.searchsorted(row_ptr, np.arange(lo, hi), side="right")  # 1-based
            _write_lines(fh, "%d %d %.17g\n", (rows, row_cols[lo:hi] + 1, vals[lo:hi]))


def _head(fmt, comment, size):
    """The banner, the optional comment and the size line, as bytes."""
    lines = ["%s matrix %s real general" % (_BANNER, fmt)]
    if comment:
        lines.append("% " + comment)
    lines.append(size)
    return ("\n".join(lines) + "\n").encode("ascii")


def write_matrix_market(path, obj, comment=None):
    """Write a DualSparseMatrix (coordinate) or ndarray (array) to `path`."""
    if isinstance(obj, DualSparseMatrix):
        head = _head("coordinate", comment, "%d %d %d" % (obj.m, obj.n, obj.nnz))
        entries = (obj.row_vals, obj.row_ptr, obj.row_cols)
    else:
        arr = np.asarray(obj, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        # refused before `path` is opened, so an existing file keeps its bytes
        if arr.ndim != 2:
            raise MatrixMarketError("can only write 1-D or 2-D arrays")
        if not np.isfinite(arr).all():
            raise NonFiniteError("refusing to write non-finite entries")
        head = _head("array", comment, "%d %d" % arr.shape)
        # array format lists entries down each column in turn
        entries = (arr.T.ravel(),)
    with open(path, "wb") as fh:
        fh.write(head)
        _write_entries(fh, *entries)


def write_vector(path, vec, comment=None):
    write_matrix_market(path, np.asarray(vec, dtype=np.float64).reshape(-1, 1), comment)


# ----------------------------------------------------------------------
# reading


def _parse_float(token, lineno):
    try:
        if "_" in token:  # float() takes "1_0"; numpy and the format do not
            raise ValueError(token)
        value = float(token)
    except ValueError:
        raise MatrixMarketError("bad numeric value %r" % token, lineno) from None
    if not math.isfinite(value):
        raise MatrixMarketError("non-finite value %r" % token, lineno)
    return value


def _parse_int(token, lineno):
    if not _PLAIN_INT.fullmatch(token):
        raise MatrixMarketError("bad integer %r" % token, lineno)
    return int(token)


def _parse_banner(line, lineno):
    """Check the header line and return its format, coordinate or array."""
    if not line.startswith(_BANNER):
        raise MatrixMarketError("expected header starting with %r" % _BANNER, lineno)
    parts = line.split()
    if len(parts) != 5:
        raise MatrixMarketError("header needs 5 tokens, got %d" % len(parts), lineno)
    _, obj, fmt, fieldkind, symmetry = (p.lower() for p in parts)
    if obj != "matrix":
        raise UnsupportedFormatError("unsupported object %r" % obj, lineno)
    if fmt not in ("coordinate", "array"):
        raise UnsupportedFormatError("unsupported format %r" % fmt, lineno)
    if fieldkind not in ("real", "integer"):
        raise UnsupportedFormatError("unsupported field %r" % fieldkind, lineno)
    if symmetry != "general":
        raise UnsupportedFormatError("unsupported symmetry %r" % symmetry, lineno)
    return fmt


def _read_preamble(fh):
    """Parse the banner and the size line, leaving `fh` at the first entry.

    Returns (fmt, size_tokens, size_lineno, has_entries). Lines are read one
    at a time so that their numbers are exact.
    """
    fmt = size_tokens = None
    lineno = size_lineno = 0
    while True:
        pos = fh.tell()
        raw = fh.readline()
        if not raw:
            break
        lineno += 1
        line = raw.strip()
        if fmt is None:
            fmt = _parse_banner(line, lineno)
        elif not line or line.startswith("%"):
            continue
        elif size_tokens is None:
            size_tokens, size_lineno = line.split(), lineno
        else:
            fh.seek(pos)
            return fmt, size_tokens, size_lineno, True
    if fmt is None:
        raise MatrixMarketError("empty file", 1)
    if size_tokens is None:
        raise MatrixMarketError("missing size line", lineno + 1)
    return fmt, size_tokens, size_lineno, False


def _check_coordinate_entry(tokens, lineno, m, n):
    if len(tokens) != 3:
        raise MatrixMarketError("entry needs 'i j value'", lineno)
    i = _parse_int(tokens[0], lineno)
    j = _parse_int(tokens[1], lineno)
    if not (1 <= i <= m and 1 <= j <= n):
        raise MatrixMarketError("index (%d, %d) outside %dx%d" % (i, j, m, n), lineno)
    _parse_float(tokens[2], lineno)


def _check_array_entry(tokens, lineno, m, n):
    if len(tokens) != 1:
        raise MatrixMarketError("array entry must be a single value", lineno)
    _parse_float(tokens[0], lineno)


def _parse_size(fmt, tokens, lineno):
    """(m, n, number of entries) from the size line."""
    if fmt == "coordinate":
        if len(tokens) != 3:
            raise MatrixMarketError("coordinate size line needs 'm n nnz'", lineno)
        m, n, nnz = (_parse_int(t, lineno) for t in tokens)
        if m < 1 or n < 1 or nnz < 0:
            raise MatrixMarketError("bad dimensions %d %d %d" % (m, n, nnz), lineno)
        return m, n, nnz
    if len(tokens) != 2:
        raise MatrixMarketError("array size line needs 'm n'", lineno)
    m, n = (_parse_int(t, lineno) for t in tokens)
    if m < 1 or n < 1:
        raise MatrixMarketError("bad dimensions %d %d" % (m, n), lineno)
    return m, n, m * n


def _entries_ok(entries, m, n, expected):
    """Vectorized entry checks: count, 1 <= i <= m, 1 <= j <= n, finite values."""
    *ij, v = entries
    if len(v) != expected:
        return False
    if ij and expected:
        i, j = ij
        if not (i.min() >= 1 and i.max() <= m and j.min() >= 1 and j.max() <= n):
            return False
    return bool(np.isfinite(v).all())


def _raise_first_fault(path, fmt, m, n, expected, size_lineno):
    """Rescan the entries line by line and raise for the first fault.

    Diagnostics only: called after the vectorized parse or its checks have
    refused the file, it always raises. A wrong entry count takes precedence
    over a bad line, and is reported on the size line.
    """
    check = _check_coordinate_entry if fmt == "coordinate" else _check_array_entry
    found = 0
    fault = None
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split("%", 1)[0].split()
            if lineno <= size_lineno or not tokens:
                continue
            found += 1
            if fault is None:
                try:
                    check(tokens, lineno, m, n)
                except MatrixMarketError as exc:
                    fault = exc
    if found != expected:
        raise MatrixMarketError("expected %d entries, found %d" % (expected, found), size_lineno)
    if fault is not None:
        raise fault
    raise MatrixMarketError("entries could not be parsed", size_lineno)


def _parse_compiled(path, offset, fmt, expected):
    """The entries from byte `offset` on by the compiled parser, or None.

    None when the parser is not built, or refuses the file: anything outside
    its strict grammar (see _blocks.c) goes to numpy.loadtxt instead. Arrays
    are sized by the entry count only where the rest of the file can hold
    that many lines, of at least 6 bytes ("1 1 1\\n") or 2 ("1\\n").
    """
    lib = _blocks.load()
    min_line = 6 if fmt == "coordinate" else 2
    if lib is None or not 0 < expected <= (os.path.getsize(path) - offset) // min_line:
        return None
    vals = np.empty(expected)
    ij = (np.empty(expected, dtype=np.int64), np.empty(expected, dtype=np.int64))
    addrs = (a.ctypes.data for a in ij) if fmt == "coordinate" else (None, None)
    if lib.parse_entries(os.fsencode(path), offset, expected, *addrs, vals.ctypes.data) < 0:
        return None
    return (*ij, vals) if fmt == "coordinate" else (vals,)


def _parse_loadtxt(fh, fmt):
    """The entries from the position of `fh` on by numpy.loadtxt, or None."""
    try:
        with warnings.catch_warnings():
            # numpy releases that still parse an integer token via
            # float ("2.7" -> 2) only warn; make that a refusal here
            warnings.simplefilter("error", DeprecationWarning)
            if fmt == "coordinate":
                data = np.loadtxt(fh, comments="%", dtype=_COORDINATE_ENTRY, ndmin=1)
                return data["i"], data["j"], data["v"]
            data = np.loadtxt(fh, comments="%", dtype=np.float64, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return (data[:, 0],) if data.shape[1] == 1 else None


def read_matrix_market(path):
    """Read one Matrix Market file.

    Returns a DualSparseMatrix for coordinate files and a 2-D ndarray for
    array files.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        fmt, size_tokens, size_lineno, has_entries = _read_preamble(fh)
        m, n, expected = _parse_size(fmt, size_tokens, size_lineno)
        if has_entries:
            entries = _parse_compiled(path, fh.tell(), fmt, expected) or _parse_loadtxt(fh, fmt)
        elif fmt == "coordinate":
            entries = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
        else:
            entries = (np.empty(0),)
    if entries is None or not _entries_ok(entries, m, n, expected):
        _raise_first_fault(path, fmt, m, n, expected, size_lineno)
    if fmt == "coordinate":
        # The reader's own arrays, made 0-based in place, are handed over:
        # from_triplets keeps the columns and values, frozen here, as they
        # are. Popped into the call, the rows have no other reference, so
        # they are freed as soon as their row pointer is formed.
        entries = list(entries)
        entries[0] -= 1
        entries[1] -= 1
        entries[1].setflags(write=False)
        entries[2].setflags(write=False)
        return DualSparseMatrix.from_triplets(entries.pop(0), entries.pop(0), entries.pop(0),
                                              (m, n))
    return entries[0].reshape((n, m)).T  # stored column-major


def read_vector(path):
    """Read an array-format file that must be a single column."""
    arr = read_matrix_market(path)
    if isinstance(arr, DualSparseMatrix) or arr.shape[1] != 1:
        raise MatrixMarketError("expected a single-column array file: %s" % path)
    return arr[:, 0].copy()


# ----------------------------------------------------------------------
# CSV


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, fieldnames, rows):
    """Write dict rows with deterministic formatting (17-digit floats, LF)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_cell(row[name]) for name in fieldnames])
