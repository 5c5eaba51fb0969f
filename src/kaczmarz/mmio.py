"""Matrix Market and CSV plumbing.

Supported Matrix Market subset: `matrix coordinate real general` (read into a
DualSparseMatrix; duplicate coordinates sum, 1-based indices on disk) and
`matrix array real general` (read into a dense ndarray, column-major entry
order per the format). `integer` files parse as real. Everything else
(complex, pattern, any symmetry but general) raises UnsupportedFormatError.

The banner and the size line are parsed by hand; the entries are parsed in
one numpy pass and checked as arrays (entry count, index range, finiteness).
Entry tokens must be plain decimal: integers are `[+-]digits`, and neither
indices nor values may contain `_`. On an entry line `%` starts a comment
wherever it stands, as in numpy.loadtxt. When the entries are refused, the
file is scanned again line by line, only to report the first bad line by its
1-based number.

Floats are written with 17 significant digits, which round-trips float64
exactly; reading back a file this module wrote reproduces the object bit for
bit. Entries are formatted a chunk of lines at a time, to the same bytes as
one `"%d %d %s\\n" % (i, j, format_float(v))` line per entry. CSV output uses
the same float formatting, a header row, commas and LF line endings, so
identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import math
import re
import warnings

import numpy as np

from .errors import MatrixMarketError, NonFiniteError, UnsupportedFormatError
from .matrices import DualSparseMatrix

_BANNER = "%%MatrixMarket"
_COORDINATE_ENTRY = np.dtype([("i", "i8"), ("j", "i8"), ("v", "f8")])
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")
_LINES_PER_WRITE = 65536


def format_float(x):
    """Round-trip-exact decimal form of a float64."""
    return format(float(x), ".17g")


# ----------------------------------------------------------------------
# writing


def _write_lines(fh, fmt, columns):
    """Write `fmt % (c[k] for c in columns)` for every k, many lines per write."""
    width = len(columns)
    total = len(columns[0])
    for lo in range(0, total, _LINES_PER_WRITE):
        hi = min(lo + _LINES_PER_WRITE, total)
        flat = [None] * (width * (hi - lo))
        for c, col in enumerate(columns):
            flat[c::width] = col[lo:hi].tolist()
        fh.write(fmt * (hi - lo) % tuple(flat))


def write_matrix_market(path, obj, comment=None):
    """Write a DualSparseMatrix (coordinate) or ndarray (array) to `path`."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if isinstance(obj, DualSparseMatrix):
            fh.write("%s matrix coordinate real general\n" % _BANNER)
            if comment:
                fh.write("%% %s\n" % comment)
            fh.write("%d %d %d\n" % (obj.m, obj.n, obj.nnz))
            # "%.17g" % v and format_float(v) share CPython's float formatter
            lines = (obj.row_of_entry + 1, obj.row_cols + 1, obj.row_vals)
            _write_lines(fh, "%d %d %.17g\n", lines)
            return
        arr = np.asarray(obj, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise MatrixMarketError("can only write 1-D or 2-D arrays")
        if not np.isfinite(arr).all():
            raise NonFiniteError("refusing to write non-finite entries")
        fh.write("%s matrix array real general\n" % _BANNER)
        if comment:
            fh.write("%% %s\n" % comment)
        fh.write("%d %d\n" % arr.shape)
        # array format lists entries down each column in turn
        _write_lines(fh, "%.17g\n", (arr.T.ravel(),))


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


def _entries_ok(data, fmt, m, n, expected):
    """Vectorized entry checks: count, 1 <= i <= m, 1 <= j <= n, finite values."""
    if fmt == "array":
        return data.shape == (expected, 1) and bool(np.isfinite(data).all())
    if len(data) != expected:
        return False
    if not expected:
        return True
    i, j = data["i"], data["j"]
    return bool(
        i.min() >= 1 and i.max() <= m and j.min() >= 1 and j.max() <= n
        and np.isfinite(data["v"]).all()
    )


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


def read_matrix_market(path):
    """Read one Matrix Market file.

    Returns a DualSparseMatrix for coordinate files and a 2-D ndarray for
    array files.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        fmt, size_tokens, size_lineno, has_entries = _read_preamble(fh)
        m, n, expected = _parse_size(fmt, size_tokens, size_lineno)
        if fmt == "coordinate":
            dtype, ndmin = _COORDINATE_ENTRY, 1
        else:
            dtype, ndmin = np.float64, 2
        data = np.empty(0, dtype=dtype)
        if has_entries:
            try:
                with warnings.catch_warnings():
                    # numpy releases that still parse an integer token via
                    # float ("2.7" -> 2) only warn; make that a refusal here
                    warnings.simplefilter("error", DeprecationWarning)
                    data = np.loadtxt(fh, comments="%", dtype=dtype, ndmin=ndmin)
            except (ValueError, DeprecationWarning):
                data = None
    if data is None or not _entries_ok(data, fmt, m, n, expected):
        _raise_first_fault(path, fmt, m, n, expected, size_lineno)
    if fmt == "coordinate":
        return DualSparseMatrix.from_triplets(data["i"] - 1, data["j"] - 1, data["v"], (m, n))
    return data[:, 0].reshape((n, m)).T  # stored column-major


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


def read_csv(path):
    """Read back a CSV written by write_csv, as a list of dicts of strings."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))
