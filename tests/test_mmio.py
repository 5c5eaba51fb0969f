"""File formats: the exchange-format reader/writer pair and the CSV layer."""

import decimal
import hashlib
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kaczmarz import _blocks, mmio
from kaczmarz.cli import main
from kaczmarz.errors import (
    AllZeroMatrixError,
    MatrixMarketError,
    NonFiniteError,
    UnsupportedFormatError,
)
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.mmio import (
    format_float,
    read_matrix_market,
    read_vector,
    write_csv,
    write_matrix_market,
    write_vector,
)
from kaczmarz.solvers import SolverConfig, solve

from helpers import read_csv


def per_line_bytes(obj, comment=None):
    """The writer's output formed one entry line at a time: the bytes it must keep."""
    out = []
    if isinstance(obj, DualSparseMatrix):
        out.append("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            out.append("%% %s\n" % comment)
        out.append("%d %d %d\n" % (obj.m, obj.n, obj.nnz))
        for i in range(obj.m):
            lo, hi = obj.row_ptr[i], obj.row_ptr[i + 1]
            for j, v in zip(obj.row_cols[lo:hi], obj.row_vals[lo:hi]):
                out.append("%d %d %s\n" % (i + 1, j + 1, format_float(v)))
    else:
        arr = np.asarray(obj, dtype=np.float64)
        arr = arr.reshape(arr.shape[0], -1)
        out.append("%%MatrixMarket matrix array real general\n")
        if comment:
            out.append("%% %s\n" % comment)
        out.append("%d %d\n" % arr.shape)
        for v in arr.T.ravel():
            out.append("%s\n" % format_float(v))
    return "".join(out).encode("ascii")


def bits(arr):
    """float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(arr, dtype=np.float64).view(np.uint64)


COORD = "%%MatrixMarket matrix coordinate real general\n"
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e300, 1e300, 0.1, -0.1, 1.0 / 3.0]
VALUES = st.one_of(
    st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False)
)


def test_format_float_round_trips_awkward_values():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 6.02214076e23, 1e-308, -0.0):
        assert float(format_float(x)) == x


def test_sparse_matrix_round_trip_is_bit_exact(tmp_path):
    a, _, _ = generate(InstanceSpec(kind="sparse", m=17, n=9, density=0.3, seed=1))
    p = tmp_path / "a.mtx"
    write_matrix_market(p, a, comment="round trip probe")
    back = read_matrix_market(p)
    assert isinstance(back, DualSparseMatrix)
    np.testing.assert_array_equal(back.to_dense(), a.to_dense())
    assert back.nnz == a.nnz


def test_dense_array_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((5, 3))
    p = tmp_path / "dense.mtx"
    write_matrix_market(p, arr)
    back = read_matrix_market(p)
    np.testing.assert_array_equal(back, arr)


def test_vector_round_trip(tmp_path):
    vec = np.array([0.1, -1.0 / 7.0, 3e300, 0.0])
    p = tmp_path / "v.mtx"
    write_vector(p, vec)
    np.testing.assert_array_equal(read_vector(p), vec)


def test_coordinate_file_uses_one_based_indices(tmp_path):
    a = DualSparseMatrix.from_triplets([0, 2], [0, 1], [1.5, -2.0], (3, 2))
    p = tmp_path / "idx.mtx"
    write_matrix_market(p, a)
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0].endswith("matrix coordinate real general")
    assert lines[1] == "3 2 2"
    assert lines[2].startswith("1 1 ")
    assert lines[3].startswith("3 2 ")


def test_array_file_is_column_major(tmp_path):
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = tmp_path / "cm.mtx"
    write_matrix_market(p, arr)
    data_lines = [ln for ln in p.read_text().splitlines()[2:]]
    assert [float(ln) for ln in data_lines] == [1.0, 3.0, 2.0, 4.0]


def test_reader_sums_duplicate_coordinates(tmp_path):
    p = tmp_path / "dup.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 2.0\n"
        "1 1 0.5\n"
        "2 2 1.0\n"
    )
    a = read_matrix_market(p)
    np.testing.assert_array_equal(a.to_dense(), [[2.5, 0.0], [0.0, 1.0]])


def test_reader_accepts_comments_blanks_and_integer_field(tmp_path):
    p = tmp_path / "mixed.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        "% a comment\n"
        "\n"
        "2 3 2\n"
        "% another\n"
        "1 3 7\n"
        "2 1 -4\n"
    )
    a = read_matrix_market(p)
    np.testing.assert_array_equal(a.to_dense(), [[0.0, 0.0, 7.0], [-4.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "content, lineno_fragment",
    [
        ("not a banner\n1 1 1\n1 1 1.0\n", "line 1"),
        ("%%MatrixMarket matrix coordinate real\n", "line 1"),
        ("%%MatrixMarket matrix coordinate real general\n1 1\n", "line 2"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "line 2"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "line 3"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", "line 3"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n", "line 3"),
        ("%%MatrixMarket matrix coordinate real general\n-1 2 0\n", "line 2"),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n", "line 2"),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n1.0 2.0\n", "line 4"),
        # comment and blank lines between entries still count toward line numbers
        (COORD + "% c\n\n2 2 2\n1 1 1.0\n% mid\n\n2 2 x\n", "line 8: bad numeric value 'x'"),
        (COORD + "2 2 2\n1 1 1.0\n  % mid\n\n3 1 1.0\n", "line 6: index (3, 1) outside 2x2"),
        (COORD + "2 2 2\n\n1 1 1.0\n%\n2 2 nan\n", "line 6: non-finite value 'nan'"),
        (COORD + "2 2 2\n1 1 1.0\n%\n\n2 2\n", "line 6: entry needs 'i j value'"),
        (COORD.replace("\n", "\r\n") + "2 2 1\r\n% c\r\n1 x 1.0\r\n", "line 4: bad integer 'x'"),
        (COORD + "% c\n2 2 3\n1 1 1.0\n% c\n2 2 bad\n", "line 3: expected 3 entries, found 2"),
        ("%%MatrixMarket matrix array real general\n2 1\n% c\n\n1.0\n% c\ninf\n",
         "line 7: non-finite value 'inf'"),
        # plain decimal only: int() and float() take "1_0", the format does not
        (COORD + "10 10 1\n1_0 1 1.0\n", "line 3: bad integer '1_0'"),
        (COORD + "10 10 1\n1 1 1_0.5\n", "line 3: bad numeric value '1_0.5'"),
        (COORD + "10 10 1\n1.0 1 1.0\n", "line 3: bad integer '1.0'"),
        (COORD + "1_0 10 1\n1 1 1.0\n", "line 2: bad integer '1_0'"),
        ("%%MatrixMarket matrix array real general\n2 2 2\n1.0\n",
         "line 2: array size line needs 'm n'"),
        ("%%MatrixMarket matrix array real general\n0 2\n", "line 2: bad dimensions 0 2"),
    ],
)
def test_malformed_files_report_line_numbers(kernels, tmp_path, content, lineno_fragment):
    p = tmp_path / "bad.mtx"
    p.write_text(content)
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(p)
    assert lineno_fragment in str(exc.value)


@pytest.mark.parametrize(
    "banner",
    [
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate pattern general",
        "%%MatrixMarket matrix coordinate real symmetric",
        "%%MatrixMarket vector coordinate real general",
        "%%MatrixMarket matrix elemental real general",
    ],
)
def test_unsupported_flavors_are_refused(tmp_path, banner):
    p = tmp_path / "unsup.mtx"
    p.write_text(banner + "\n1 1 1\n1 1 1.0\n")
    with pytest.raises(UnsupportedFormatError):
        read_matrix_market(p)


def test_empty_and_truncated_files(tmp_path):
    p = tmp_path / "empty.mtx"
    p.write_text("")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p)
    p.write_text("%%MatrixMarket matrix coordinate real general\n")
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(p)
    assert "size" in str(exc.value)


def test_read_vector_rejects_matrices(tmp_path):
    p = tmp_path / "wide.mtx"
    write_matrix_market(p, np.ones((2, 2)))
    with pytest.raises(MatrixMarketError):
        read_vector(p)


def test_writer_refuses_non_finite(tmp_path):
    with pytest.raises(NonFiniteError):
        write_matrix_market(tmp_path / "nan.mtx", np.array([np.nan]))
    # a refused write leaves the file already at the path as it was
    p = tmp_path / "v.mtx"
    write_vector(p, np.array([1.0, -2.5, 3.0]))
    before = p.read_bytes()
    with pytest.raises(NonFiniteError):
        write_matrix_market(p, np.array([1.0, np.inf]))
    with pytest.raises(MatrixMarketError, match="1-D or 2-D"):
        write_matrix_market(p, np.zeros((2, 2, 2)))
    assert p.read_bytes() == before


def test_csv_round_trip_and_cell_conventions(tmp_path):
    p = tmp_path / "t.csv"
    rows = [
        {"name": "a", "val": 0.1, "flag": True, "count": 3, "opt": None},
        {"name": "b", "val": -1.0 / 3.0, "flag": False, "count": 0, "opt": "x"},
    ]
    write_csv(p, ["name", "val", "flag", "count", "opt"], rows)
    text = p.read_bytes().decode()
    assert "\r" not in text  # LF only
    assert "true" in text and "false" in text
    lines = text.splitlines()
    assert lines[0] == "name,val,flag,count,opt"
    assert lines[1].endswith(",")  # None became the empty cell
    back = read_csv(p)
    assert back[0]["val"] == format_float(0.1)
    assert float(back[1]["val"]) == -1.0 / 3.0
    assert back[0]["opt"] == ""


def test_csv_is_deterministic(tmp_path):
    rows = [{"x": 1.2345678901234567, "y": 9}]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["x", "y"], rows)
    write_csv(p2, ["x", "y"], rows)
    assert p1.read_bytes() == p2.read_bytes()


# ----------------------------------------------------------------------
# vectorized reader and chunked writer


# the patched fallback path holds for every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    arr=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=7), elements=VALUES
    )
)
def test_array_round_trip_is_bit_exact_property(kernels, tmp_path_factory, arr):
    p = tmp_path_factory.mktemp("rt") / "arr.mtx"
    write_matrix_market(p, arr)
    back = read_matrix_market(p)
    assert back.shape == arr.shape
    np.testing.assert_array_equal(bits(back), bits(arr))


# the patched fallback path holds for every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    arr=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=7), elements=VALUES
    )
)
def test_coordinate_round_trip_is_bit_exact_property(kernels, tmp_path_factory, arr):
    assume(np.any(arr != 0.0))
    p = tmp_path_factory.mktemp("rt") / "coo.mtx"
    a = DualSparseMatrix.from_dense(arr)
    write_matrix_market(p, a)
    back = read_matrix_market(p)
    assert (back.m, back.n, back.nnz) == (a.m, a.n, a.nnz)
    np.testing.assert_array_equal(back.row_ptr, a.row_ptr)
    np.testing.assert_array_equal(back.row_cols, a.row_cols)
    np.testing.assert_array_equal(bits(back.row_vals), bits(a.row_vals))


def test_writer_bytes_equal_the_per_line_form(kernels, tmp_path):
    # more than one 65536-line chunk, with the awkward values mixed in
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((300, 250))
    dense[rng.random(dense.shape) < 0.05] = 0.0
    dense.ravel()[: len(AWKWARD)] = AWKWARD
    a = DualSparseMatrix.from_dense(dense)
    assert a.nnz > 65536
    vec = rng.standard_normal(70001)
    vec[: len(AWKWARD)] = AWKWARD
    cases = [(a, "kind=sparse seed=4"), (dense, None), (vec, "v"), (np.array([[-0.0]]), None)]
    for k, (obj, comment) in enumerate(cases):
        p = tmp_path / ("w%d.mtx" % k)
        write_matrix_market(p, obj, comment=comment)
        assert p.read_bytes() == per_line_bytes(obj, comment)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_and_solve_files_keep_their_bytes(kernels, tmp_path, capsys):
    mx, rhs, out = tmp_path / "A.mtx", tmp_path / "b.mtx", tmp_path / "x.mtx"
    assert main(["gen", "--kind", "sparse", "--m", "40", "--n", "12", "--density", "0.3",
                 "--seed", "11", "--matrix", str(mx), "--rhs", str(rhs)]) == 0
    # digests of the files as the one-line-per-entry writer wrote them
    assert sha256(mx) == "3d23b21e5764b019c46473f7894ace52878c5a29216a4267cd516509dca30e24"
    assert sha256(rhs) == "5097e0b01d20c4bbde77192527074fc9353bccbec32f59042baaabf3e678108e"
    assert main(["solve", "--matrix", str(mx), "--rhs", str(rhs), "--eps", "1e-8",
                 "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    # x's last bits follow the BLAS dot kernel, so its reference is formed here
    report = solve(read_matrix_market(mx), read_vector(rhs), SolverConfig(eps=1e-8, seed=1))
    expected = per_line_bytes(report.x.reshape(-1, 1), "solver=rek seed=1")
    assert sha256(out) == hashlib.sha256(expected).hexdigest()


def test_no_entries_is_an_all_zero_matrix_not_a_warning(tmp_path):
    p = tmp_path / "zero.mtx"
    p.write_text(COORD + "% nothing stored\n3 2 0\n% still nothing\n\n")
    with pytest.raises(AllZeroMatrixError):
        read_matrix_market(p)
    p.write_text(COORD + "3 2 0\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError, match="line 2: expected 0 entries, found 1"):
        read_matrix_market(p)
    p.write_text("%%MatrixMarket matrix array real general\n2 1\n% nothing\n")
    with pytest.raises(MatrixMarketError, match="line 2: expected 2 entries, found 0"):
        read_matrix_market(p)


def test_trailing_comment_on_an_entry_line_is_ignored(tmp_path):
    p = tmp_path / "tc.mtx"
    p.write_text(COORD + "2 2 1\n2 1 0.5 % note\n")
    np.testing.assert_array_equal(read_matrix_market(p).to_dense(), [[0.0, 0.0], [0.5, 0.0]])


@pytest.mark.parametrize("index", ["2.5", "1.0", "1e0"])
def test_non_integer_index_is_refused_with_warnings_hidden(tmp_path, index):
    # outside pytest, DeprecationWarnings raised in library code are hidden;
    # the refusal must not depend on a warnings filter being set
    p = tmp_path / "fi.mtx"
    p.write_text(COORD + "3 3 1\n%s 1 1.0\n" % index)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(MatrixMarketError, match="line 3: bad integer '%s'" % index):
            read_matrix_market(p)


def test_integer_via_float_fallback_is_refused(tmp_path, monkeypatch):
    # numpy releases before the fallback was removed read "2.7" into an i8
    # field as 2 and only emit a DeprecationWarning
    def lenient_loadtxt(fh, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.array([(2, 1, 1.0)], dtype=kwargs["dtype"])

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    p = tmp_path / "fb.mtx"
    p.write_text(COORD + "3 3 1\n2.7 1 1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(MatrixMarketError, match="line 3: bad integer '2.7'"):
            read_matrix_market(p)


# ----------------------------------------------------------------------
# the compiled entry parser and its numpy fallback


def outcome(path):
    """What reading `path` gives, in a form two reads can be compared by."""
    try:
        got = read_matrix_market(path)
    except (MatrixMarketError, AllZeroMatrixError) as exc:
        return type(exc), str(exc)
    if isinstance(got, DualSparseMatrix):
        return (got.m, got.n), got.row_ptr.tolist(), got.row_cols.tolist(), bits(got.row_vals).tolist()
    return got.shape, bits(got).tolist()


ARRAY = "%%MatrixMarket matrix array real general\n"
FAST = COORD + "3 3 2\n1 1 1.5\n2 3 -2.0\n"


@pytest.mark.parametrize(
    "content, defers",
    [
        (FAST, False),
        (FAST.replace("1 1", "1\t1"), False),  # one tab is a separator
        (FAST.replace("1 1", "+1 1"), False),
        (FAST.replace("1.5", ".5"), False),
        (FAST.replace("1.5", "5."), False),
        (FAST.replace("1.5", "1E5"), False),
        (FAST.replace("1.5", "-1.5e-3"), False),
        (FAST.replace("1.5", "1e-400"), False),  # underflows to 0.0 on both paths
        (FAST.replace("1.5", "1e400"), False),  # overflows, refused as non-finite
        (FAST.replace("1 1", "000000000000000001 1"), False),  # 18 digits
        (FAST.replace("1 1", "-1 1"), False),  # refused by the range check
        (ARRAY + "2 1\n5.\n.5\n", False),
        (FAST.replace("2 3 -2.0", "% mid\n2 3 -2.0"), True),
        (FAST.replace("1.5\n", "1.5 % c\n"), True),
        (FAST.replace("\n1 1", "\r\n1 1").replace("\n2 3", "\r\n2 3"), True),
        (FAST.replace("1.5\n", "1.5\r"), True),
        (FAST.replace("1.5\n", "1.5\n\n"), True),
        (FAST + "\n", True),
        (FAST[:-1], True),  # no final newline
        (FAST + "3 3", True),  # a last line past the count, without one
        (FAST.replace("1 1", "1  1"), True),
        (FAST.replace("1 1", " 1 1"), True),
        (FAST.replace("1.5", "1.5 "), True),
        (FAST.replace("1.5", "1_0"), True),
        (FAST.replace("1 1", "1_0 1"), True),
        (FAST.replace("1.5", "0x1p3"), True),
        (FAST.replace("1.5", "inf"), True),
        (FAST.replace("1.5", "nan"), True),
        (FAST.replace("1.5", "1.5e"), True),
        (FAST.replace("1 1", "0000000000000000001 1"), True),  # 19 digits
        (FAST.replace("1 1", "1.0 1"), True),
        (FAST.replace("1.5", "1.5é"), True),
        (FAST.replace("1.5", "1·5"), True),
        (FAST.replace("2 3 -2.0\n", ""), True),  # too few entries
        (FAST + "3 3 1.0\n", True),  # too many
        (ARRAY + "2 1\n5.\n1 2\n", True),
    ],
)
def test_fast_reader_defers_exactly_where_it_should(tmp_path, monkeypatch, content, defers):
    if _blocks.load() is None:
        pytest.skip("no C compiler: only the numpy reader runs here")
    p = tmp_path / "f.mtx"
    p.write_bytes(content.encode("utf-8"))
    calls = []

    def spy(fh, fmt):
        calls.append(fmt)
        return parse_loadtxt(fh, fmt)

    parse_loadtxt = mmio._parse_loadtxt
    monkeypatch.setattr(mmio, "_parse_loadtxt", spy)
    compiled = outcome(p)
    assert bool(calls) == defers
    monkeypatch.setattr(_blocks, "load", lambda: None)
    assert compiled == outcome(p)


def test_an_entry_count_the_file_cannot_hold_allocates_nothing(kernels, tmp_path):
    p = tmp_path / "huge.mtx"
    p.write_text(COORD + "10 10 1000000000000000\n1 1 1.0\n2 2 2.0\n3 3 3.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(MatrixMarketError,
                           match="line 2: expected 1000000000000000 entries, found 3"):
            read_matrix_market(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_COMMA_LOCALE_PROBE = """
import locale, sys
import numpy as np
from kaczmarz import _blocks
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.mmio import format_float, read_matrix_market, write_matrix_market

for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "ru_RU.UTF-8",
             "nl_NL.UTF-8", "it_IT.UTF-8", "es_ES.UTF-8", "pt_BR.UTF-8", "de_DE", "fr_FR"):
    try:
        locale.setlocale(locale.LC_NUMERIC, name)
    except locale.Error:
        continue
    if locale.localeconv()["decimal_point"] == ",":
        break
else:
    sys.exit(77)
lib = _blocks.load()
vals = np.array([0.1, -2.5e-17, 1e300, 1.0 / 3.0])
assert lib.format_lines(None, None, vals.ctypes.data, 0, 0, 4,
                        np.empty(4 * 72, np.uint8).ctypes.data) == -1
a = DualSparseMatrix.from_triplets([0, 0, 1, 2], [0, 2, 1, 0], vals, (3, 3))
path = sys.argv[1]
write_matrix_market(path, a)
want = "".join("%d %d %s\\n" % (i + 1, j + 1, format_float(v))
               for i, j, v in zip([0, 0, 1, 2], [0, 2, 1, 0], vals))
with open(path, "rb") as fh:
    assert fh.read().decode("ascii").split("\\n", 2)[2] == want
back = read_matrix_market(path)
assert back.row_vals.tobytes() == vals.tobytes()
"""


def test_writer_and_reader_ignore_a_comma_decimal_locale(tmp_path):
    # snprintf and strtod follow LC_NUMERIC; the compiled paths step aside there
    if _blocks.load() is None:
        pytest.skip("no C compiler: the numpy paths do not read the locale")
    proc = subprocess.run([sys.executable, "-c", _COMMA_LOCALE_PROBE, str(tmp_path / "l.mtx")],
                          capture_output=True, text=True)
    if proc.returncode == 77:
        pytest.skip("no locale with a comma decimal point is installed")
    assert proc.returncode == 0, proc.stderr


def _decimal(sign, digits, point, exponent):
    point = min(point, len(digits))
    token = sign + digits[:point] + "." + digits[point:]
    return token if exponent is None else "%se%d" % (token, exponent)


def _near_midpoint(x, precision):
    # the decimal halfway between x and the next float64 up, rounded to
    # `precision` significant digits
    mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    return str(decimal.Context(prec=precision).create_decimal(mid))


TOKENS = st.one_of(
    st.builds(_decimal, st.sampled_from(["", "-", "+"]),
              st.text("0123456789", min_size=1, max_size=24), st.integers(0, 24),
              st.one_of(st.none(), st.integers(-340, 320))),
    st.builds(_near_midpoint, st.floats(1e-300, 1e300), st.integers(15, 40)),
)


# the patched spy holds for every example
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(TOKENS, min_size=1, max_size=30))
# 19 digits that round to a float64 midpoint in 64 bits, but lie off it
@example(tokens=["8654512360476693886e-24", "8682664277854431134e-16",
                 "3884651940921152386e-22"])
def test_fast_reader_rounds_every_decimal_as_float_does(tmp_path_factory, monkeypatch, tokens):
    if _blocks.load() is None:
        pytest.skip("no C compiler: only the numpy reader runs here")
    want = np.array([float(t) for t in tokens])
    assume(np.isfinite(want).all())
    p = tmp_path_factory.mktemp("dec") / "d.mtx"
    p.write_text(ARRAY + "%d 1\n" % len(tokens) + "".join(t + "\n" for t in tokens))
    monkeypatch.setattr(mmio, "_parse_loadtxt", None)  # must not be reached
    np.testing.assert_array_equal(bits(read_matrix_market(p)[:, 0]), bits(want))
