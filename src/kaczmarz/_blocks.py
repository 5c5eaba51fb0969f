"""Build and load the compiled kernels in _blocks.c.

The kernels are the solvers' block steps, which draw their own indices and
sum the termination checks' squares after them, DualSparseMatrix's CSC
scatter and line norms, and the Matrix Market entry formatter and parser of
kaczmarz.mmio.

The shared library is compiled on first use with the system C compiler and
cached under ${XDG_CACHE_HOME:-~/.cache}/kaczmarz/. Its file name is a hash
of the source, the flags and the machine, so an edited source or another host
never loads a stale build. A build is written to a temporary file and renamed
into place, so concurrent processes never load a partial file.

The flags fix the arithmetic: -ffp-contract=off forbids fused multiply-adds,
and there is no -ffast-math or -march=native, so every host computes the
same iterates, draws and check sums. -falign-loops=64 changes no result: it
starts every loop on a cache line, so the speed of the hot dot and axpy
loops does not hinge on where the compiler happens to place them (left to
gcc 12, the RK row loop ran 20% slower on dense rows of 400 entries on an
AMD EPYC). -pthread links the threads block_steps splits a batch's runs
over; each run is stepped and summed by one thread, so that changes no
result either. If the compiler is missing, the build fails or the library
cannot be loaded, load() logs why once and returns None, and the solvers
(drawing through sampling.sample_block), their checks, the matrix
constructor and the file reader and writer run their numpy paths instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import subprocess
import sys
import tempfile

CFLAGS = ("-O2", "-ffp-contract=off", "-falign-loops=64", "-pthread", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_blocks.c")

log = logging.getLogger(__name__)

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
# (result type, argument types) of the C functions; pointers are passed as
# raw addresses.
_SIGNATURES = {
    "block_steps": (None, (_PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _PTR)),
    "csc_scatter": (None, (_I64,) + (_PTR,) * 8),
    "format_lines": (_I64, (_PTR,) * 3 + (_I64,) * 3 + (_PTR,)),
    "parse_lines": (_I64, (_PTR,) + (_I64,) * 3 + (_PTR,) * 3),
}


class Batch(ctypes.Structure):
    """struct batch: what block_steps reads of a batch's runs."""

    _fields_ = [("m", _I64), ("n", _I64)] + [(name, _PTR) for name in (
        "row_ptr row_cols col_ptr col_rows row_vals row_sq col_vals col_sq b "
        "row_prob col_prob row_alias col_alias x z streams".split())]


def _cache_dir():
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "kaczmarz")


def _build():
    """Path of the compiled library, compiling it first if it is not cached."""
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(
        source + repr((CFLAGS, sys.platform, platform.machine())).encode()
    ).hexdigest()[:16]
    directory = _cache_dir()
    path = os.path.join(directory, "_blocks-%s.so" % key)
    if os.path.exists(path):
        return path
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *CFLAGS, "-o", tmp, SOURCE], check=True, capture_output=True, text=True
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def load():
    """The loaded kernel library, or None when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(_build())
    except (OSError, subprocess.CalledProcessError) as exc:
        # a failed compile says why on its stderr; anything else in its message
        detail = getattr(exc, "stderr", None) or exc
        log.info("compiled kernels unavailable, using the numpy paths: %s", detail)
        return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib
