"""Build and load the compiled kernels in _blocks.c.

The shared library is compiled on first use with the system C compiler and
cached under ${XDG_CACHE_HOME:-~/.cache}/kaczmarz/. Its file name is a hash
of the source, the flags and the machine, so an edited source or another host
never loads a stale build. A build is written to a temporary file and renamed
into place, so concurrent processes never load a partial file.

The flags fix the arithmetic: -ffp-contract=off forbids fused multiply-adds,
and there is no -ffast-math or -march=native, so every host computes the
same iterates, draws and check sums. If the compiler is missing, the build
fails or the library cannot be loaded, load() logs why once and returns None,
and the sampler, the solvers and their checks run their numpy paths instead.
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

CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_blocks.c")

log = logging.getLogger(__name__)

_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_PTR = ctypes.c_void_p
# (result type, argument types) of the C functions; pointers are passed as
# raw addresses.
_SIGNATURES = {
    "alias_draws": (None, (_U64, _U64, _I64, _PTR, _PTR, _I64, _PTR)),
    "rop_block": (_I64, (_I64,) + (_PTR,) * 6 + (_I64,)),
    "rk_block": (_I64, (_I64,) + (_PTR,) * 7 + (_I64,)),
    "rek_block": (_I64, (_I64, _I64) + (_PTR,) * 13 + (_I64,)),
    "check_sums": (None, (_I64, _I64) + (_PTR,) * 10),
}


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
