"""The names the benchmark's tracer patches still exist, and come back unpatched.

perfbench/tracing.py swaps recording wrappers in for functions of the package
by name, so renaming or dropping one of them breaks the benchmark, whose own
suite is not part of this one. Installing and uninstalling its Recorder here
catches that in the package's tests.
"""

import importlib.util
import os

import pytest

from kaczmarz import solvers, verify

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.mark.skipif(not os.path.exists(TRACING), reason="no perfbench/tracing.py in this tree")
def test_the_tracer_patches_existing_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checks = ["%s_termination_check" % solver for solver in ("rek", "rk", "rop")]
    originals = (solvers.run_rek, solvers._RUNNERS, verify.ALL_CHECKS, verify.sample_block,
                 *(getattr(solvers, name) for name in checks))
    recorder = tracing.Recorder()
    try:
        recorder.install()
        assert solvers.run_rek is not originals[0]
        # the termination checks are looked up by name once per batch
        for name, original in zip(checks, originals[4:]):
            assert getattr(solvers, name) is not original
            assert getattr(solvers, name).__wrapped__ is original
    finally:
        recorder.uninstall()
    restored = (solvers.run_rek, solvers._RUNNERS, verify.ALL_CHECKS, verify.sample_block,
                *(getattr(solvers, name) for name in checks))
    assert all(got is want for got, want in zip(restored, originals))
