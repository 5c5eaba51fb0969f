"""Session set-up and fixtures shared by every test module."""

import contextlib
import shutil
import tempfile
import warnings

import pytest

from kaczmarz import _blocks


def pytest_configure(config):
    """Build the compiled kernels into a fresh cache directory.

    Every session then exercises a cold build, and nothing is written to the
    user's ~/.cache. This runs before collection, because test modules build
    matrices at import and the matrix constructor loads the kernels.
    Subprocesses started by tests inherit the variable.
    """
    path = tempfile.mkdtemp(prefix="kaczmarz-cache-")
    mp = pytest.MonkeyPatch()
    mp.setenv("XDG_CACHE_HOME", path)
    config.add_cleanup(lambda: shutil.rmtree(path, ignore_errors=True))
    config.add_cleanup(mp.undo)


@contextlib.contextmanager
def _no_runtime_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(params=["compiled", "fallback"])
def kernels(request, monkeypatch):
    """Run the test on the compiled kernels and on the numpy fallback.

    Gives the name of the path that runs. The patch holds for the whole test,
    so every hypothesis example of a property runs on the same path.
    """
    if request.param == "fallback":
        monkeypatch.setattr(_blocks, "load", lambda: None)
    elif _blocks.load() is None:
        pytest.skip("no C compiler: only the numpy fallback runs here")
    return request.param


@pytest.fixture
def overflow_warnings(kernels):
    """The context to run an overflowing solve in, on either path of `kernels`.

    The fallback's numpy products and norms warn about the overflow, the
    compiled sums must not warn at all.
    """
    if kernels == "fallback":
        return lambda: pytest.warns(RuntimeWarning, match="overflow")
    return _no_runtime_warning
