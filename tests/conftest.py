"""Session set-up and fixtures shared by every test module."""

import contextlib
import warnings

import pytest

from kaczmarz import _blocks


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled block kernels into a fresh cache directory.

    Every session then exercises a cold build, and nothing is written to the
    user's ~/.cache. Subprocesses started by tests inherit the variable.
    """
    path = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(path))
        yield path


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
