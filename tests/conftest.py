"""Session set-up shared by every test module."""

import pytest


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
