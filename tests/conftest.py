"""Fixtures shared by the test modules.

The compiled kernels are built once per session into a private cache, so
the tests neither read nor write the user's cache. ``numpy_kernels``
switches one test to the numpy kernels by making the loader report that
no compiled kernels exist.
"""

import pytest

from csq import _native


@pytest.fixture(autouse=True, scope="session")
def _private_kernel_cache(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
    _native._load.cache_clear()
    yield
    patch.undo()
    _native._load.cache_clear()


@pytest.fixture
def numpy_kernels(monkeypatch):
    monkeypatch.setattr(_native, "load", lambda: None)


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernels before and after the test, so that it
    builds under its own environment and later tests under theirs."""
    _native._load.cache_clear()
    yield _native
    _native._load.cache_clear()
