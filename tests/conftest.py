"""Fixtures shared by the test modules.

The compiled kernels are built once per session into a private cache, so
the tests neither read nor write the user's cache. They are built before
the first test, so that no test's own time includes the compiler's.
``numpy_kernels`` switches one test to the numpy kernels by making the
loader report that no compiled kernels exist; ``baseline_loader``
switches it to the kernels compiled without their AVX2 clones, which a
host with AVX2 never runs otherwise.

Every test starts and ends with an empty seeded-operator cache, so that
it draws its operators with its own kernel set and counts its own draws.
"""

import ctypes
import shutil
import subprocess

import pytest

from csq import _native, pipeline

# The define that leaves the kernels' CLONES macro empty (see _kernels.c).
NO_CLONES = "-DCSQ_NO_CLONES"


@pytest.fixture(autouse=True, scope="session")
def _private_kernel_cache(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
    _native._load.cache_clear()
    _native.load()
    yield
    patch.undo()
    _native._load.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_operators():
    pipeline._seeded_operator.cache_clear()
    yield
    pipeline._seeded_operator.cache_clear()


@pytest.fixture
def numpy_kernels(monkeypatch):
    monkeypatch.setattr(_native, "load", lambda: None)


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernels and NumPy's normal draw before and after
    the test, so that it loads them under its own environment and later
    tests under theirs."""
    _native._load.cache_clear()
    _native._normal.cache_clear()
    yield _native
    _native._load.cache_clear()
    _native._normal.cache_clear()


@pytest.fixture(scope="session")
def baseline_kernels(tmp_path_factory):
    """The kernels compiled with the loader's flags and ``NO_CLONES``: the
    baseline build alone."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc' on PATH")
    work = tmp_path_factory.mktemp("baseline")
    src, lib = work / "_kernels.c", work / "kernels.so"
    src.write_bytes(_native.source())
    subprocess.run(
        ["cc", *_native.FLAGS, NO_CLONES, "-o", str(lib), str(src)],
        check=True, capture_output=True, timeout=120,
    )
    return _native.Kernels(ctypes.CDLL(str(lib)))


@pytest.fixture
def baseline_loader(monkeypatch, baseline_kernels):
    monkeypatch.setattr(_native, "load", lambda: baseline_kernels)
