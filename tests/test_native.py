"""Building, caching and loading the compiled kernels, the fallback to the
numpy kernels when that fails, and the thread pool of the block path."""

import os
import shutil
import stat
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from csq import _native, pipeline
from csq.cli import main
from csq.pipeline import build_model, dataset_from_matrix, embed_dataset

HAS_CC = shutil.which("cc") is not None


def _embed(method="fjlt", k=700):
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((k, 37))
    xs[3] = 0.0
    xs[4] = -0.0
    xs *= 0.1 / np.linalg.norm(xs, axis=1).max()
    return embed_dataset(build_model(method, 37, 4, 4, 2, seed=1), dataset_from_matrix(xs))


def _outputs(res):
    bits = np.stack([code.bits for code in res.codes])
    return res.condensed.entries, bits, res.diagnostics.amplitude_violations


@pytest.fixture(scope="module")
def reference():
    """Outputs of the numpy kernels, which every path must reproduce."""
    patch = pytest.MonkeyPatch()
    patch.setattr(_native, "load", lambda: None)
    try:
        res = _embed()
    finally:
        patch.undo()
    assert res.diagnostics.kernels == "numpy"
    return _outputs(res)


def _assert_same(res, reference):
    for got, want in zip(_outputs(res), reference):
        assert np.array_equal(got, want)


def test_kernel_source_ships_with_the_package():
    src = resources.files("csq").joinpath("_kernels.c")
    assert src.is_file()
    assert src.read_bytes() == _native.source()
    for name in ("csq_precondition", "csq_project", "csq_quantize"):
        assert name.encode() in _native.source()


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
def test_kernels_compile_without_warnings(tmp_path):
    src = tmp_path / "_kernels.c"
    src.write_bytes(_native.source())
    flags = (*_native.FLAGS, "-Wall", "-Wextra", "-Werror")
    proc = subprocess.run(
        ["cc", *flags, "-o", str(tmp_path / "kernels.so"), str(src)],
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
def test_native_path_is_active_when_cc_is_on_path(reference, capsys, tmp_path):
    res = _embed()
    assert res.diagnostics.kernels == "native", res.diagnostics.kernels_note
    assert res.diagnostics.workers == min(_native._worker_count(), 2)
    _assert_same(res, reference)
    inp = tmp_path / "points.csv"
    inp.write_text("0.01,0.02,0.0,-0.01\n-0.02,0.0,0.01,0.005\n")
    assert main([
        "embed", "--input", str(inp), "--p", "2", "--lambda-tilde", "3",
        "--r", "1", "--out-model", str(tmp_path / "m.csqm"),
        "--out-codes", str(tmp_path / "c.csqc"),
        "--out-condensed", str(tmp_path / "d.csqd"),
    ]) == 0
    assert "kernels: native (1 workers)" in capsys.readouterr().out


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
def test_build_is_cached_in_a_private_directory(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert fresh_loader.load() is not None
    cache = tmp_path / "csq"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    (lib,) = cache.iterdir()
    assert lib.name.startswith("kernels-") and lib.suffix == ".so"
    # A second process-level load reuses the library without a compiler.
    fresh_loader._load.cache_clear()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert fresh_loader.load() is not None
    assert list(cache.iterdir()) == [lib]


def test_no_compiler_falls_back_to_numpy(fresh_loader, monkeypatch, tmp_path, reference):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    res = _embed()
    assert res.diagnostics.kernels == "numpy"
    assert res.diagnostics.workers == 1
    assert "no C compiler" in res.diagnostics.kernels_note
    _assert_same(res, reference)


def test_compile_error_falls_back_to_numpy(fresh_loader, monkeypatch, tmp_path, reference):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "source", lambda: b"this is not C\n")
    res = _embed()
    assert res.diagnostics.kernels == "numpy"
    if HAS_CC:
        assert res.diagnostics.kernels_note.startswith("compile failed")
    _assert_same(res, reference)


def test_unusable_cache_directory_falls_back_to_numpy(
    fresh_loader, monkeypatch, tmp_path, reference
):
    # A regular file where the cache directory's parent should be: mkdir
    # fails even for the superuser.
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    res = _embed()
    assert res.diagnostics.kernels == "numpy"
    assert res.diagnostics.kernels_note
    _assert_same(res, reference)


def test_shared_cache_directory_is_refused(fresh_loader, monkeypatch, tmp_path, reference):
    cache = tmp_path / "csq"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    res = _embed()
    assert res.diagnostics.kernels == "numpy"
    assert "not a private directory" in res.diagnostics.kernels_note
    _assert_same(res, reference)


def test_cli_reports_numpy_kernels_and_why(numpy_kernels, capsys, tmp_path):
    inp = tmp_path / "points.csv"
    inp.write_text("0.01,0.02,0.0,-0.01\n-0.02,0.0,0.01,0.005\n")
    assert main([
        "embed", "--input", str(inp), "--p", "2", "--lambda-tilde", "3",
        "--r", "1", "--out-model", str(tmp_path / "m.csqm"),
        "--out-codes", str(tmp_path / "c.csqc"),
        "--out-condensed", str(tmp_path / "d.csqd"),
    ]) == 0
    assert "kernels: numpy (native kernels not loaded)" in capsys.readouterr().out


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
def test_more_workers_than_cpus_with_rapid_switching(monkeypatch, reference):
    """Six threads on short switch intervals write disjoint rows; a lost or
    misplaced block would change the bytes."""
    monkeypatch.setattr(_native, "_worker_count", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            res = _embed(k=700)
            assert res.diagnostics.workers == 2
            _assert_same(res, reference)
        big = _embed(k=6 * pipeline._BLOCK + 5)
    finally:
        sys.setswitchinterval(interval)
    assert big.diagnostics.workers == 6
    monkeypatch.setattr(_native, "load", lambda: None)
    for got, want in zip(_outputs(big), _outputs(_embed(k=6 * pipeline._BLOCK + 5))):
        assert np.array_equal(got, want)


def test_import_starts_no_compiler_and_no_pool():
    code = (
        "import sys, csq.cli\n"
        "bad = {'subprocess', 'concurrent.futures', 'csq._native'} & set(sys.modules)\n"
        "assert not bad, bad\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
