"""Building, caching and loading the compiled kernels, the fallback to the
numpy kernels when that fails, and the thread pool of the block path."""

import os
import platform
import re
import shutil
import stat
import subprocess
import sys
import types
from importlib import resources

import numpy as np
import pytest

from conftest import NO_CLONES
from csq import _native, pipeline
from csq.cli import main
from csq.pipeline import build_model, dataset_from_matrix, embed_dataset
from oracles import draw_oracle, l1_oracle
from test_kernels import _check_embed, _points, extreme_rows, same_bits

HAS_CC = shutil.which("cc") is not None
X86_64 = platform.machine() in ("x86_64", "AMD64")


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
    for name in (
        "csq_precondition", "csq_project", "csq_quantize", "csq_draw_sparse", "csq_isa"
    ):
        assert name.encode() in _native.source()


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
def test_kernels_compile_without_warnings(tmp_path):
    """As ISO C99, with the clones and without them (NO_CLONES)."""
    src = tmp_path / "_kernels.c"
    src.write_bytes(_native.source())
    for define in ((), (NO_CLONES,)):
        flags = (
            *_native.FLAGS, *define, "-std=c99", "-Wpedantic", "-Wall", "-Wextra",
            "-Werror",
        )
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
    assert res.diagnostics.isa == _native.load().isa
    _assert_same(res, reference)
    inp = tmp_path / "points.csv"
    inp.write_text("0.01,0.02,0.0,-0.01\n-0.02,0.0,0.01,0.005\n")
    assert main([
        "embed", "--input", str(inp), "--p", "2", "--lambda-tilde", "3",
        "--r", "1", "--out-model", str(tmp_path / "m.csqm"),
        "--out-codes", str(tmp_path / "c.csqc"),
        "--out-condensed", str(tmp_path / "d.csqd"),
    ]) == 0
    assert f"kernels: native, {res.diagnostics.isa} (1 workers)" in capsys.readouterr().out


def _host_has_avx2() -> bool:
    """Whether /proc/cpuinfo lists avx2 (False where it cannot be read)."""
    try:
        with open("/proc/cpuinfo") as f:
            return any(
                line.startswith("flags") and "avx2" in line.split() for line in f
            )
    except OSError:
        return False


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diagnostics_and_cli_name_the_build_that_ran(
    baseline_kernels, monkeypatch, capsys, tmp_path
):
    """The loaded library runs its AVX2 build only on x86-64 hosts with
    AVX2 (a compiler without target_clones builds no clone at all); the
    build without clones always says baseline, in the diagnostics and on
    the CLI line."""
    loaded = _native.load()
    assert loaded is not None, _native.failure()
    assert loaded.isa in ("avx2", "baseline")
    if not (X86_64 and _host_has_avx2()):
        assert loaded.isa == "baseline"
    assert baseline_kernels.isa == "baseline"
    monkeypatch.setattr(_native, "load", lambda: baseline_kernels)
    assert _embed().diagnostics.isa == "baseline"
    inp = tmp_path / "points.csv"
    inp.write_text("0.01,0.02,0.0,-0.01\n-0.02,0.0,0.01,0.005\n")
    assert main([
        "embed", "--input", str(inp), "--p", "2", "--lambda-tilde", "3",
        "--r", "1", "--out-model", str(tmp_path / "m.csqm"),
        "--out-codes", str(tmp_path / "c.csqc"),
        "--out-condensed", str(tmp_path / "d.csqd"),
    ]) == 0
    assert "kernels: native, baseline (1 workers)" in capsys.readouterr().out


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
@pytest.mark.parametrize("k", [1, 15, 17, 513])
def test_baseline_build_gives_the_bytes_of_the_loaded_one(
    baseline_kernels, monkeypatch, k
):
    """Embed and l1 outputs of the build without clones, which a host with
    AVX2 never dispatches to, equal the loaded library's and the oracles':
    one point, partial tiles on either side of 16, and two blocks."""
    loaded = _native.load()
    assert loaded is not None, _native.failure()
    model = build_model("fjlt", 37, 4, 4, 2, seed=k)
    xs = _points(k, 37, seed=k)
    xs *= 0.3 / np.abs(xs).max()
    rows = extreme_rows(15, k, 37, seed=k)
    want_sums = np.concatenate(
        [np.zeros(0, dtype=np.int64)] + [sums for _, _, sums in l1_oracle(rows)]
    )
    outputs = []
    for kern in (loaded, baseline_kernels):
        monkeypatch.setattr(_native, "load", lambda kern=kern: kern)
        res = _check_embed(model, xs)
        sums = np.empty(want_sums.size, dtype=np.int64)
        kern.l1_pairs(rows, 0, k, sums)
        assert np.array_equal(sums, want_sums)
        outputs.append(_outputs(res))
    for got, want in zip(*outputs):
        assert np.array_equal(got, want)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
@pytest.mark.skipif(
    not X86_64 or shutil.which("objdump") is None,
    reason="needs objdump and an x86-64 host",
)
def test_library_has_no_fused_multiply_add():
    """No build in the library, the AVX2 one included, fuses a * b + c:
    a fused multiply-add skips a rounding, and the bytes would then depend
    on the CPU that ran."""
    assert _native.load() is not None, _native.failure()
    lib = _native._build(_native.cache_dir())
    text = subprocess.run(
        ["objdump", "-d", str(lib)], check=True, capture_output=True, timeout=60
    ).stdout.decode()
    assert "<csq_embed_block" in text
    assert not re.findall(r"\bvfn?m(?:add|sub)\w*", text)


# Run under the address and undefined-behaviour sanitizers: the operator
# draw, a draw that runs out of room and resumes, a draw from Philox, the
# embed over partial tiles, whole tiles and two blocks, fjlt at r = 4 over
# transforms of 1, 2, 4 and 512 rows, the record writer at every width, and
# the l1 sums of every entry dtype.
SANITIZED_RUN = """
import ctypes, sys
import numpy as np
from csq import _native
from csq.condense import pairwise_l1_blocks
from csq.pipeline import build_model, dataset_from_matrix, embed_dataset

kern = _native.Kernels(ctypes.CDLL(sys.argv[1]))
_native.load = lambda: kern
rng = np.random.default_rng(0)
for method in ("sparse", "fjlt"):
    for r in (1, 2, 3):
        for k in (1, 17, 513):
            xs = rng.standard_normal((k, 37))
            xs *= 0.3 / np.abs(xs).max()
            model = build_model(method, 37, 4, 4, r, seed=k)
            res = embed_dataset(model, dataset_from_matrix(xs))
            assert res.diagnostics.kernels == "native"
            rows = res.condensed.entries
            for dtype in _native.L1_KERNELS:
                for _ in pairwise_l1_blocks(rows.astype(dtype), 1000):
                    pass
for n in (1, 2, 3, 300):
    xs = rng.standard_normal((17, n))
    xs *= 0.3 / np.abs(xs).max()
    model = build_model("fjlt", n, 4, 4, 4, seed=n)
    assert embed_dataset(model, dataset_from_matrix(xs)).diagnostics.kernels == "native"
kern.draw_sparse(np.random.default_rng(1), 50, 64, 0.3, capacity=1)
kern.draw_sparse(np.random.Generator(np.random.Philox(1)), 50, 64, 0.3)
for width in range(1, 64):
    entries = rng.integers(-(1 << (width - 1)), 1 << (width - 1), size=(3, 5))
    kern.records(entries, width, np.empty((3, (5 * width + 7) // 8), dtype=np.uint8))
print("ok")
"""


def _libasan() -> str | None:
    """The compiler's ASan runtime, or None without one."""
    proc = subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, timeout=60
    )
    path = proc.stdout.decode().strip()
    return path if proc.returncode == 0 and os.path.isabs(path) else None


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
@pytest.mark.skipif(
    not X86_64 or platform.libc_ver()[0] != "glibc",
    reason="needs an x86-64 glibc host",
)
def test_kernels_run_clean_under_the_sanitizers(tmp_path):
    """The kernels built with AddressSanitizer and UBSan embed and sum
    without a report: no read or write outside a buffer, in the tile
    memory the kernels allocate or in the caller's arrays."""
    libasan = _libasan()
    if libasan is None:
        pytest.skip("the compiler has no libasan")
    src, lib = tmp_path / "_kernels.c", tmp_path / "kernels.so"
    src.write_bytes(_native.source())
    subprocess.run(
        ["cc", *_native.FLAGS, "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(lib), str(src)],
        check=True, capture_output=True, timeout=120,
    )
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(sys.path), LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
    )
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUN, str(lib)],
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0 and proc.stdout == b"ok\n", proc.stderr.decode()[-4000:]


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
    assert res.diagnostics.isa == ""
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


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
def test_numpy_without_the_normal_draw_draws_with_the_loop(
    fresh_loader, monkeypatch, reference
):
    """The operator draw calls NumPy's exported random_standard_normal; a
    NumPy that does not export it leaves only the draw to the numpy loop,
    and every other kernel compiled."""
    monkeypatch.setattr(_native, "_numpy_random", lambda: types.SimpleNamespace())
    assert fresh_loader.load() is not None
    assert fresh_loader.load().draw_sparse(np.random.default_rng(1), 4, 4, 0.5) is None
    res = _embed()
    assert res.diagnostics.kernels == "native"
    _assert_same(res, reference)
    model = build_model("sparse", 37, 4, 4, 2, seed=9)
    rng = np.random.default_rng(model.matrix_seed)
    want = draw_oracle(rng, model.m, model.n, model.sparsity)
    got = model.operator.matrix
    for a, b in zip((got.row_offsets, got.col_indices, got.values), want):
        assert same_bits(a, b)


@pytest.mark.skipif(not HAS_CC, reason="no C compiler 'cc' on PATH")
def test_load_leaves_numpy_random_unimported():
    """Loading the kernels does not import numpy.random; only a draw does."""
    code = (
        "import sys\n"
        "from csq import _native\n"
        "assert _native.load() is not None, _native.failure()\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0 and proc.stdout == b"False\n", proc.stderr.decode()


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
