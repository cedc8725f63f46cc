"""Build, cache and load the compiled kernels of ``_kernels.c``: the embed
path, the draw of the sparse Gaussian operator, and the l1 sums and CSV
line assembly of ``csq query --all-pairs``.

The source ships with the package. The first :func:`load` compiles it with
the system C compiler ``cc`` into a per-user cache directory and loads the
shared library with ``ctypes``; later calls, and later processes, reuse it.
The file name carries the sha256 of the source, the compiler flags and the
machine type, so a changed source or flag set builds a new library. When
anything fails (no compiler, a compile error, an unusable cache directory,
a library that does not load) :func:`load` returns None, :func:`failure`
says why, and the caller runs the numpy kernels instead. Nothing here runs
at import.

The flags leave out ``-ffast-math`` (which reorders floating-point sums)
and ``-march=native`` (which may enable fused multiply-add and makes the
library depend on the build host); ``-ffp-contract=off`` forbids fusing
``a * b + c`` even where the target has such an instruction. Those keep
every result bit-identical to the numpy kernels. The query kernels do
integer arithmetic and copy bytes, so their results are exact. The
operator draw steps the caller's bit generator through NumPy's public C
interface and calls NumPy's own normal draw, so it consumes the stream and
rounds every value as the numpy loop does. That normal draw is looked up on
the first draw; a NumPy that does not export it leaves the draw to the
numpy loop and every other kernel compiled.

On x86-64 with glibc the one library holds a baseline and an AVX2 build
of the embed and l1 kernels (``target_clones``), and the dynamic loader
picks one when the library loads, by the CPU it runs on. The AVX2 build
enables no FMA and gives the same bytes, so the cache key names no CPU
feature, and a library cached on one host runs on any x86-64 host that
shares the cache. ``Kernels.isa`` says which build runs.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
from pathlib import Path

import numpy as np

FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

# Points per tile of the preconditioned block; TILE in _kernels.c.
TILE = 16
# Bytes csq_pair_lines copies per number and per short text; NUM and TEXT
# in _kernels.c.
NUM, TEXT = 24, 32

# NumPy's standard normal draw from a bitgen_t, the function
# Generator.standard_normal calls, exported by the extension module that
# defines Generator (numpy/random/_examples/cffi/extending.py reads it the
# same way).
NORMAL = "random_standard_normal"

_int, _i64, _f64 = ctypes.c_int, ctypes.c_int64, ctypes.c_double
_ptr = ctypes.c_void_p
# The l1 pair kernel of each row dtype.
L1_KERNELS = {
    np.dtype(np.int8): "csq_l1_pairs_i8",
    np.dtype(np.int16): "csq_l1_pairs_i16",
    np.dtype(np.int32): "csq_l1_pairs_i32",
    np.dtype(np.int64): "csq_l1_pairs_i64",
}
_SIGNATURES = {
    "csq_precondition": (None, [_ptr, _i64, _i64, _ptr, _i64, _ptr]),
    "csq_project": (None, [_ptr, _ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr]),
    "csq_quantize": (
        _int, [_ptr, _i64, _i64, _ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr]
    ),
    "csq_records": (None, [_ptr, _i64, _i64, _i64, _ptr]),
    "csq_embed_block": (
        _int,
        [_ptr, _i64, _i64, _ptr, _i64, _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _i64,
         _ptr, _i64, _i64, _ptr, _ptr, _ptr, _ptr],
    ),
    **{
        name: (None, [_ptr, _i64, _i64, _i64, _i64, _ptr])
        for name in L1_KERNELS.values()
    },
    "csq_pair_lines": (
        _i64, [_ptr, _i64, _i64, _i64, _i64, _ptr, _ptr, _ptr, _i64, _ptr, _i64]
    ),
    "csq_draw_sparse": (
        _i64, [_ptr, _ptr, _i64, _i64, _i64, _f64, _ptr, _ptr, _ptr, _i64]
    ),
    "csq_isa": (_int, []),
}


def _worker_count() -> int:
    """CPUs this process may run on: the threads the kernels' callers use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def source() -> bytes:
    """The kernel source shipped as package data."""
    from importlib import resources

    return resources.files(__package__).joinpath("_kernels.c").read_bytes()


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/csq``, else ``~/.cache/csq``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "csq"


def _taps(quantizer) -> tuple[np.ndarray, np.ndarray]:
    """A :class:`csq.sigma_delta.QuantizerSpec`'s tap positions and weights
    as the kernels take them."""
    return (
        np.array(quantizer.positions, dtype=np.int64),
        np.array(quantizer.weights, dtype=np.float64),
    )


def _check(a: np.ndarray, dtype, size: int) -> int:
    """Address of a C-contiguous array of at least ``size`` items."""
    if a.dtype != dtype or not a.flags.c_contiguous or a.size < size:
        raise ValueError(f"kernel buffer must be C-contiguous {dtype} of >= {size}")
    return a.ctypes.data


class Kernels:
    """Typed entry points into the loaded library; each checks its buffers
    before passing pointers. ctypes releases the GIL during every call.

    The embed kernels take what the package's types have checked when they
    were made: finite input rows (a :class:`csq.pipeline.Dataset`) and the
    CSR arrays of a :class:`csq.transforms.SparseGaussianMatrix` (read-only
    C-ordered int64/float64, offsets rising from 0 to nnz, every column in
    range), which they read in place.

    :meth:`embed_block` is the embed path: it reads the operator, the
    quantizer taps and the condensation kernel from the model, and the C
    kernel allocates its own tile of working memory. :meth:`precondition`,
    :meth:`project` and :meth:`quantize` (which also condenses and packs)
    run one stage each, and :meth:`records` the record writer, so that
    every kernel can be compared with its numpy counterpart on its own.
    :meth:`draw_sparse` draws the operator; :meth:`l1_pairs` and
    :meth:`pair_lines` serve the all-pairs query.

    ``isa`` is ``"avx2"`` when the embed and l1 kernels run their AVX2
    build, ``"baseline"`` otherwise.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        self.isa = "avx2" if lib.csq_isa() else "baseline"

    @staticmethod
    def tiled_size(b: int, n_pad: int) -> int:
        """Doubles in a tiled block of b points (see ``_kernels.c``)."""
        return -(-b // TILE) * TILE * n_pad

    def precondition(self, x, signs, n_pad, out) -> None:
        """Tile the rows of x (b, n), optionally padding, sign-flipping and
        transforming them."""
        b, n = x.shape
        if n > n_pad or (signs is None and n_pad != n):
            raise ValueError("block dimensions disagree")
        self._lib.csq_precondition(
            _check(x, np.float64, b * n), b, n,
            None if signs is None else _check(signs, np.float64, n_pad),
            n_pad, _check(out, np.float64, self.tiled_size(b, n_pad)),
        )

    def project(self, matrix, x, b, out) -> None:
        """The sparse matrix applied to the tiled block x of b points,
        written tiled into out."""
        self._lib.csq_project(
            matrix.row_offsets.ctypes.data, matrix.col_indices.ctypes.data,
            matrix.values.ctypes.data, matrix.rows,
            _check(x, np.float64, self.tiled_size(b, matrix.cols)),
            matrix.cols, b,
            _check(out, np.float64, self.tiled_size(b, matrix.rows)),
        )

    def quantize(self, y, quantizer, condensation, records, bits, peaks) -> None:
        """CSQD records (b, ceil(p * bit_width / 8)), code bits (b,
        ceil(m/8)) and peaks (b) of the tiled projections y of b points,
        quantized with ``quantizer`` and condensed with ``condensation``
        (a :class:`csq.condense.CondensationSpec`) in one loop; see
        ``_kernels.c``."""
        b = peaks.size
        m, kernel = condensation.m, condensation.kernel
        positions, weights = _taps(quantizer)
        shapes = (records.shape, bits.shape)
        if shapes != ((b, condensation.record_bytes), (b, (m + 7) // 8)):
            raise ValueError("block dimensions disagree")
        if self._lib.csq_quantize(
            _check(y, np.float64, self.tiled_size(b, m)), m, b,
            positions.ctypes.data, weights.ctypes.data, positions.size,
            _check(kernel, np.int64, kernel.size), kernel.size,
            condensation.bit_width,
            _check(records, np.uint8, records.size),
            _check(bits, np.uint8, bits.size),
            _check(peaks, np.float64, b),
        ):
            raise MemoryError("cannot allocate the quantizer state")

    def records(self, entries, bit_width: int, out) -> None:
        """Pack the (k, p) int64 ``entries``, which fit ``bit_width`` bits,
        into the CSQD records ``out`` (k, ceil(p * bit_width / 8)) with the
        kernels' record writer: the bytes of
        :func:`csq.condense.pack_rows`."""
        k, p = entries.shape
        if not 1 <= bit_width <= 63 or out.shape != (k, (p * bit_width + 7) // 8):
            raise ValueError("record dimensions disagree")
        self._lib.csq_records(
            _check(entries, np.int64, k * p), k, p, bit_width,
            _check(out, np.uint8, out.size),
        )

    def embed_block(self, model, x, records, bits, peaks, ns) -> None:
        """Embed the rows of x (b, n) with the operator, quantizer and
        condensation of ``model`` (a :class:`csq.pipeline.EmbeddingModel`):
        ``records`` (b, ceil(p * bit_width / 8)) and ``bits`` (b,
        ceil(m/8)) get the CSQD and CSQC records of the sketches and codes
        the numpy stages give, and ``peaks`` (b) each point's largest
        |projection|, not finite where the projections overflowed. The
        int64 ``ns`` (3) is increased by the nanoseconds spent in
        preconditioning, projection, and quantizing with condensing and
        packing. Raises MemoryError when the kernel cannot allocate the
        working memory of one tile."""
        op = model.operator
        matrix, signs = op.matrix, op.signs
        b, n = x.shape
        n_pad, m = matrix.cols, matrix.rows
        spec = model.condensation
        kernel = spec.kernel
        positions, weights = _taps(model.quantizer)
        if (
            n != op.n
            or records.shape != (b, spec.record_bytes)
            or bits.shape != (b, (m + 7) // 8)
        ):
            raise ValueError("block dimensions disagree")
        if self._lib.csq_embed_block(
            _check(x, np.float64, b * n), b, n,
            None if signs is None else _check(signs, np.float64, n_pad),
            n_pad,
            matrix.row_offsets.ctypes.data, matrix.col_indices.ctypes.data,
            matrix.values.ctypes.data, m,
            positions.ctypes.data, weights.ctypes.data, positions.size,
            _check(kernel, np.int64, kernel.size), kernel.size, spec.bit_width,
            _check(records, np.uint8, records.size),
            _check(bits, np.uint8, bits.size),
            _check(peaks, np.float64, b),
            _check(ns, np.int64, 3),
        ):
            raise MemoryError("cannot allocate the embed kernel's tile")

    def draw_sparse(self, rng, rows: int, cols: int, sparsity: float, capacity=None):
        """``(row_offsets, col_indices, values)`` of the rows x cols sparse
        Gaussian matrix of :func:`csq.transforms.build_sparse_gaussian`,
        drawn from the numpy Generator ``rng`` as its loop draws them, and
        leaving ``rng`` in the same state, whatever its bit generator. The
        kernel steps the bit generator through its ``ctypes`` interface,
        under the bit generator's lock. None, with ``rng`` untouched, when
        NumPy does not export :data:`NORMAL`.

        The entry arrays start with ``capacity`` slots, by default the
        expected nnz plus eight standard deviations plus one row; when they
        run short they double and the draw resumes at the first row that
        did not fit. The arrays returned are views of the first nnz slots.
        """
        draw = _normal()
        if draw is None:
            return None
        if capacity is None:
            expected = rows * cols * sparsity
            capacity = int(expected + 8.0 * math.sqrt(expected)) + cols
        offsets = np.zeros(rows + 1, dtype=np.int64)
        col_indices = np.empty(capacity, dtype=np.int64)
        values = np.empty(capacity, dtype=np.float64)
        bitgen = rng.bit_generator
        done = 0
        with bitgen.lock:
            while True:
                done = self._lib.csq_draw_sparse(
                    bitgen.ctypes.bit_generator.value, draw, done,
                    rows, cols, sparsity, offsets.ctypes.data,
                    col_indices.ctypes.data, values.ctypes.data, capacity,
                )
                if done == rows:
                    nnz = offsets[-1]
                    return offsets, col_indices[:nnz], values[:nnz]
                capacity = max(2 * capacity, cols)
                used = offsets[done]
                col_indices = _grown(col_indices, capacity, used)
                values = _grown(values, capacity, used)

    def l1_pairs(self, rows, start: int, stop: int, sums) -> None:
        """The l1 sums of rows start..stop-1 of the C-ordered (k, p) matrix
        ``rows`` (a dtype of :data:`L1_KERNELS`) against every later row,
        in (i, j), i < j order, into the int64 vector ``sums``."""
        k, p = rows.shape
        if not 0 <= start <= stop <= k:
            raise ValueError("row range out of bounds")
        count = (stop - start) * (2 * k - start - stop - 1) // 2
        if sums.shape != (count,):
            raise ValueError(f"expected {count} sums, got {sums.shape}")
        getattr(self._lib, L1_KERNELS[rows.dtype])(
            _check(rows, rows.dtype, k * p), k, p, start, stop,
            _check(sums, np.int64, count),
        )

    @staticmethod
    def lines_size(count: int, k: int, longest: int) -> int:
        """Bytes of buffer :meth:`pair_lines` needs for ``count`` lines among
        k rows whose texts have at most ``longest`` bytes."""
        return count * (2 * len(str(k)) + 3 + longest) + 2 * NUM + TEXT

    def pair_lines(self, sums, start: int, k: int, lo: int, lut, texts, out) -> int:
        """Write the CSV lines ``i,j,<text>\\n`` of the pairs from (start,
        start + 1) on, one per int64 sum, into the uint8 buffer ``out``
        (see :meth:`lines_size`); pair n gets the bytes
        ``texts[lut[sums[n] - lo]]``. Returns the bytes written."""
        count = sums.size
        if not 0 <= start < k:
            raise ValueError("first row out of bounds")
        if count and (sums.min() < lo or sums.max() - lo >= lut.size):
            raise ValueError("sums outside the lookup table")
        if lut.size and (lut.min() < 0 or lut.max() >= len(texts)):
            raise ValueError("lookup table outside the texts")
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in texts], out=offsets[1:])
        # Padded so that every text can be copied as one TEXT-byte block.
        blob = b"".join(texts) + bytes(TEXT)
        written = self._lib.csq_pair_lines(
            _check(sums, np.int64, count), count, start, k, lo,
            _check(lut, np.int32, lut.size), offsets.ctypes.data,
            blob, len(blob), _check(out, np.uint8, 0), out.size,
        )
        if written < 0:
            raise ValueError("line buffer too small")
        return written


def _grown(a: np.ndarray, size: int, used: int) -> np.ndarray:
    """A new array of ``size`` items of a's dtype holding a[:used]."""
    out = np.empty(size, dtype=a.dtype)
    out[:used] = a[:used]
    return out


def _numpy_random() -> ctypes.CDLL:
    """The shared library of NumPy's Generator extension module."""
    return ctypes.CDLL(np.random._generator.__file__)


@functools.cache
def _normal() -> int | None:
    """The address of NumPy's :data:`NORMAL`, or None when NumPy does not
    export it. Looked up on the first operator draw, as it imports
    ``numpy.random``, which nothing else in :func:`load` needs."""
    try:
        return ctypes.cast(getattr(_numpy_random(), NORMAL), _ptr).value
    except (OSError, AttributeError):
        return None


def _build(cache: Path) -> Path:
    """The shared library for the current source and flags, compiled into
    ``cache`` unless it is there already. Raises OSError or
    subprocess.SubprocessError."""
    import subprocess
    import tempfile

    src = source()
    key = hashlib.sha256(
        b"\0".join([src, " ".join(FLAGS).encode(), platform.machine().encode()])
    ).hexdigest()[:24]
    lib = cache / f"kernels-{key}.so"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache} is not a private directory of this user")
    if lib.is_file():
        return lib
    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler 'cc' on PATH")
    with tempfile.TemporaryDirectory(dir=cache) as work:
        c_file = Path(work) / "_kernels.c"
        c_file.write_bytes(src)
        so_file = Path(work) / "kernels.so"
        subprocess.run(
            [cc, *FLAGS, "-o", str(so_file), str(c_file)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(so_file, lib)
    return lib


@functools.cache
def _load() -> tuple[Kernels | None, str]:
    import subprocess

    try:
        return Kernels(ctypes.CDLL(str(_build(cache_dir())))), ""
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        return None, "compile failed: " + (lines[0] if lines else f"exit {exc.returncode}")
    except (OSError, subprocess.SubprocessError) as exc:
        return None, str(exc)
    except AttributeError as exc:  # a library without the kernel symbols
        return None, f"broken kernel library: {exc}"


def load() -> Kernels | None:
    """The compiled kernels, built on first use; None when they cannot be."""
    return _load()[0]


def failure() -> str:
    """Why :func:`load` gives None ('' when it does not)."""
    return _load()[1]
