"""Build, cache and load the compiled kernels of ``_kernels.c``: the embed
path, the draw of the sparse Gaussian operator, the l1 sums of
:func:`csq.condense.pairwise_l1_blocks`, and the two C calls of each
chunk job of ``csq query --all-pairs``: one computes the chunk's l1 sums
and marks which occur in a bitmap with a bit for every sum, refusing a sum
past it; the other writes each pair's CSV line with the text of its sum
(:class:`Texts`). The l1 kernels take the rows :func:`narrow` gives:
rows whose columns each span at most 255 as bytes, which the kernels sum
with ``psadbw``, and other rows at their own width. :func:`in_order` is
the thread pool of every loop over the kernels: the embed blocks, the l1
blocks and the all-pairs chunks.

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
of the embed and the l1 sum loop (``target_clones``), and the dynamic loader
picks one when the library loads, by the CPU it runs on. The AVX2 build
enables no FMA and gives the same bytes, so the cache key names no CPU
feature, and a library cached on one host runs on any x86-64 host that
shares the cache. ``Kernels.isa`` says which build runs. A library already
in the cache loads without importing ``subprocess``; only a compile does.
"""

from __future__ import annotations

import collections
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
# What csq_quantize and csq_embed_block return besides 0 and -errno;
# NO_MEMORY and END_OF_FILE in _kernels.c.
NO_MEMORY, END_OF_FILE = 1, 2
# Bytes csq_l1_lines copies per number and per text slot; NUM and TEXT in
# _kernels.c. A slot holds up to TEXT - 1 bytes of text, and a float's
# repr has at most 24.
NUM, TEXT = 24, 32

# NumPy's standard normal draw from a bitgen_t, the function
# Generator.standard_normal calls, exported by the extension module that
# defines Generator (numpy/random/_examples/cffi/extending.py reads it the
# same way).
NORMAL = "random_standard_normal"

_int, _i64, _f64 = ctypes.c_int, ctypes.c_int64, ctypes.c_double
_ptr = ctypes.c_void_p
# The signed integer rows :func:`narrow` takes, and the rows of the l1
# kernels, which take the entry width: bytes from narrow(), and signed
# integers that span more than a byte.
ROW_DTYPES = frozenset(map(np.dtype, (np.int8, np.int16, np.int32, np.int64)))
L1_DTYPES = frozenset(map(np.dtype, (np.uint8, np.int16, np.int32, np.int64)))
_SIGNATURES = {
    "csq_precondition": (None, [_ptr, _i64, _i64, _ptr, _i64, _ptr]),
    "csq_project": (None, [_ptr, _ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr]),
    "csq_quantize": (
        _int, [_ptr, _i64, _i64, _ptr, _ptr, _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr]
    ),
    "csq_records": (None, [_ptr, _i64, _i64, _i64, _ptr]),
    "csq_embed_block": (
        _int,
        [_ptr, _int, _i64, _i64, _i64, _ptr, _i64, _ptr, _ptr, _ptr, _i64, _ptr,
         _ptr, _i64, _ptr, _i64, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr],
    ),
    "csq_l1_pairs": (None, [_ptr, _i64, _i64, _i64, _i64, _i64, _ptr]),
    "csq_l1_marks": (
        _i64, [_ptr, _i64, _i64, _i64, _i64, _i64, _ptr, _i64, _ptr, _ptr]
    ),
    "csq_l1_lines": (
        _i64, [_i64, _i64, _i64, _i64, _ptr, _ptr, _i64, _ptr, _i64, _ptr, _i64]
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


def in_order(job, items, workers: int):
    """Yield ``job(n, *item)`` for the n-th of ``items``, in their order.

    The jobs run on a pool of ``workers`` threads, at most ``workers + 1``
    of them in flight: job n is submitted once job n - workers - 1 has been
    yielded and the caller has asked for the next, so job n may reuse that
    job's buffers (slot ``n % (workers + 1)``). The first error in job order
    is raised, and no job starts after it. However the generator ends (the
    last job yielded, an error, or closed early), every job it started has
    ended by then.
    """
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    pending = collections.deque()
    try:
        for n, item in enumerate(items):
            if len(pending) > workers:
                yield pending.popleft().result()
            pending.append(pool.submit(job, n, *item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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


def _l1_rows(rows: np.ndarray) -> int:
    """Address of the C-contiguous rows of an l1 kernel."""
    if rows.dtype not in L1_DTYPES:
        raise ValueError(f"no l1 kernel for {rows.dtype} rows")
    return _check(rows, rows.dtype, rows.size)


def narrow(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """``(narrowed, bound)`` for the (k, p) rows of a dtype of
    :data:`ROW_DTYPES`. ``bound`` is the sum over the columns of max - min,
    which bounds the l1 sum of any two rows (0 without rows). ``narrowed``
    holds C-ordered rows of a dtype of :data:`L1_DTYPES` with the same l1
    sums: when every column spans at most 255, the rows less their column
    minima as uint8 (|a - b| does not change when a and b shift alike),
    else the rows themselves. Int8 rows always narrow.

    The byte rows are for the l1 kernels only: a numpy subtraction of two
    of them wraps around."""
    rows = np.ascontiguousarray(rows)
    if rows.dtype not in ROW_DTYPES or rows.ndim != 2:
        raise ValueError(f"cannot narrow {rows.dtype} rows of shape {rows.shape}")
    if rows.shape[0] == 0:
        return rows.astype(np.uint8), 0
    lo = rows.min(axis=0)
    # max - min in the unsigned type of the rows' width: exact, as it lies
    # in [0, 2**bits) however far apart the two are.
    unsigned = np.dtype(f"u{rows.itemsize}")
    spread = rows.max(axis=0).view(unsigned) - lo.view(unsigned)
    bound = sum(spread.tolist())
    if spread.max(initial=0) > 255:
        return rows, bound
    # Each shifted entry lies in [0, 255], so subtracting modulo 256 gives it.
    return np.subtract(rows, lo, dtype=np.uint8, casting="unsafe"), bound


class Kernels:
    """Typed entry points into the loaded library; each checks its buffers
    before passing pointers. ctypes releases the GIL during every call.

    The embed kernels take the CSR arrays of a
    :class:`csq.transforms.SparseGaussianMatrix` as its type checked them
    when it was made (read-only C-ordered int64/float64, offsets rising
    from 0 to nnz, every column in range), and read them in place. Input
    rows need no check: :meth:`embed_block` measures every row it loads,
    and a non-finite entry shows only in the norms it returns.

    :meth:`embed_block` is the embed path: it reads the operator, the
    quantizer taps and the condensation kernel from the model, reads the
    rows from memory or from a file, and the C kernel allocates its own
    tile of working memory. :meth:`precondition`,
    :meth:`project` and :meth:`quantize` (which also condenses and packs)
    run one stage each, and :meth:`records` the record writer, so that
    every kernel can be compared with its numpy counterpart on its own.
    :meth:`draw_sparse` draws the operator. :meth:`l1_pairs` gives the
    l1 sums of a range of rows; :meth:`l1_marks` (the sums of a range of
    rows, and which occur, in a bitmap that has a bit for each) and
    :meth:`l1_lines` (the CSV lines of those sums) are the two C calls of
    one chunk job of the all-pairs CSV, so that threads can share a query
    a chunk each. The first two take
    C-ordered rows of a dtype of :data:`L1_DTYPES`, as :func:`narrow` gives
    them: uint8 rows run the byte loop (``psadbw``), the others a loop at
    their width.

    ``isa`` is ``"avx2"`` when the embed kernels and the l1 sums run their
    AVX2 build, ``"baseline"`` otherwise.
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

    def embed_block(
        self, model, x, records, bits, peaks, norms, maxabs, ns, fd=-1, offset=0
    ) -> None:
        """Embed b rows with the operator, quantizer and condensation of
        ``model`` (a :class:`csq.pipeline.EmbeddingModel`). The rows are x
        (b, n); or, with x None and ``fd`` >= 0, the b rows of n
        little-endian float64 at byte ``offset`` of the file open as
        ``fd``, which the kernel reads itself, one ``pread`` per 16-row
        tile. ``records`` (b, ceil(p * bit_width / 8)) and ``bits`` (b,
        ceil(m/8)) get the CSQD and CSQC records of the sketches and codes
        the numpy stages give, and ``peaks`` (b) each point's largest
        |projection|, not finite where the projections overflowed.
        ``norms`` (b) gets each row's l2 norm, bit for bit as
        ``np.linalg.norm`` gives it: NaN for a row with a non-finite entry,
        inf for a finite row whose norm overflows. ``maxabs`` (b), unless
        it is None, gets each row's largest |entry|. The int64 ``ns`` (4)
        is increased by the nanoseconds spent reading and loading the
        rows (with their norms and peaks), preconditioning, projecting,
        and quantizing with condensing and packing.

        Raises MemoryError when the kernel cannot allocate the working
        memory of one tile, EOFError when the file ends before the last
        row, and OSError with the errno of a read that fails."""
        op = model.operator
        matrix, signs = op.matrix, op.signs
        b = peaks.size
        n_pad, m = matrix.cols, matrix.rows
        spec = model.condensation
        kernel = spec.kernel
        positions, weights = _taps(model.quantizer)
        if (
            (x is None) != (fd >= 0)
            or (x is not None and x.shape != (b, op.n))
            or records.shape != (b, spec.record_bytes)
            or bits.shape != (b, (m + 7) // 8)
            or norms.shape != (b,)
            or (maxabs is not None and maxabs.shape != (b,))
        ):
            raise ValueError("block dimensions disagree")
        status = self._lib.csq_embed_block(
            None if x is None else _check(x, np.float64, b * op.n), fd, offset,
            b, op.n,
            None if signs is None else _check(signs, np.float64, n_pad),
            n_pad,
            matrix.row_offsets.ctypes.data, matrix.col_indices.ctypes.data,
            matrix.values.ctypes.data, m,
            positions.ctypes.data, weights.ctypes.data, positions.size,
            _check(kernel, np.int64, kernel.size), kernel.size, spec.bit_width,
            _check(records, np.uint8, records.size),
            _check(bits, np.uint8, bits.size),
            _check(peaks, np.float64, b),
            _check(norms, np.float64, b),
            None if maxabs is None else _check(maxabs, np.float64, b),
            _check(ns, np.int64, 4),
        )
        if status == NO_MEMORY:
            raise MemoryError("cannot allocate the embed kernel's tile")
        if status == END_OF_FILE:
            raise EOFError("the file ends before the block's last row")
        if status:
            raise OSError(-status, os.strerror(-status))

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
        ``rows`` (a dtype of :data:`L1_DTYPES`; :func:`narrow` makes them)
        against every later row, in (i, j), i < j order, into the int64
        vector ``sums``. Byte rows are read as unsigned, so their sums are
        those of the rows they were narrowed from."""
        k, p = rows.shape
        if not 0 <= start <= stop <= k:
            raise ValueError("row range out of bounds")
        count = (stop - start) * (2 * k - start - stop - 1) // 2
        if sums.shape != (count,):
            raise ValueError(f"expected {count} sums, got {sums.shape}")
        self._lib.csq_l1_pairs(
            _l1_rows(rows), rows.itemsize, k, p, start, stop,
            _check(sums, np.int64, count),
        )

    def l1_marks(self, rows, start: int, stop: int, marks, keep):
        """Store in the uint32 vector ``keep`` the l1 sum s of each pair of
        a row start..stop-1 of ``rows`` (as :meth:`l1_pairs` takes them,
        from :func:`narrow`) with a later row, in (i, j) order, and set
        bit s % 8 of byte s // 8 of the uint8 vector ``marks``. Returns
        ``(lo, hi)``: the least and the largest sum (2**32 and -1 without
        pairs). Raises ValueError, having stored and marked some sums, at a
        sum without a bit in ``marks``, and writes no byte past it."""
        k, p = rows.shape
        if not 0 <= start <= stop <= k:
            raise ValueError("row range out of bounds")
        count = (stop - start) * (2 * k - start - stop - 1) // 2
        if keep.shape != (count,):
            raise ValueError(f"expected room for {count} sums, got {keep.shape}")
        span = np.empty(2, dtype=np.int64)
        if self._lib.csq_l1_marks(
            _l1_rows(rows), rows.itemsize, k, p, start, stop,
            _check(marks, np.uint8, 0), min(8 * marks.size, 1 << 32),
            _check(keep, np.uint32, count), span.ctypes.data,
        ):
            raise ValueError("an l1 sum has no bit in the bitmap")
        return int(span[0]), int(span[1])

    @staticmethod
    def lines_size(count: int, k: int, longest: int) -> int:
        """Bytes of buffer :meth:`l1_lines` needs for ``count`` lines among
        k rows whose texts have at most ``longest`` bytes."""
        return count * (2 * len(str(k)) + 3 + longest) + 2 * NUM + TEXT

    def l1_lines(self, k: int, i: int, j: int, sums, texts, out) -> int:
        """Write the CSV lines ``i,j,<text>\\n`` of ``sums.size`` pairs
        among ``k`` rows, in (i, j), i < j order from pair (i, j) on, into
        the uint8 buffer ``out`` (see :meth:`lines_size`); the uint32
        vector ``sums`` holds each pair's l1 sum, and the text of a pair is
        the one ``texts`` (a :class:`Texts`) holds for its sum. Returns the
        bytes written. Raises ValueError when a sum has no text or the
        lines do not fit."""
        count = sums.size
        if not (0 <= i < j <= k and (j < k or count == 0)):
            raise ValueError("first pair out of bounds")
        if not 0 <= count <= k - j + (k - 1 - i) * (k - 2 - i) // 2:
            raise ValueError("more pairs than follow the first")
        lut, slots = texts.view()
        written = self._lib.csq_l1_lines(
            k, i, j, count, _check(sums, np.uint32, count),
            lut.ctypes.data, lut.size, slots.ctypes.data, len(slots),
            _check(out, np.uint8, 0), out.size,
        )
        if written == -2:
            raise ValueError("an l1 sum has no text")
        if written < 0:
            raise ValueError("line buffer too small")
        return written


class Texts:
    """The text of each l1 sum s in [0, hi], as :meth:`Kernels.l1_lines`
    reads them, added as the sums turn up. ``lut[s]`` is the slot of sum s,
    0 for none; a slot holds up to TEXT - 1 bytes of text and, in its last
    byte, their length. ``longest`` is the longest text's length.

    An :meth:`add` writes only slots and ``lut`` entries that no sum named
    before, and moves the slots to a new array, leaving the old one as it
    was, when they run out. So while one thread adds texts, others may run
    :meth:`Kernels.l1_lines` over sums that already had theirs; the adds
    themselves must not overlap.
    """

    def __init__(self, hi: int):
        self.lut = np.zeros(hi + 1, dtype=np.int32)
        self.longest = 0
        # The slots and how many are in use, slot 0 standing for no text,
        # replaced together so that view() reads them in one step.
        self._slots = (np.zeros((16, TEXT), dtype=np.uint8), 1)

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lut, slots)``: the table and the slots in use."""
        slots, used = self._slots
        return self.lut, slots[:used]

    def missing(self, sums: np.ndarray) -> np.ndarray:
        """The sums of the vector ``sums`` (each in [0, hi]) that have no
        text."""
        return sums[self.lut[sums] == 0]

    def add(self, sums, texts) -> None:
        """Give sum ``sums[n]`` the bytes ``texts[n]``, of fewer than TEXT;
        the sums lie in [0, hi], differ, and have no text yet."""
        at = np.asarray(sums, dtype=np.int64)
        if at.shape != (len(texts),):
            raise ValueError("expected one text per sum")
        if at.size and not (0 <= at.min() and at.max() < self.lut.size):
            raise ValueError(f"sums must lie in [0, {self.lut.size - 1}]")
        if np.any(self.lut[at]):
            raise ValueError("a sum has a text already")
        lens = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        if np.any(lens >= TEXT):
            raise ValueError(f"texts must be shorter than {TEXT} bytes")
        slots, used = self._slots
        total = used + len(texts)
        self.lut[at] = np.arange(used, total, dtype=np.int32)
        if not np.array_equal(self.lut[at], np.arange(used, total)):
            self.lut[at] = 0
            raise ValueError("the sums must differ")
        if total > len(slots):
            grown = np.zeros((max(total, 2 * len(slots)), TEXT), dtype=np.uint8)
            grown[:used] = slots[:used]
            slots = grown
        # Text n's bytes go to the start of slot used + n, its length last.
        if texts:
            padded = np.array(texts, dtype=f"S{TEXT - 1}")
            slots[used:total, : TEXT - 1] = padded.view(np.uint8).reshape(-1, TEXT - 1)
        slots[used:total, TEXT - 1] = lens
        self.longest = max(self.longest, int(lens.max(initial=0)))
        self._slots = slots, total


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


class CompileError(Exception):
    """The C compiler failed or timed out."""


def _build(cache: Path) -> Path:
    """The shared library for the current source and flags, compiled into
    ``cache`` unless it is there already. Raises OSError, or CompileError
    with the compiler's first line of output."""
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
    # Imported here, not at the top: a cached library loads without them,
    # and subprocess alone costs milliseconds of import.
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(dir=cache) as work:
        c_file = Path(work) / "_kernels.c"
        c_file.write_bytes(src)
        so_file = Path(work) / "kernels.so"
        try:
            subprocess.run(
                [cc, *FLAGS, "-o", str(so_file), str(c_file)],
                check=True, capture_output=True, timeout=120,
            )
        except subprocess.CalledProcessError as exc:
            lines = exc.stderr.decode(errors="replace").strip().splitlines()
            raise CompileError(lines[0] if lines else f"exit {exc.returncode}") from None
        except subprocess.SubprocessError as exc:  # the timeout
            raise CompileError(str(exc)) from None
        os.replace(so_file, lib)
    return lib


@functools.cache
def _load() -> tuple[Kernels | None, str]:
    try:
        return Kernels(ctypes.CDLL(str(_build(cache_dir())))), ""
    except CompileError as exc:
        return None, f"compile failed: {exc}"
    except OSError as exc:
        return None, str(exc)
    except AttributeError as exc:  # a library without the kernel symbols
        return None, f"broken kernel library: {exc}"


def load() -> Kernels | None:
    """The compiled kernels, built on first use; None when they cannot be."""
    return _load()[0]


def failure() -> str:
    """Why :func:`load` gives None ('' when it does not)."""
    return _load()[1]
