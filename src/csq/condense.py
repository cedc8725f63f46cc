"""Condensing one-bit codes into short integer vectors with an l1 pseudometric.

A code of length ``m = lam * p`` is split into p consecutive blocks of
length ``lam`` and every block is convolved against the integer kernel v,
the coefficient vector of ``(1 + z + ... + z**(lt - 1))**r`` where
``lam = r * lt - r + 1``. Stacking the block results gives p integers per
code; distances between codes are read from the integer l1 difference of
those vectors through one final multiplication by

    norm_factor = sqrt(pi / 2) / (p * ||v||_2).

The kernel annihilates the r-th order quantization noise up to boundary
terms, which is what makes the estimate improve like ``lam**(-r + 1/2)``
as blocks grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    IncompatibilityError,
    InputError,
    ParameterError,
    ShapeError,
)
from .sigma_delta import MAX_ORDER

# Kernel dot products are accumulated in int64; keep peak magnitudes below
# 2**62 so sums and packed widths always fit.
_MAX_PEAK = 2**62

# Longest kernel (block length lam) accepted: building it takes about
# r * lam * lambda_tilde steps, which a model header must not make hours.
MAX_BLOCK = 2**14


@dataclass(frozen=True)
class CondensationSpec:
    """Frozen geometry of a condensation: kernel, block layout and scaling.

    Specs compare and hash by ``(r, lambda_tilde, p)``; the other fields
    follow from those three.
    """

    r: int
    lambda_tilde: int
    lam: int = field(compare=False)
    p: int
    m: int = field(compare=False)
    kernel: np.ndarray = field(compare=False)
    norm_factor: float = field(compare=False)
    bit_width: int = field(compare=False)

    @property
    def record_bytes(self) -> int:
        """Bytes of one packed sketch record (see :func:`pack_rows`)."""
        return (self.p * self.bit_width + 7) // 8

    def kernel_inf_over_l2_sq(self) -> float:
        """Squared ratio ||v||_inf / ||v||_2, used to size sparsity upstream."""
        v = self.kernel.astype(np.float64)
        return float(v.max() ** 2 / np.dot(v, v))


def build_condensation(r: int, lambda_tilde: int, p: int) -> CondensationSpec:
    """Build the order-r condensation with block count p.

    The kernel is computed by repeated integer convolution of the all-ones
    window of length ``lambda_tilde``; its coefficients are palindromic,
    positive, sum to ``lambda_tilde**r`` and peak at the middle.
    """
    if r < 1 or lambda_tilde < 1 or p < 1:
        raise ParameterError("r, lambda_tilde and p must be positive integers")
    lam = r * lambda_tilde - r + 1
    # Checked before the power and the O(r * lam * lambda_tilde) kernel.
    if r > MAX_ORDER or lam > MAX_BLOCK:
        raise ParameterError(
            f"order {r} or block length {lam} is above its limit, "
            f"{MAX_ORDER} or {MAX_BLOCK}"
        )
    peak = lambda_tilde**r
    if peak >= _MAX_PEAK:
        raise CapacityError("lambda_tilde**r exceeds the integer accumulator range")
    window = np.ones(lambda_tilde, dtype=np.int64)
    kernel = np.ones(1, dtype=np.int64)
    for _ in range(r):
        kernel = np.convolve(kernel, window)
    if kernel.shape[0] != lam:
        raise ParameterError("kernel length disagrees with r * lt - r + 1")
    l2 = math.sqrt(sum(int(c) ** 2 for c in kernel))
    norm_factor = math.sqrt(math.pi / 2.0) / (p * l2)
    bit_width = peak.bit_length() + 1
    return CondensationSpec(
        r=r,
        lambda_tilde=lambda_tilde,
        lam=lam,
        p=p,
        m=lam * p,
        kernel=kernel,
        norm_factor=norm_factor,
        bit_width=bit_width,
    )


@dataclass
class BinaryCode:
    """A length-m sign sequence packed to bits (+1 -> 1, -1 -> 0, LSB first)."""

    length: int
    bits: np.ndarray

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "BinaryCode":
        signs = np.asarray(signs)
        if signs.ndim != 1:
            raise ShapeError("signs must be a 1-d vector")
        return Codes.from_signs(signs[None, :])[0]

    def to_signs(self) -> np.ndarray:
        flat = np.unpackbits(self.bits, count=self.length, bitorder="little")
        return (flat.astype(np.int8) * 2 - 1).astype(np.int8)

    def byte_size(self) -> int:
        return (self.length + 7) // 8


@dataclass
class CondensedCode:
    """p block sums of a binary code against the kernel, kept as integers."""

    p: int
    bit_width: int
    norm_factor: float
    entries: np.ndarray


def _check_fits(entries: np.ndarray, bit_width: int) -> None:
    half = 1 << (bit_width - 1)
    if entries.size and (entries.min() < -half or entries.max() >= half):
        raise CapacityError("entry does not fit the declared bit width")


def entry_dtype(bit_width: int) -> np.dtype:
    """Smallest signed integer dtype holding ``bit_width + 1`` bits, so the
    difference of two entries never overflows."""
    if not 1 <= bit_width <= 63:
        raise CapacityError(f"bit width {bit_width} is outside [1, 63]")
    for dtype in (np.int8, np.int16, np.int32):
        if bit_width < 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class _Rows:
    """Rows of one geometry in one C-ordered matrix, the last dataclass
    field (the fields before it are the geometry). ``len()``, indexing and
    iteration give ``_row(*geometry, row)``; a slice gives the same type."""

    def _split(self) -> tuple[list, np.ndarray]:
        *geometry, matrix = (getattr(self, f.name) for f in fields(self))
        return geometry, matrix

    def __len__(self) -> int:
        return self._split()[1].shape[0]

    def __getitem__(self, i):
        geometry, matrix = self._split()
        if isinstance(i, slice):
            return type(self)(*geometry, matrix[i])
        return self._row(*geometry, matrix[i])

    @cached_property
    def _rows(self) -> list:
        # Built on the first iteration only, so callers that loop over the
        # rows repeatedly make the per-point objects once and whole-matrix
        # callers never.
        geometry, matrix = self._split()
        return [self._row(*geometry, row) for row in matrix]

    def __iter__(self):
        return iter(self._rows)


@dataclass(frozen=True, eq=False)
class Codes(_Rows):
    """k binary codes of length m as one (k, ceil(m/8)) uint8 matrix, rows
    packed as in :class:`BinaryCode`, which row access returns."""

    length: int
    bits: np.ndarray
    _row = BinaryCode

    def __post_init__(self):
        bits = np.asarray(self.bits)
        width = (self.length + 7) // 8
        if bits.ndim != 2 or bits.shape[1] != width or bits.dtype != np.uint8:
            raise ShapeError(
                f"expected (k, {width}) uint8 code bits, got {bits.shape} {bits.dtype}"
            )
        object.__setattr__(self, "bits", np.ascontiguousarray(bits))

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "Codes":
        """Pack k sign rows (k, m) with one ``packbits`` call."""
        signs = np.asarray(signs)
        if signs.ndim != 2:
            raise ShapeError("expected a (k, m) sign array")
        up = signs == 1
        if np.count_nonzero(up) + np.count_nonzero(signs == -1) != signs.size:
            raise InputError("signs must be +1 or -1")
        bits = np.packbits(np.ascontiguousarray(up), axis=1, bitorder="little")
        return cls(signs.shape[1], bits)


@dataclass(frozen=True, eq=False)
class Sketches(_Rows):
    """k condensed codes of one geometry stored as a single (k, p) matrix.

    ``entries`` uses :func:`entry_dtype`; row access (indexing, iteration)
    returns :class:`CondensedCode` views of single rows.
    """

    p: int
    bit_width: int
    norm_factor: float
    entries: np.ndarray
    _row = CondensedCode

    def __post_init__(self):
        nf = self.norm_factor
        if self.p < 1 or not (math.isfinite(nf) and nf > 0.0):
            raise ParameterError("p and norm_factor must be positive, norm_factor finite")
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[1] != self.p:
            raise ShapeError(f"expected (k, {self.p}) entries, got {entries.shape}")
        if not np.issubdtype(entries.dtype, np.integer):
            raise ShapeError("sketch entries must be integers")
        _check_fits(entries, self.bit_width)
        dtype = entry_dtype(self.bit_width)
        # C order: pack_rows and the row views need a contiguous last axis.
        object.__setattr__(
            self, "entries", np.ascontiguousarray(entries, dtype=dtype)
        )

    @classmethod
    def of(cls, spec: CondensationSpec, entries: np.ndarray) -> "Sketches":
        return cls(spec.p, spec.bit_width, spec.norm_factor, entries)


def check_geometry(got, want) -> None:
    """Refuse to mix sketches, codes or specs of different condensations."""
    a = (got.p, got.bit_width, got.norm_factor)
    b = (want.p, want.bit_width, want.norm_factor)
    if a != b:
        raise IncompatibilityError(
            f"condensation (p, bit_width, norm_factor) = {a} does not match {b}"
        )


def condense_signs_batch(spec: CondensationSpec, signs: np.ndarray) -> np.ndarray:
    """Condense k sign rows (k, m) -> integer entries (k, p), exact in int64.

    The block sums read ``signs.T`` as (p, lam, k) blocks, so the ``.T``
    view of a C-ordered (m, k) int8 array (what :func:`csq.sigma_delta.quantize_batch`
    returns) is condensed without a widened copy.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] != spec.m:
        raise ShapeError(f"expected (k, {spec.m}) sign array, got {signs.shape}")
    blocks = signs.T.reshape(spec.p, spec.lam, signs.shape[0])
    return np.ascontiguousarray(
        np.einsum(
            "l,plk->kp", spec.kernel, blocks, dtype=np.int64, casting="unsafe"
        )
    )


def condense_real_batch(spec: CondensationSpec, zs: np.ndarray) -> np.ndarray:
    """Apply the normalized condensation to real vectors (k, m) -> (k, p).

    This is the unquantized reference path: block-convolve against the
    kernel in float arithmetic and scale by ``norm_factor``.
    """
    zs = np.asarray(zs, dtype=np.float64)
    if zs.ndim != 2 or zs.shape[1] != spec.m:
        raise ShapeError(f"expected (k, {spec.m}) array, got {zs.shape}")
    blocks = zs.reshape(zs.shape[0], spec.p, spec.lam)
    return (blocks @ spec.kernel.astype(np.float64)) * spec.norm_factor


def _pair_blocks(k: int, block_pairs: int):
    """``(start, stop, count)``: consecutive row ranges whose ``count``
    pairs with later rows come to about ``block_pairs``, at least one row
    each."""
    start = 0
    while start < k - 1:
        stop, count = start + 1, k - 1 - start
        while stop < k - 1 and count + k - 1 - stop <= block_pairs:
            count += k - 1 - stop
            stop += 1
        yield start, stop, count
        start = stop


def _numpy_l1_pairs(rows: np.ndarray, start: int, stop: int, sums: np.ndarray) -> None:
    """The sums of :meth:`csq._native.Kernels.l1_pairs` by a numpy loop, in
    the dtype of ``sums``, for rows of any dtype."""
    k = rows.shape[0]
    diff = np.empty_like(rows[start + 1 :])
    off = 0
    for i in range(start, stop):
        n = k - 1 - i
        d = np.subtract(rows[i + 1 :], rows[i], out=diff[:n])
        np.abs(d, out=d).sum(axis=1, out=sums[off : off + n])
        off += n


def pairwise_l1_blocks(rows: np.ndarray, block_pairs: int = 1 << 17):
    """Yield ``(start, stop, sums)``: the l1 distances of rows start..stop-1
    to every later row, in (i, j), i < j order, about ``block_pairs`` at a
    time. Integer rows give exact int64 sums when their differences fit
    the row dtype (see :func:`entry_dtype`).

    Signed integer rows run on the compiled kernel when it loads (see
    :mod:`csq._native`); other rows, and every row without it, on a numpy
    loop that gives the same sums. With more than one CPU, a thread
    computes the next block while the caller reads the current one.
    """
    rows = np.ascontiguousarray(rows)
    # Imported here, not at the top, as in pipeline.embed_dataset.
    from . import _native

    kern = _native.load() if rows.dtype in _native.L1_KERNELS else None
    if kern is None:
        l1_pairs, dtype = _numpy_l1_pairs, rows[:0].sum(axis=1).dtype
    else:
        l1_pairs, dtype = kern.l1_pairs, np.int64

    def compute(start: int, stop: int, count: int):
        sums = np.empty(count, dtype=dtype)
        l1_pairs(rows, start, stop, sums)
        return start, stop, sums

    blocks = _pair_blocks(rows.shape[0], block_pairs)
    if _native._worker_count() == 1:
        for block in blocks:
            yield compute(*block)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        pending = None
        for block in blocks:
            ahead = pool.submit(compute, *block)
            if pending is not None:
                yield pending.result()
            pending = ahead
        if pending is not None:
            yield pending.result()


def operator_bound(spec: CondensationSpec) -> float:
    """Deterministic bound on the normalized condensation of any r-th order
    noise pattern: for every quantization run,
    ``||Vtilde (q - z)||_1 <= operator_bound(spec) * ||u||_inf`` where u is
    the reconstructed state of the run.
    """
    r, lam = spec.r, spec.lam
    return math.sqrt(math.pi / 2.0) * float(8 * r) ** (r + 1) * lam ** (-r + 0.5)


def _row_blocks(k: int, bits_per_row: int):
    """Row slices whose unpacked bits take about 4 MiB of scratch each."""
    step = max(1, (1 << 22) // max(bits_per_row, 1))
    for start in range(0, k, step):
        yield slice(start, min(start + step, k))


def pack_rows(entries: np.ndarray, bit_width: int) -> np.ndarray:
    """Pack (k, p) entries as fixed-width two's complement -> (k, record) bytes.

    Entry e of a row occupies bits ``e * bit_width`` onwards, LSB first, and
    each row is zero-padded to ``ceil(p * bit_width / 8)`` bytes.
    """
    w = bit_width
    dtype = entry_dtype(w).newbyteorder("<")
    entries = np.asarray(entries)
    _check_fits(entries, w)
    k, p = entries.shape
    out = np.empty((k, (p * w + 7) // 8), dtype=np.uint8)
    for rows in _row_blocks(k, p * 8 * dtype.itemsize):
        # The low w bits of a little-endian two's-complement value are its
        # first w bits in LSB-first order.
        raw = entries[rows].astype(dtype).view(np.uint8).reshape(-1, p, dtype.itemsize)
        bits = np.unpackbits(raw, axis=2, count=w, bitorder="little")
        out[rows] = np.packbits(bits.reshape(-1, p * w), axis=1, bitorder="little")
    return out


def unpack_rows(payload: np.ndarray, p: int, bit_width: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: (k, record) bytes -> (k, p) entries.

    Entry e starts at byte ``e * w // 8``, bit ``e * w % 8``: it is read as
    the little-endian u64 of the 8 bytes from there, shifted right, with
    the 9th byte ORed in where the field runs past them (w >= 58), then
    masked to w bits and sign-extended.
    """
    w = bit_width
    k, record = payload.shape
    out = np.empty((k, p), dtype=entry_dtype(w))
    if k == 0:  # p may be too large for the per-field arrays below
        return out
    first = np.arange(p, dtype=np.int64) * w
    byte, shift = first // 8, (first % 8).astype(np.uint64)
    over = np.flatnonzero(shift + w > 64)
    mask, sign = np.uint64((1 << w) - 1), np.uint64(1 << (w - 1))
    # Two u64 temporaries per entry: 128 bits of scratch.
    for rows in _row_blocks(k, 128 * p):
        n = rows.stop - rows.start
        # Zero-padded so the 9 bytes from every field's first stay in the row.
        padded = np.zeros((n, record + 9), dtype=np.uint8)
        padded[:, :record] = payload[rows]
        # The u64 at every byte offset of a row, as an overlapping view.
        words = np.ndarray(
            (n, record + 2), dtype="<u8", buffer=padded, strides=(record + 9, 1)
        )
        v = words[:, byte] >> shift
        if over.size:
            ninth = padded[:, byte[over] + 8].astype(np.uint64)
            v[:, over] |= ninth << (np.uint64(64) - shift[over])
        v &= mask
        v ^= sign
        v -= sign
        out[rows] = v.view(np.int64)
    return out
