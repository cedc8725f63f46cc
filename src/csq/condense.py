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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    IncompatibilityError,
    InputError,
    ParameterError,
    ShapeError,
)

# Kernel dot products are accumulated in int64; keep peak magnitudes below
# 2**62 so sums and packed widths always fit.
_MAX_PEAK = 2**62


@dataclass(frozen=True)
class CondensationSpec:
    """Frozen geometry of a condensation: kernel, block layout and scaling."""

    r: int
    lambda_tilde: int
    lam: int
    p: int
    m: int
    kernel: np.ndarray
    norm_factor: float
    bit_width: int

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
    peak = lambda_tilde**r
    if peak >= _MAX_PEAK:
        raise CapacityError("lambda_tilde**r exceeds the integer accumulator range")
    window = np.ones(lambda_tilde, dtype=np.int64)
    kernel = np.ones(1, dtype=np.int64)
    for _ in range(r):
        kernel = np.convolve(kernel, window)
    lam = r * lambda_tilde - r + 1
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
        if not np.all(np.abs(signs) == 1):
            raise InputError("signs must be +1 or -1")
        bits = np.packbits((signs > 0).astype(np.uint8), bitorder="little")
        return cls(length=signs.shape[0], bits=bits)

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


@dataclass(frozen=True, eq=False)
class Sketches:
    """k condensed codes of one geometry stored as a single (k, p) matrix.

    ``entries`` uses :func:`entry_dtype`; row access (indexing, iteration)
    returns :class:`CondensedCode` views of single rows.
    """

    p: int
    bit_width: int
    norm_factor: float
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[1] != self.p:
            raise ShapeError(f"expected (k, {self.p}) entries, got {entries.shape}")
        if not np.issubdtype(entries.dtype, np.integer):
            raise ShapeError("sketch entries must be integers")
        _check_fits(entries, self.bit_width)
        dtype = entry_dtype(self.bit_width)
        object.__setattr__(self, "entries", entries.astype(dtype, copy=False))

    @classmethod
    def of(cls, spec: CondensationSpec, entries: np.ndarray) -> "Sketches":
        return cls(spec.p, spec.bit_width, spec.norm_factor, entries)

    @classmethod
    def from_codes(
        cls, spec: CondensationSpec, codes: list[CondensedCode]
    ) -> "Sketches":
        """Stack per-point codes, all of which must match ``spec``."""
        for code in codes:
            check_geometry(code, spec)
            if np.shape(code.entries) != (spec.p,):
                raise ShapeError(f"code entries must have shape ({spec.p},)")
        rows = [code.entries for code in codes]
        return cls.of(spec, np.stack(rows) if rows else np.zeros((0, spec.p), np.int64))

    @cached_property
    def _rows(self) -> list[CondensedCode]:
        # Built on the first iteration only, so callers that loop over the
        # rows repeatedly make the per-point objects once and whole-matrix
        # callers never.
        return [
            CondensedCode(self.p, self.bit_width, self.norm_factor, row)
            for row in self.entries
        ]

    def __len__(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, i):
        """Row i as a :class:`CondensedCode`; a slice gives :class:`Sketches`."""
        if isinstance(i, slice):
            return Sketches(self.p, self.bit_width, self.norm_factor, self.entries[i])
        return CondensedCode(self.p, self.bit_width, self.norm_factor, self.entries[i])

    def __iter__(self):
        return iter(self._rows)


def check_geometry(got, want) -> None:
    """Refuse to mix sketches, codes or specs of different condensations."""
    a = (got.p, got.bit_width, got.norm_factor)
    b = (want.p, want.bit_width, want.norm_factor)
    if a != b:
        raise IncompatibilityError(
            f"condensation (p, bit_width, norm_factor) = {a} does not match {b}"
        )


def condense(spec: CondensationSpec, code: BinaryCode) -> CondensedCode:
    """Condense one binary code; all arithmetic is exact int64."""
    if code.length != spec.m:
        raise ShapeError(f"code length {code.length} != condensation m {spec.m}")
    signs = code.to_signs().astype(np.int64)
    entries = signs.reshape(spec.p, spec.lam) @ spec.kernel
    return CondensedCode(
        p=spec.p,
        bit_width=spec.bit_width,
        norm_factor=spec.norm_factor,
        entries=entries,
    )


def condense_signs_batch(spec: CondensationSpec, signs: np.ndarray) -> np.ndarray:
    """Condense k sign rows (k, m) -> integer entries (k, p)."""
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] != spec.m:
        raise ShapeError(f"expected (k, {spec.m}) sign array, got {signs.shape}")
    blocks = signs.astype(np.int64).reshape(signs.shape[0], spec.p, spec.lam)
    return blocks @ spec.kernel


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


def l1_distance(a: CondensedCode, b: CondensedCode) -> float:
    """Distance estimate between two condensed codes.

    The absolute differences are summed exactly in int64 and the total is
    scaled by ``norm_factor`` in a single floating-point multiplication, so
    the result is a deterministic function of the integer entries.
    """
    check_geometry(a, b)
    total = int(np.abs(a.entries - b.entries).sum())
    return total * a.norm_factor


def pairwise_l1_blocks(rows: np.ndarray, block_pairs: int = 1 << 17):
    """Yield ``(start, stop, sums)``: the l1 distances of rows start..stop-1
    to every later row, in (i, j), i < j order, about ``block_pairs`` at a
    time. Integer rows give exact int64 sums when their differences fit
    the row dtype (see :func:`entry_dtype`).
    """
    rows = np.asarray(rows)
    k = rows.shape[0]
    diff = np.empty_like(rows)
    dtype = rows[:0].sum(axis=1).dtype
    start = 0
    while start < k - 1:
        stop, count = start + 1, k - 1 - start
        while stop < k - 1 and count + k - 1 - stop <= block_pairs:
            count += k - 1 - stop
            stop += 1
        sums = np.empty(count, dtype=dtype)
        off = 0
        for i in range(start, stop):
            n = k - 1 - i
            d = np.subtract(rows[i + 1 :], rows[i], out=diff[:n])
            np.abs(d, out=d).sum(axis=1, out=sums[off : off + n])
            off += n
        yield start, stop, sums
        start = stop


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
        bits = np.unpackbits(raw, axis=2, bitorder="little")[:, :, :w]
        out[rows] = np.packbits(bits.reshape(-1, p * w), axis=1, bitorder="little")
    return out


def unpack_rows(payload: np.ndarray, p: int, bit_width: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: (k, record) bytes -> (k, p) entries."""
    w = bit_width
    dtype = entry_dtype(w)
    out = np.empty((payload.shape[0], p), dtype=dtype)
    wide_bits = 8 * dtype.itemsize
    for rows in _row_blocks(payload.shape[0], p * wide_bits):
        bits = np.unpackbits(payload[rows], axis=1, count=p * w, bitorder="little")
        # Widen every field to the dtype's width by repeating its sign bit.
        wide = np.empty((bits.shape[0], p, wide_bits), dtype=np.uint8)
        wide[:, :, :w] = bits.reshape(-1, p, w)
        wide[:, :, w:] = wide[:, :, w - 1 : w]
        raw = np.packbits(wide, axis=2, bitorder="little")
        out[rows] = raw.view(dtype.newbyteorder("<"))[:, :, 0]
    return out


def pack_condensed(code: CondensedCode) -> bytes:
    """Pack one code's entries; see :func:`pack_rows` for the layout."""
    return pack_rows(np.asarray(code.entries)[None, :], code.bit_width).tobytes()


def unpack_condensed(
    data: bytes, p: int, bit_width: int, norm_factor: float
) -> CondensedCode:
    """Inverse of :func:`pack_condensed` given the record geometry."""
    expected = (p * bit_width + 7) // 8
    if len(data) != expected:
        raise ShapeError(f"record has {len(data)} bytes, expected {expected}")
    payload = np.frombuffer(data, dtype=np.uint8)[None, :]
    return CondensedCode(
        p=p, bit_width=bit_width, norm_factor=norm_factor,
        entries=unpack_rows(payload, p, bit_width)[0],
    )
