"""File formats: datasets, models, codes, sketches and benchmark tables.

Every binary file is little-endian regardless of host: a 4-byte magic, a
u32 version, the header fields of its format (one ``struct.Struct`` below,
used by the writer and the reader alike), then its payload arrays:

* ``CSQV`` vectors: k*n float64, row-major.
* ``CSQM`` model: nothing, or with the explicit flag set the matrix itself
  (u64 nnz, u64 row_offsets, u64 col_indices, f64 values, u64 sign count,
  int8 signs), so foreign readers need not reproduce this implementation's
  random stream.
* ``CSQC`` binary codes: k records of ceil(m/8) bytes, bit i of a record
  holding sign i (+1 -> 1), LSB first.
* ``CSQD`` condensed codes: k records of ceil(p*bit_width/8) bytes of
  fixed-width two's-complement entries, LSB-first bit order.

Readers check the header, then check each payload's size against the file
size before they read it into its final array, so a header claiming more
data than the file holds allocates nothing. ``read_vectors`` also accepts
plain CSV (one comma-separated vector per line). ``VectorFile`` reads the
rows of a CSQV file a block at a time; ``codes_writer`` and
``condensed_writer`` write a CSQC or CSQD header and then records at their
offsets, in any order and from several threads, and are the writers of
``write_codes`` and ``write_condensed`` too. Curves and stability
scans are CSV tables with the headers ``CURVE_HEADER`` and
``STABILITY_HEADER``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import io
import math
import os
import struct
from pathlib import Path

import numpy as np

from .condense import (
    Codes,
    Sketches,
    build_condensation,
    entry_dtype,
    pack_rows,
    unpack_rows,
)
from .errors import CorruptionError, CsqError, FormatError
from .pipeline import Dataset, EmbeddingModel
from .sigma_delta import build_quantizer
from .transforms import Projection, SparseGaussianMatrix

FILE_VERSION = 1

MAGIC_VECTORS = b"CSQV"
MAGIC_MODEL = b"CSQM"
MAGIC_CODES = b"CSQC"
MAGIC_CONDENSED = b"CSQD"

# The header fields after magic and version, one layout per format.
_VECTORS = struct.Struct("<QQ")  # k, n
_CODES = struct.Struct("<QQ")  # k, m
_CONDENSED = struct.Struct("<QQId")  # k, p, bit_width, norm_factor
# method (0 sparse, 1 fjlt), n, n_pad, m, p, r, lambda_tilde, sigma, mu,
# sparsity, wellspread_const, matrix_seed, diagonal_seed, explicit flag
_MODEL = struct.Struct("<BQQQQIIIdddQQB")
_VERSION = struct.Struct("<I")
_COUNT = struct.Struct("<Q")

CURVE_HEADER = ["m", "p", "r", "mape", "wall_ms"]
STABILITY_HEADER = ["r", "m", "max_u_inf"]

_METHOD_BYTES = {"sparse": 0, "fjlt": 1}
_BYTE_METHODS = {v: k for k, v in _METHOD_BYTES.items()}

# Largest in-memory row (a sketch or a vector) the readers accept; NumPy
# cannot describe a (k, width) matrix, even an empty one, much beyond this.
_MAX_ROW_BYTES = 2**62


def _input_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such input file: {p}")
    return p


def _head(magic: bytes, layout: struct.Struct, fields) -> bytes:
    """Magic, version and the ``fields`` packed by ``layout``."""
    return magic + _VERSION.pack(FILE_VERSION) + layout.pack(*fields)


def _write(path, magic: bytes, layout: struct.Struct, fields, *payload) -> None:
    """Write the header, then each payload part: an array as contiguous
    little-endian data, packed ``bytes`` as they are."""
    with open(path, "wb") as fh:
        fh.write(_head(magic, layout, fields))
        for part in payload:
            if isinstance(part, np.ndarray):
                part = np.ascontiguousarray(part, part.dtype.newbyteorder("<"))
            fh.write(part)


def _bytes(a: np.ndarray) -> memoryview:
    """The bytes of the C-ordered array ``a``, as a flat view."""
    return memoryview(a.reshape(-1).view(np.uint8))


def _pwrite(fd: int, data: bytes | memoryview, offset: int) -> None:
    """Write all of ``data`` at ``offset``."""
    view = memoryview(data)
    while view:
        try:
            done = os.pwrite(fd, view, offset)
        except OSError as exc:
            if exc.errno != errno.ESPIPE:
                raise
            # A pipe: whole files are written front to back.
            done = os.write(fd, view)
        view, offset = view[done:], offset + done


def _rows_writer(fd: int, magic: bytes, layout: struct.Struct, fields, record: int):
    """Write a header at the start of the file open as ``fd``; returns
    ``put(lo, rows)``, which writes the C-ordered (b, record) uint8 rows
    as records lo.. at their offsets after it. Threads may put disjoint
    records at once."""
    head = _head(magic, layout, fields)
    _pwrite(fd, head, 0)
    return lambda lo, rows: _pwrite(fd, _bytes(rows), len(head) + lo * record)


def _unpack(fh, path, layout: struct.Struct) -> tuple:
    raw = fh.read(layout.size)
    if len(raw) != layout.size:
        raise CorruptionError(f"{path}: truncated file")
    return layout.unpack(raw)


def _header(fh, path, magic: bytes, layout: struct.Struct) -> tuple:
    """The header fields of a file opened at its start. A wrong magic or
    version is a :class:`FormatError`, a short header a
    :class:`CorruptionError`."""
    got = fh.read(len(magic))
    if len(got) == len(magic) and got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic.decode()}")
    (version,) = _unpack(fh, path, _VERSION)
    if version != FILE_VERSION:
        raise FormatError(f"{path}: unknown version {version}")
    return _unpack(fh, path, layout)


def _expect(fh, path, shape: tuple, dtype: str, last: bool) -> int:
    """Bytes of the ``shape`` array of ``dtype`` that comes next in ``fh``,
    once the file size says it holds them (exactly them, when the array
    ends the file)."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < size or (last and left != size):
        raise CorruptionError(
            f"{path}: {left} bytes left, expected {size} for a {shape} array"
        )
    return size


def _read_rows(fh, path, shape: tuple, dtype: str, last: bool = True) -> np.ndarray:
    """Read the next ``shape`` array of little-endian ``dtype`` from ``fh``
    into a new array, once the file size says it holds that many bytes
    (exactly that many, when the array ends the file)."""
    size = _expect(fh, path, shape, dtype, last)
    rows = np.empty(shape, dtype=np.dtype(dtype).newbyteorder("<"))
    if fh.readinto(_bytes(rows)) != size:
        raise CorruptionError(f"{path}: truncated file")
    return rows


def write_vectors(path, dataset: Dataset) -> None:
    _write(path, MAGIC_VECTORS, _VECTORS, dataset.vectors.shape, dataset.vectors)


def _read_vectors_csv(data: bytes, path: str) -> Dataset:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: neither a CSQV file nor text CSV") from exc
    rows = []
    try:
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric CSV cell") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty vector file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise FormatError(f"{path}: ragged CSV rows")
    return Dataset(np.asarray(rows, dtype=np.float64))


class VectorFile:
    """An open CSQV file, read a block of rows at a time.

    Made from a file object at its start: the header is read and checked,
    and so is the file size, which must be exactly the header and k*n
    float64. The rows are read with ``os.preadv`` at their offsets, so
    threads may read at once; the file stays open while ``fh`` does.
    """

    def __init__(self, fh, path):
        k, n = _header(fh, path, MAGIC_VECTORS, _VECTORS)
        if k > 0 and n == 0:
            raise FormatError(f"{path}: zero-dimensional vectors")
        if 8 * n > _MAX_ROW_BYTES:
            raise FormatError(f"{path}: vector dimension n={n} is too large")
        _expect(fh, path, (k, n), "f8", last=True)
        self.path, self.k, self.n = path, k, n
        self._fd, self._start = fh.fileno(), fh.tell()

    def read(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Rows lo.. into ``out``, a C-ordered little-endian float64
        (b, n) array, unchecked; returns ``out``."""
        view = _bytes(out)
        offset = self._start + 8 * lo * self.n
        while view:
            got = os.preadv(self._fd, [view], offset)
            if got == 0:
                raise CorruptionError(f"{self.path}: truncated file")
            view, offset = view[got:], offset + got
        return out

    def block_reader(self, rows: int):
        """``read(lo, hi)`` of :func:`csq.pipeline._embed_blocks`: rows
        lo..hi-1 (at most ``rows``) read into one buffer, checked as a
        :class:`Dataset`; returns their vectors and norms."""
        buffer = np.empty((rows, self.n), dtype="<f8")

        def read(lo: int, hi: int):
            block = Dataset(self.read(lo, buffer[: hi - lo]))
            return block.vectors, block.norms

        return read


@contextlib.contextmanager
def open_vectors(path):
    """The vectors of a file, for as long as the context lasts: a CSQV file
    as a :class:`VectorFile`, CSV text read whole into a :class:`Dataset`.
    Either is a source of :func:`csq.pipeline._embed_blocks`."""
    with open(_input_file(path), "rb") as fh:
        is_csqv = fh.read(len(MAGIC_VECTORS)) == MAGIC_VECTORS
        fh.seek(0)
        if is_csqv:
            yield VectorFile(fh, path)
        else:
            yield _read_vectors_csv(fh.read(), str(path))


def read_vectors(path) -> Dataset:
    """Read a CSQV file (or CSV text) whole into a :class:`Dataset`."""
    with open_vectors(path) as source:
        if isinstance(source, Dataset):
            return source
        return Dataset(source.read(0, np.empty((source.k, source.n), dtype="<f8")))


def write_model(path, model: EmbeddingModel, explicit: bool = False) -> None:
    """Persist a model; ``explicit=True`` additionally stores the matrix."""
    q = model.quantizer
    fields = (
        _METHOD_BYTES[model.method], model.n, model.n_pad, model.m, model.p,
        model.r, model.lambda_tilde, q.sigma, q.mu, model.sparsity,
        model.wellspread_const, model.matrix_seed, model.diagonal_seed, explicit,
    )
    payload = ()
    if explicit:
        op = model.operator
        matrix = op.matrix
        signs = np.asarray([] if op.signs is None else op.signs, dtype=np.int8)
        payload = (
            _COUNT.pack(matrix.nnz),
            matrix.row_offsets.astype(np.uint64),
            matrix.col_indices.astype(np.uint64),
            matrix.values,
            _COUNT.pack(len(signs)),
            signs,
        )
    _write(path, MAGIC_MODEL, _MODEL, fields, *payload)


def read_model(path) -> EmbeddingModel:
    """Read a CSQM file: the header, then the explicit matrix if it has one."""
    with open(_input_file(path), "rb") as fh:
        (method_byte, n, n_pad, m, p, r, lambda_tilde, sigma, mu, sparsity,
         wellspread_const, matrix_seed, diagonal_seed, explicit_flag,
         ) = _header(fh, path, MAGIC_MODEL, _MODEL)
        if method_byte not in _BYTE_METHODS:
            raise FormatError(f"{path}: unknown method byte {method_byte}")
        method = _BYTE_METHODS[method_byte]
        try:
            model = EmbeddingModel(
                method=method,
                n=n,
                sparsity=sparsity,
                wellspread_const=wellspread_const,
                matrix_seed=matrix_seed,
                diagonal_seed=diagonal_seed,
                quantizer=build_quantizer(r, sigma=sigma, mu=mu),
                condensation=build_condensation(r, lambda_tilde, p),
            )
            implied = (model.n_pad, model.m)
        except Exception as exc:
            raise FormatError(f"{path}: invalid model parameters: {exc}") from exc
        if implied != (n_pad, m):
            raise FormatError(
                f"{path}: header (n_pad, m) = {(n_pad, m)} but method={method}, "
                f"n={n}, r={r}, lambda_tilde={lambda_tilde}, p={p} imply {implied}"
            )
        if explicit_flag == 0:
            _read_rows(fh, path, (0,), "u1")  # the header ends the file
            return model
        if explicit_flag != 1:
            raise FormatError(f"{path}: bad explicit-matrix flag {explicit_flag}")
        (nnz,) = _unpack(fh, path, _COUNT)
        row_offsets = _read_rows(fh, path, (m + 1,), "u8", last=False)
        col_indices = _read_rows(fh, path, (nnz,), "u8", last=False)
        values = _read_rows(fh, path, (nnz,), "f8", last=False)
        (sign_count,) = _unpack(fh, path, _COUNT)
        signs = _read_rows(fh, path, (sign_count,), "i1")
    try:
        matrix = SparseGaussianMatrix(m, n_pad, row_offsets, col_indices, values)
        return dataclasses.replace(
            model, explicit=Projection(n, matrix, signs if sign_count else None)
        )
    except CsqError as exc:
        raise FormatError(f"{path}: inconsistent model: {exc}") from exc


def codes_writer(fd: int, k: int, m: int):
    """Write the CSQC header of k codes of length m into the file open as
    ``fd``; returns ``write(lo, bits)``, which writes (b, ceil(m/8)) packed
    code rows as codes lo.. at their offsets."""
    return _rows_writer(fd, MAGIC_CODES, _CODES, (k, m), (m + 7) // 8)


def write_codes(path, codes: Codes) -> None:
    with open(path, "wb") as fh:
        codes_writer(fh.fileno(), len(codes), codes.length)(0, codes.bits)


def read_codes(path) -> Codes:
    """Read a CSQC file straight into its bit matrix."""
    with open(_input_file(path), "rb") as fh:
        k, m = _header(fh, path, MAGIC_CODES, _CODES)
        if k > 0 and m == 0:
            raise FormatError(f"{path}: zero-length codes")
        record = (m + 7) // 8
        if record > _MAX_ROW_BYTES:
            raise FormatError(f"{path}: code length m={m} is too large")
        return Codes(m, _read_rows(fh, path, (k, record), "u1"))


def condensed_writer(fd: int, k: int, geometry):
    """Write the CSQD header of k sketches of ``geometry`` (``p``,
    ``bit_width``, ``norm_factor``: a :class:`Sketches` or a
    :class:`csq.condense.CondensationSpec`) into the file open as ``fd``;
    returns ``write(lo, records)``, which writes (b, ceil(p * bit_width /
    8)) packed sketch records (see :func:`csq.condense.pack_rows`) as
    sketches lo.. at their offsets."""
    p, width = geometry.p, geometry.bit_width
    fields = (k, p, width, geometry.norm_factor)
    return _rows_writer(fd, MAGIC_CONDENSED, _CONDENSED, fields, (p * width + 7) // 8)


def write_condensed(path, sketches: Sketches) -> None:
    """Write sketches with their geometry (p, bit_width, norm_factor)."""
    records = pack_rows(sketches.entries, sketches.bit_width)
    with open(path, "wb") as fh:
        condensed_writer(fh.fileno(), len(sketches), sketches)(0, records)


def read_condensed(path) -> Sketches:
    with open(_input_file(path), "rb") as fh:
        k, p, bit_width, norm_factor = _header(fh, path, MAGIC_CONDENSED, _CONDENSED)
        if p < 1 or bit_width < 1 or bit_width > 63:
            raise FormatError(f"{path}: implausible condensed geometry")
        if not (math.isfinite(norm_factor) and norm_factor > 0.0):
            raise FormatError(f"{path}: norm_factor must be finite and positive")
        if p * entry_dtype(bit_width).itemsize > _MAX_ROW_BYTES:
            raise FormatError(f"{path}: sketch length p={p} is too large")
        record = (p * bit_width + 7) // 8
        payload = _read_rows(fh, path, (k, record), "u1")
    return Sketches(p, bit_width, norm_factor, unpack_rows(payload, p, bit_width))


def write_curve(path, rows: list[tuple]) -> None:
    """Write benchmark rows (m, p, r, mape, wall_ms) sorted by (r, p, m)."""
    ordered = sorted(rows, key=lambda row: (row[2], row[1], row[0]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for m, p, r, mape, wall_ms in ordered:
            writer.writerow([m, p, r, repr(float(mape)), repr(float(wall_ms))])


def read_curve(path) -> list[tuple]:
    with open(_input_file(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CURVE_HEADER:
                raise FormatError(f"{path}: unexpected curve header {header}")
            return [
                (int(m), int(p), int(r), float(mape), float(wall))
                for m, p, r, mape, wall in reader
            ]
        except (ValueError, csv.Error) as exc:
            raise FormatError(f"{path}:{reader.line_num}: malformed curve row") from exc


def write_stability_csv(path, rows: list[tuple[int, int, float]]) -> None:
    """Write stability scan rows (r, m, max_u_inf) in the given order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STABILITY_HEADER)
        for r, m, peak in rows:
            writer.writerow([r, m, repr(float(peak))])
