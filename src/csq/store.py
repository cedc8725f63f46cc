"""File formats: datasets, models, codes, sketches and benchmark curves.

All binary layouts are little-endian regardless of host and start with a
4-byte magic plus a u32 version:

* ``CSQV`` vectors: u64 k, u64 n, then k*n float64 row-major.
* ``CSQM`` model: method byte (0 sparse, 1 fjlt); u64 n, n_pad, m, p;
  u32 r, lambda_tilde, sigma; f64 mu, sparsity, wellspread_const;
  u64 matrix_seed, diagonal_seed; explicit flag byte. When the flag is 1 an
  explicit-matrix section follows (u64 nnz, row_offsets, col_indices,
  values, u64 sign count, int8 signs) so foreign readers need not reproduce
  this implementation's random stream.
* ``CSQC`` binary codes: u64 k, u64 m, then k records of ceil(m/8) bytes,
  bit i of a record holding sign i (+1 -> 1), LSB first.
* ``CSQD`` condensed codes: u64 k, u64 p, u32 bit_width, f64 norm_factor,
  then k records of ceil(p*bit_width/8) bytes of fixed-width
  two's-complement entries, LSB-first bit order.

``read_vectors`` also accepts plain CSV (one comma-separated vector per
line) and converts on the fly. Curves are plain CSV with the header
``m,p,r,mape,wall_ms``.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from pathlib import Path

import numpy as np

from .condense import (
    Codes,
    CondensationSpec,
    Sketches,
    check_geometry,
    entry_dtype,
    pack_rows,
    unpack_rows,
)
from .errors import CorruptionError, FormatError, InputError
from .pipeline import FILE_VERSION, Dataset, EmbeddingModel
from .sigma_delta import build_quantizer
from .condense import build_condensation
from .transforms import SparseGaussianMatrix

MAGIC_VECTORS = b"CSQV"
MAGIC_MODEL = b"CSQM"
MAGIC_CODES = b"CSQC"
MAGIC_CONDENSED = b"CSQD"

CURVE_HEADER = ["m", "p", "r", "mape", "wall_ms"]

_METHOD_BYTES = {"sparse": 0, "fjlt": 1}
_BYTE_METHODS = {v: k for k, v in _METHOD_BYTES.items()}

# Largest in-memory row (a sketch or a vector) the readers accept; NumPy
# cannot describe a (k, width) matrix, even an empty one, much beyond this.
_MAX_ROW_BYTES = 2**62

# Header bytes: magic, version and two u64 (CSQV, CSQC); CSQD adds a u32 and an f64.
_ROWS_HEADER = 24
_CONDENSED_HEADER = 36


class _Reader:
    """Bounds-checked little-endian cursor over a file's bytes."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.off + count > len(self.data):
            raise CorruptionError(f"{self.path}: truncated file")
        chunk = self.data[self.off : self.off + count]
        self.off += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        raw = self.take(count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<")).astype(
            np.dtype(dtype), copy=True
        )

    def expect_end(self) -> None:
        if self.off != len(self.data):
            raise CorruptionError(f"{self.path}: trailing bytes after payload")


def _input_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such input file: {p}")
    return p


def _read_rows(fh, path, shape: tuple[int, int], dtype: str) -> np.ndarray:
    """Read the rest of ``fh`` into a new ``shape`` array of little-endian
    ``dtype``, once the file size says it holds exactly that many bytes,
    so a header claiming more data than the file holds allocates nothing.
    """
    k, width = shape
    record = width * np.dtype(dtype).itemsize
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload != k * record:
        raise CorruptionError(
            f"{path}: payload is {payload} bytes, "
            f"expected {k * record} ({k} records of {record})"
        )
    rows = np.empty(shape, dtype=np.dtype(dtype).newbyteorder("<"))
    if fh.readinto(rows.reshape(-1).view(np.uint8)) != payload:
        raise CorruptionError(f"{path}: truncated file")
    return rows


def _check_header(reader: _Reader, magic: bytes) -> None:
    got = reader.take(4)
    if got != magic:
        raise FormatError(
            f"{reader.path}: bad magic {got!r}, expected {magic.decode()}"
        )
    (version,) = reader.unpack("I")
    if version != FILE_VERSION:
        raise FormatError(f"{reader.path}: unknown version {version}")


def write_vectors(path, dataset: Dataset) -> None:
    if not np.all(np.isfinite(dataset.vectors)):
        raise InputError("refusing to write non-finite vectors")
    with open(path, "wb") as fh:
        fh.write(MAGIC_VECTORS)
        fh.write(struct.pack("<IQQ", FILE_VERSION, dataset.k, dataset.n))
        fh.write(np.ascontiguousarray(dataset.vectors, dtype="<f8").tobytes())


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
    matrix = np.asarray(rows, dtype=np.float64)
    from .pipeline import dataset_from_matrix

    return dataset_from_matrix(matrix)


def read_vectors(path) -> Dataset:
    """Read a CSQV file (or CSV text) into a :class:`Dataset`.

    The CSQV payload is read once, straight into the final array (see
    :func:`_read_rows`).
    """
    with open(_input_file(path), "rb") as fh:
        head = fh.read(_ROWS_HEADER)
        if head[:4] != MAGIC_VECTORS:
            return _read_vectors_csv(head + fh.read(), str(path))
        reader = _Reader(head, str(path))
        _check_header(reader, MAGIC_VECTORS)
        k, n = reader.unpack("QQ")
        if k > 0 and n == 0:
            raise FormatError(f"{path}: zero-dimensional vectors")
        if 8 * n > _MAX_ROW_BYTES:
            raise FormatError(f"{path}: vector dimension n={n} is too large")
        vectors = _read_rows(fh, path, (k, n), "f8")
    from .pipeline import dataset_from_matrix

    return dataset_from_matrix(vectors)


def write_model(path, model: EmbeddingModel, explicit: bool = False) -> None:
    """Persist a model; ``explicit=True`` additionally stores the matrix."""
    model.validate()
    with open(path, "wb") as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack("<I", FILE_VERSION))
        fh.write(struct.pack("<B", _METHOD_BYTES[model.method]))
        fh.write(
            struct.pack("<QQQQ", model.n, model.n_pad, model.m, model.p)
        )
        fh.write(
            struct.pack("<III", model.r, model.lambda_tilde, model.quantizer.sigma)
        )
        fh.write(
            struct.pack(
                "<ddd", model.quantizer.mu, model.sparsity, model.wellspread_const
            )
        )
        fh.write(struct.pack("<QQ", model.matrix_seed, model.diagonal_seed))
        if not explicit:
            fh.write(struct.pack("<B", 0))
            return
        from .pipeline import model_operator
        from .transforms import FjltOperator

        op = model_operator(model)
        if isinstance(op, FjltOperator):
            matrix = op.matrix
            signs = op.diagonal.signs.astype(np.int8)
        else:
            matrix = op
            signs = np.zeros(0, dtype=np.int8)
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<Q", matrix.nnz))
        fh.write(np.ascontiguousarray(matrix.row_offsets, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(matrix.col_indices, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(matrix.values, dtype="<f8").tobytes())
        fh.write(struct.pack("<Q", signs.shape[0]))
        fh.write(signs.tobytes())


def read_model(path) -> EmbeddingModel:
    reader = _Reader(_input_file(path).read_bytes(), str(path))
    _check_header(reader, MAGIC_MODEL)
    (method_byte,) = reader.unpack("B")
    if method_byte not in _BYTE_METHODS:
        raise FormatError(f"{path}: unknown method byte {method_byte}")
    method = _BYTE_METHODS[method_byte]
    n, n_pad, m, p = reader.unpack("QQQQ")
    r, lambda_tilde, sigma = reader.unpack("III")
    mu, sparsity, wellspread_const = reader.unpack("ddd")
    matrix_seed, diagonal_seed = reader.unpack("QQ")
    (explicit_flag,) = reader.unpack("B")

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
        model.validate()
        implied = (model.n_pad, model.m)
    except Exception as exc:
        raise FormatError(f"{path}: invalid model parameters: {exc}") from exc
    if implied != (n_pad, m):
        raise FormatError(
            f"{path}: header (n_pad, m) = {(n_pad, m)} but method={method}, "
            f"n={n}, r={r}, lambda_tilde={lambda_tilde}, p={p} imply {implied}"
        )

    if explicit_flag == 1:
        (nnz,) = reader.unpack("Q")
        row_offsets = reader.array("u8", m + 1).astype(np.int64)
        col_indices = reader.array("u8", nnz).astype(np.int64)
        values = reader.array("f8", nnz)
        (sign_count,) = reader.unpack("Q")
        signs = reader.array("i1", sign_count)
        model.explicit_matrix = SparseGaussianMatrix(
            rows=m,
            cols=n_pad,
            sparsity=sparsity,
            seed=matrix_seed,
            row_offsets=row_offsets,
            col_indices=col_indices,
            values=values,
        )
        if method == "fjlt":
            if sign_count != n_pad:
                raise FormatError(f"{path}: diagonal sign count != n_pad")
            if not np.all(np.abs(signs) == 1):
                raise FormatError(f"{path}: diagonal signs must be +1 or -1")
            model.explicit_signs = signs
        elif sign_count != 0:
            raise FormatError(f"{path}: sparse model carries diagonal signs")
        try:
            model.explicit_matrix.validate()
        except Exception as exc:
            raise FormatError(f"{path}: inconsistent model: {exc}") from exc
    elif explicit_flag != 0:
        raise FormatError(f"{path}: bad explicit-matrix flag {explicit_flag}")
    reader.expect_end()
    return model


def write_codes(path, codes: Codes) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC_CODES)
        fh.write(struct.pack("<IQQ", FILE_VERSION, len(codes), codes.length))
        fh.write(codes.bits)


def read_codes(path) -> Codes:
    """Read a CSQC file straight into its bit matrix (see :func:`_read_rows`)."""
    with open(_input_file(path), "rb") as fh:
        reader = _Reader(fh.read(_ROWS_HEADER), str(path))
        _check_header(reader, MAGIC_CODES)
        k, m = reader.unpack("QQ")
        if k > 0 and m == 0:
            raise FormatError(f"{path}: zero-length codes")
        record = (m + 7) // 8
        if record > _MAX_ROW_BYTES:
            raise FormatError(f"{path}: code length m={m} is too large")
        return Codes(m, _read_rows(fh, path, (k, record), "u1"))


def write_condensed(path, sketches: Sketches, spec: CondensationSpec) -> None:
    """Write sketches made under ``spec``."""
    check_geometry(sketches, spec)
    with open(path, "wb") as fh:
        fh.write(MAGIC_CONDENSED)
        fh.write(
            struct.pack(
                "<IQQId",
                FILE_VERSION,
                len(sketches),
                spec.p,
                spec.bit_width,
                spec.norm_factor,
            )
        )
        fh.write(pack_rows(sketches.entries, spec.bit_width))


def read_condensed(path) -> Sketches:
    with open(_input_file(path), "rb") as fh:
        reader = _Reader(fh.read(_CONDENSED_HEADER), str(path))
        _check_header(reader, MAGIC_CONDENSED)
        k, p, bit_width, norm_factor = reader.unpack("QQId")
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CURVE_HEADER:
            raise FormatError(f"{path}: unexpected curve header {header}")
        return [
            (int(m), int(p), int(r), float(mape), float(wall))
            for m, p, r, mape, wall in reader
        ]
