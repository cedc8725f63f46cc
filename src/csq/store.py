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
    BinaryCode,
    CondensationSpec,
    CondensedCode,
    Sketches,
    check_geometry,
    entry_dtype,
    pack_rows,
    unpack_rows,
)
from .errors import (
    CorruptionError,
    FormatError,
    IncompatibilityError,
    InputError,
    ShapeError,
)
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

# Magic, version, k and n.
_VECTORS_HEADER = 24


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


def _read_file(path) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such input file: {p}")
    return p.read_bytes()


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

    The CSQV payload is read once, straight into the final array, and only
    after the header's ``k * n`` has been checked against the file size, so
    a header claiming more data than the file holds allocates nothing.
    """
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"no such input file: {p}")
    with open(p, "rb") as fh:
        head = fh.read(_VECTORS_HEADER)
        if head[:4] != MAGIC_VECTORS:
            return _read_vectors_csv(head + fh.read(), str(path))
        reader = _Reader(head, str(path))
        _check_header(reader, MAGIC_VECTORS)
        k, n = reader.unpack("QQ")
        if k > 0 and n == 0:
            raise FormatError(f"{path}: zero-dimensional vectors")
        if 8 * n > _MAX_ROW_BYTES:
            raise FormatError(f"{path}: vector dimension n={n} is too large")
        payload = os.fstat(fh.fileno()).st_size - _VECTORS_HEADER
        if payload != 8 * k * n:
            raise CorruptionError(
                f"{path}: payload is {payload} bytes, "
                f"expected {8 * k * n} ({k} vectors of {n} float64)"
            )
        vectors = np.empty((k, n), dtype="<f8")
        if fh.readinto(vectors.reshape(-1).view(np.uint8)) != payload:
            raise CorruptionError(f"{path}: truncated file")
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
    reader = _Reader(_read_file(path), str(path))
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
        quantizer = build_quantizer(r, sigma=sigma, mu=mu)
        condensation = build_condensation(r, lambda_tilde, p)
    except Exception as exc:
        raise FormatError(f"{path}: invalid model parameters: {exc}") from exc
    if condensation.m != m:
        raise FormatError(
            f"{path}: header m={m} but r={r}, lambda_tilde={lambda_tilde}, "
            f"p={p} imply m={condensation.m}"
        )

    explicit_matrix = None
    explicit_signs = None
    if explicit_flag == 1:
        (nnz,) = reader.unpack("Q")
        row_offsets = reader.array("u8", m + 1).astype(np.int64)
        col_indices = reader.array("u8", nnz).astype(np.int64)
        values = reader.array("f8", nnz)
        (sign_count,) = reader.unpack("Q")
        signs = reader.array("i1", sign_count)
        explicit_matrix = SparseGaussianMatrix(
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
            explicit_signs = signs
        elif sign_count != 0:
            raise FormatError(f"{path}: sparse model carries diagonal signs")
    elif explicit_flag != 0:
        raise FormatError(f"{path}: bad explicit-matrix flag {explicit_flag}")
    reader.expect_end()

    model = EmbeddingModel(
        method=method,
        n=n,
        n_pad=n_pad,
        m=m,
        p=p,
        r=r,
        lambda_tilde=lambda_tilde,
        sparsity=sparsity,
        wellspread_const=wellspread_const,
        matrix_seed=matrix_seed,
        diagonal_seed=diagonal_seed,
        quantizer=quantizer,
        condensation=condensation,
        explicit_matrix=explicit_matrix,
        explicit_signs=explicit_signs,
    )
    try:
        model.validate()
        if explicit_matrix is not None:
            explicit_matrix.validate()
    except Exception as exc:
        raise FormatError(f"{path}: inconsistent model: {exc}") from exc
    return model


def write_codes(path, codes: list[BinaryCode], m: int | None = None) -> None:
    if codes:
        if m is None:
            m = codes[0].length
        if any(code.length != m for code in codes):
            raise IncompatibilityError("all codes in a file must share length")
    elif m is None:
        m = 0
    record = (m + 7) // 8
    with open(path, "wb") as fh:
        fh.write(MAGIC_CODES)
        fh.write(struct.pack("<IQQ", FILE_VERSION, len(codes), m))
        for code in codes:
            if code.bits.shape[0] != record:
                raise ShapeError("packed code has the wrong byte count")
            fh.write(code.bits.tobytes())


def read_codes(path) -> list[BinaryCode]:
    reader = _Reader(_read_file(path), str(path))
    _check_header(reader, MAGIC_CODES)
    k, m = reader.unpack("QQ")
    record = (m + 7) // 8
    expected = reader.off + k * record
    if len(reader.data) != expected:
        raise CorruptionError(
            f"{path}: payload is {len(reader.data) - reader.off} bytes, "
            f"expected {k * record} ({k} records of {record})"
        )
    codes = []
    for _ in range(k):
        bits = reader.array("u1", record)
        codes.append(BinaryCode(length=m, bits=bits))
    return codes


def write_condensed(
    path, codes: Sketches | list[CondensedCode], spec: CondensationSpec
) -> None:
    """Write sketches (or a list of per-point codes) made under ``spec``."""
    if isinstance(codes, Sketches):
        check_geometry(codes, spec)
        sketches = codes
    else:
        sketches = Sketches.from_codes(spec, codes)
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
        fh.write(pack_rows(sketches.entries, spec.bit_width).tobytes())


def read_condensed(path) -> Sketches:
    reader = _Reader(_read_file(path), str(path))
    _check_header(reader, MAGIC_CONDENSED)
    k, p, bit_width, norm_factor = reader.unpack("QQId")
    if p < 1 or bit_width < 1 or bit_width > 63:
        raise FormatError(f"{path}: implausible condensed geometry")
    if not (math.isfinite(norm_factor) and norm_factor > 0.0):
        raise FormatError(f"{path}: norm_factor must be finite and positive")
    if p * entry_dtype(bit_width).itemsize > _MAX_ROW_BYTES:
        raise FormatError(f"{path}: sketch length p={p} is too large")
    record = (p * bit_width + 7) // 8
    payload = len(reader.data) - reader.off
    if payload != k * record:
        raise CorruptionError(
            f"{path}: payload is {payload} bytes, "
            f"expected {k * record} ({k} records of {record})"
        )
    rows = np.frombuffer(reader.data, dtype=np.uint8, offset=reader.off)
    entries = unpack_rows(rows.reshape(k, record), p, bit_width)
    return Sketches(p, bit_width, norm_factor, entries)


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
