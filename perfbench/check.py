"""Output checks, independent of the program's own readers and kernels.

The CSQC and CSQD layouts are parsed here from their documented format,
the condensation kernel is rebuilt from its definition, and every distance
estimate is recomputed as an exact int64 l1 sum times ``norm_factor``. A
reader or kernel bug in the program therefore cannot hide itself by being
used to check its own output.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Median relative error the README reports for this setup is about 6%; a
# run whose estimates are off by more than this fails its accuracy check.
MAPE_BOUND = 0.10


@dataclass
class Sketches:
    p: int
    bit_width: int
    norm_factor: float
    entries: np.ndarray  # (k, p) int64


def read_csqd(path: Path) -> Sketches:
    """Parse a CSQD file: header, then fixed-width two's-complement records."""
    data = Path(path).read_bytes()
    if data[:4] != b"CSQD":
        raise ValueError(f"{path}: not a CSQD file")
    _, k, p, w, nf = struct.unpack_from("<IQQId", data, 4)
    record = (p * w + 7) // 8
    body = np.frombuffer(data, dtype=np.uint8, offset=4 + struct.calcsize("<IQQId"))
    if body.size != k * record:
        raise ValueError(f"{path}: {body.size} payload bytes, expected {k * record}")
    bits = np.unpackbits(body.reshape(k, record), axis=1, bitorder="little")
    fields = bits[:, : p * w].reshape(k, p, w).astype(np.int64)
    values = fields @ (np.int64(1) << np.arange(w, dtype=np.int64))
    values -= (values >> (w - 1)) << w
    return Sketches(p=p, bit_width=w, norm_factor=nf, entries=values)


def read_csqc(path: Path) -> np.ndarray:
    """Parse a CSQC file into a (k, m) array of int64 signs."""
    data = Path(path).read_bytes()
    if data[:4] != b"CSQC":
        raise ValueError(f"{path}: not a CSQC file")
    _, k, m = struct.unpack_from("<IQQ", data, 4)
    record = (m + 7) // 8
    body = np.frombuffer(data, dtype=np.uint8, offset=4 + struct.calcsize("<IQQ"))
    if body.size != k * record:
        raise ValueError(f"{path}: {body.size} payload bytes, expected {k * record}")
    return signs_from_bits(body.reshape(k, record), m)


def signs_from_bits(bits: np.ndarray, m: int) -> np.ndarray:
    """LSB-first packed bits (k, ceil(m/8)) -> (k, m) signs, 1 -> +1, 0 -> -1."""
    flat = np.unpackbits(bits, axis=1, count=m, bitorder="little")
    return flat.astype(np.int64) * 2 - 1


def kernel(r: int, lambda_tilde: int) -> np.ndarray:
    """Coefficients of (1 + z + ... + z**(lambda_tilde - 1))**r."""
    v = np.ones(1, dtype=np.int64)
    for _ in range(r):
        v = np.convolve(v, np.ones(lambda_tilde, dtype=np.int64))
    return v


def expected_geometry(r: int, lambda_tilde: int, p: int) -> tuple[int, float]:
    """(bit_width, norm_factor) of the order-r condensation with p blocks."""
    v = kernel(r, lambda_tilde)
    bit_width = (lambda_tilde**r).bit_length() + 1
    return bit_width, math.sqrt(math.pi / 2.0) / (p * math.sqrt(int(v @ v)))


def condense(signs: np.ndarray, r: int, lambda_tilde: int, p: int) -> np.ndarray:
    """Block sums of signs (k, m) against the kernel -> (k, p) int64."""
    v = kernel(r, lambda_tilde)
    return signs.reshape(signs.shape[0], p, v.size) @ v


def estimates(a: np.ndarray, b: np.ndarray, norm_factor: float) -> np.ndarray:
    """Every estimate between rows of a (x, p) and b (y, p) -> (x, y)."""
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for i, row in enumerate(a):
        out[i] = np.abs(b - row).sum(axis=1).astype(np.float64) * norm_factor
    return out


def pair_estimates(e: np.ndarray, pairs: np.ndarray, norm_factor: float) -> np.ndarray:
    l1 = np.abs(e[pairs[:, 0]] - e[pairs[:, 1]]).sum(axis=1)
    return l1.astype(np.float64) * norm_factor


def true_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of x and rows of y -> (len x, len y)."""
    sq = (x * x).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * (x @ y.T)
    return np.sqrt(np.maximum(sq, 0.0))


def mape(est: np.ndarray, true: np.ndarray) -> float:
    return float(np.mean(np.abs(est - true) / true))


def check_sketch_files(codes: Path, sketches: Path, r: int, lambda_tilde: int,
                       p: int, k: int) -> tuple[list[str], Sketches | None]:
    """Re-read a CSQC/CSQD pair; the sketches must be the condensed codes.

    Returns the failures found and the parsed sketches.
    """
    try:
        signs = read_csqc(codes)
        sk = read_csqd(sketches)
    except (OSError, ValueError) as exc:
        return [str(exc)], None
    failures = []
    bit_width, norm_factor = expected_geometry(r, lambda_tilde, p)
    if (sk.p, sk.bit_width) != (p, bit_width) or sk.entries.shape[0] != k:
        failures.append(f"{sketches}: geometry {sk.entries.shape}, bit_width {sk.bit_width}")
    elif not math.isclose(sk.norm_factor, norm_factor, rel_tol=1e-12):
        failures.append(f"{sketches}: norm_factor {sk.norm_factor!r} != {norm_factor!r}")
    elif signs.shape != (k, p * (r * lambda_tilde - r + 1)):
        failures.append(f"{codes}: shape {signs.shape}")
    elif not np.array_equal(condense(signs, r, lambda_tilde, p), sk.entries):
        failures.append(f"{sketches}: entries are not the condensed {codes}")
    return failures, sk


def check_pairs_csv(path: Path, sk: Sketches) -> tuple[list[str], np.ndarray | None]:
    """Every row i<j in order, each value the exact l1 sum times norm_factor.

    Returns the failures found and the estimates in row order, the order
    of ``np.triu_indices(k, 1)``.
    """
    k = sk.entries.shape[0]
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "i,j,estimate":
            return [f"{path}: header {header!r}"], None
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    iu, ju = np.triu_indices(k, 1)
    if table.shape != (iu.size, 3) or not (
        np.array_equal(table[:, 0], iu) and np.array_equal(table[:, 1], ju)
    ):
        return [f"{path}: rows are not the {iu.size} pairs i<j in order"], None
    failures = []
    expected = np.concatenate(
        [
            np.abs(sk.entries[i + 1:] - sk.entries[i]).sum(axis=1)
            for i in range(k - 1)
        ]
    ).astype(np.float64) * sk.norm_factor
    bad = int(np.count_nonzero(table[:, 2] != expected))
    if bad:
        failures.append(f"{path}: {bad} estimates differ from l1 * norm_factor")
    return failures, table[:, 2]
