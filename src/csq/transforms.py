"""Random linear maps used on the analog side of the embedding.

Two families are provided:

* a sparse Gaussian matrix ``A`` whose entries are 0 with probability
  ``1 - s`` and N(0, 1/s) with probability ``s``, stored in CSR form, and
* a randomized Fourier-style preconditioner ``H D`` (normalized
  Walsh-Hadamard transform composed with a random sign diagonal) that is
  applied before ``A`` when the input data is not well spread.

For a well-spread unit vector x the scaled image ``sqrt(pi/2)/m * ||A x||_1``
concentrates around ``||x||_2``, which is what allows distances to be read
off later from one-bit codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InputError, ParameterError, ShapeError

# Indices are stored as int64; refuse shapes whose dense entry count cannot
# be indexed that way.
_MAX_ENTRIES = 2**62


@dataclass
class SparseGaussianMatrix:
    """CSR storage for a rows x cols sparse Gaussian matrix.

    ``row_offsets`` has length ``rows + 1``; the column indices of row i are
    ``col_indices[row_offsets[i]:row_offsets[i + 1]]``, strictly increasing
    within a row. Values are the nonzero entries in the same order.
    """

    rows: int
    cols: int
    sparsity: float
    seed: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _row_ids: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def density(self) -> float:
        return self.nnz / float(self.rows * self.cols)

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry (cached; used by matvec)."""
        if self._row_ids is None:
            counts = np.diff(self.row_offsets)
            self._row_ids = np.repeat(np.arange(self.rows, dtype=np.int64), counts)
        return self._row_ids

    def validate(self) -> None:
        """Check the CSR invariants; raises on violation."""
        if self.row_offsets.shape != (self.rows + 1,):
            raise ShapeError("row_offsets must have length rows + 1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != len(self.col_indices):
            raise ShapeError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ShapeError("row_offsets must be non-decreasing")
        if len(self.values) != len(self.col_indices):
            raise ShapeError("values and col_indices must have equal length")
        if len(self.col_indices) and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.cols
        ):
            raise ShapeError("column index out of range")
        # Step t compares entries t and t + 1; it crosses a row boundary
        # when t + 1 starts a row.
        within = np.ones(max(len(self.col_indices) - 1, 0), dtype=bool)
        starts = self.row_offsets[1:-1]
        within[starts[(starts > 0) & (starts < len(self.col_indices))] - 1] = False
        if np.any(np.diff(self.col_indices)[within] <= 0):
            raise ShapeError("column indices must be strictly increasing per row")
        if not np.all(np.isfinite(self.values)) or np.any(self.values == 0.0):
            raise InputError("stored values must be finite and nonzero")


def build_sparse_gaussian(
    rows: int, cols: int, sparsity: float, seed: int
) -> SparseGaussianMatrix:
    """Draw a rows x cols matrix with entries N(0, 1/sparsity) kept w.p. ``sparsity``.

    The draw is deterministic in ``seed``: a single PCG64 stream seeded with
    ``seed`` is consumed row by row, first ``cols`` uniforms for the keep
    mask, then one standard normal per kept entry (scaled by
    ``1/sqrt(sparsity)``). ``sparsity == 1.0`` therefore yields a dense
    Gaussian matrix with unit-variance entries.
    """
    if rows < 1 or cols < 1:
        raise ParameterError("rows and cols must be positive")
    if not (0.0 < sparsity <= 1.0):
        raise ParameterError("sparsity must lie in (0, 1]")
    if rows * cols >= _MAX_ENTRIES:
        raise CapacityError("rows * cols exceeds the indexable entry count")

    rng = np.random.default_rng(seed)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    cols_per_row = []
    vals_per_row = []
    for i in range(rows):
        u = rng.random(cols)
        mask = u < sparsity
        kept = np.flatnonzero(mask).astype(np.int64)
        g = rng.standard_normal(kept.size)
        cols_per_row.append(kept)
        vals_per_row.append(g / math.sqrt(sparsity))
        offsets[i + 1] = offsets[i] + kept.size

    col_indices = (
        np.concatenate(cols_per_row) if cols_per_row else np.zeros(0, dtype=np.int64)
    )
    values = (
        np.concatenate(vals_per_row) if vals_per_row else np.zeros(0, dtype=np.float64)
    )
    return SparseGaussianMatrix(
        rows=rows,
        cols=cols,
        sparsity=sparsity,
        seed=seed,
        row_offsets=offsets,
        col_indices=col_indices,
        values=values,
    )


def sparse_matvec(matrix: SparseGaussianMatrix, x: np.ndarray) -> np.ndarray:
    """Compute ``matrix @ x`` for a dense vector x of length ``matrix.cols``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.cols,):
        raise ShapeError(f"expected vector of length {matrix.cols}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("input vector must be finite")
    products = matrix.values * x[matrix.col_indices]
    return np.bincount(matrix.row_ids(), weights=products, minlength=matrix.rows)


def sparse_matmat(matrix: SparseGaussianMatrix, xs: np.ndarray) -> np.ndarray:
    """Apply the matrix to every row of ``xs`` (shape (k, cols) -> (k, rows))."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != matrix.cols:
        raise ShapeError(f"expected (k, {matrix.cols}) array, got {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise InputError("input vectors must be finite")
    out = np.empty((xs.shape[0], matrix.rows), dtype=np.float64)
    rid = matrix.row_ids()
    for i in range(xs.shape[0]):
        products = matrix.values * xs[i, matrix.col_indices]
        out[i] = np.bincount(rid, weights=products, minlength=matrix.rows)
    return out


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """In-place normalized Walsh-Hadamard transform along the last axis.

    Implements the orthogonal matrix ``H[i, j] = n**-0.5 * (-1)**popcount(i & j)``
    (0-indexed) via the standard butterfly, so applying it twice restores the
    input. The last-axis length must be a power of two.
    """
    if x.dtype != np.float64 or not x.flags.writeable:
        raise InputError("fwht_inplace requires a writable float64 array")
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ShapeError("transform length must be a power of two")
    lead = x.shape[:-1]
    h = 1
    while h < n:
        y = x.reshape(lead + (n // (2 * h), 2, h))
        even = y[..., 0, :].copy()
        odd = y[..., 1, :]
        y[..., 0, :] = even + odd
        y[..., 1, :] = even - odd
        h *= 2
    x *= 1.0 / math.sqrt(n)
    return x


@dataclass
class RandomSignDiagonal:
    """Diagonal matrix of independent uniform signs, deterministic in ``seed``."""

    dim: int
    seed: int
    signs: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x * self.signs


def build_sign_diagonal(dim: int, seed: int) -> RandomSignDiagonal:
    if dim < 1:
        raise ParameterError("dim must be positive")
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=dim) * 2 - 1).astype(np.float64)
    return RandomSignDiagonal(dim=dim, seed=seed, signs=signs)


def padded_dim(n: int) -> int:
    """Smallest power of two that is >= n."""
    if n < 1:
        raise ParameterError("n must be positive")
    return 1 << (n - 1).bit_length()


@dataclass
class FjltOperator:
    """The composite map ``x -> A H D pad(x)``.

    ``pad`` zero-extends x to the next power of two, D flips signs, H is the
    normalized Walsh-Hadamard transform and A is a sparse Gaussian matrix on
    the padded dimension. Because ``H D`` is orthogonal the composition has
    the same distributional behaviour as ``A`` on well-spread inputs, while
    flattening inputs that are concentrated on few coordinates.
    """

    input_dim: int
    matrix: SparseGaussianMatrix
    diagonal: RandomSignDiagonal

    @property
    def rows(self) -> int:
        return self.matrix.rows

    def precondition(self, xs: np.ndarray) -> np.ndarray:
        """Apply pad, D and H to a batch (k, input_dim) -> (k, padded)."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.input_dim:
            raise ShapeError(f"expected (k, {self.input_dim}) array, got {xs.shape}")
        if not np.all(np.isfinite(xs)):
            raise InputError("input vectors must be finite")
        np_ = self.diagonal.dim
        padded = np.zeros((xs.shape[0], np_), dtype=np.float64)
        padded[:, : self.input_dim] = xs
        padded *= self.diagonal.signs
        return fwht_inplace(padded)


def build_fjlt(
    rows: int, input_dim: int, sparsity: float, matrix_seed: int, diagonal_seed: int
) -> FjltOperator:
    np_ = padded_dim(input_dim)
    return FjltOperator(
        input_dim=input_dim,
        matrix=build_sparse_gaussian(rows, np_, sparsity, matrix_seed),
        diagonal=build_sign_diagonal(np_, diagonal_seed),
    )


def apply_fjlt(op: FjltOperator, x: np.ndarray) -> np.ndarray:
    """Compute ``A H D pad(x)`` for a single vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("apply_fjlt expects a 1-d vector")
    pre = op.precondition(x[None, :])
    return sparse_matvec(op.matrix, pre[0])


def apply_fjlt_batch(op: FjltOperator, xs: np.ndarray) -> np.ndarray:
    pre = op.precondition(xs)
    return sparse_matmat(op.matrix, pre)


def recommended_sparsity(
    n: int,
    eps: float,
    v_inf_over_v2_sq: float,
    wellspread_const: float = 1.0,
    fjlt_mode: bool = False,
    multiplier: float = 1.0,
) -> float:
    """Sparsity level sufficient for the l1 norm concentration to hold.

    Returns ``min(1, multiplier * 2 * c**2 * v_inf_over_v2_sq / (eps * n))``
    where c is the well-spreadness constant; in ``fjlt_mode`` the value is
    further multiplied by ``max(ln n, 1)`` to absorb the coherence of the
    preconditioned inputs. ``v_inf_over_v2_sq`` is the squared ratio
    ``(||v||_inf / ||v||_2)**2`` of the condensation kernel acting downstream
    (1.0 when no condensation is applied).
    """
    if n < 1:
        raise ParameterError("n must be positive")
    if not (0.0 < eps < 0.5):
        raise ParameterError("eps must lie in (0, 1/2)")
    if v_inf_over_v2_sq <= 0.0 or v_inf_over_v2_sq > 1.0:
        raise ParameterError("v_inf_over_v2_sq must lie in (0, 1]")
    if wellspread_const <= 0.0:
        raise ParameterError("wellspread_const must be positive")
    if multiplier <= 0.0:
        raise ParameterError("multiplier must be positive")
    s = multiplier * 2.0 * wellspread_const**2 * v_inf_over_v2_sq / (eps * n)
    if fjlt_mode:
        s *= max(math.log(n), 1.0)
    return min(1.0, s)
