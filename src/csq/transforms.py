"""Random linear maps used on the analog side of the embedding.

A model's map is one :class:`Projection`:

* a sparse Gaussian matrix ``A`` whose entries are 0 with probability
  ``1 - s`` and N(0, 1/s) with probability ``s``, stored in CSR form, or
* the same ``A`` after a randomized Fourier-style preconditioner ``H D``
  (normalized Walsh-Hadamard transform composed with a random sign
  diagonal), for input data that is not well spread.

Both values are immutable and checked when they are made.

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

# Float64 elements in one working tile of the projection (256 KiB), and
# points per block of the Walsh-Hadamard butterfly (two (n, 256) scratch
# buffers, 4 MiB at n = 1024); both keep the working set in cache.
_TILE = 1 << 15
_FWHT_BLOCK = 256


def _frozen(a, dtype) -> np.ndarray:
    """A read-only C-ordered copy of ``a`` as ``dtype``."""
    out = np.array(a, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SparseGaussianMatrix:
    """CSR storage for a rows x cols sparse Gaussian matrix.

    ``row_offsets`` has length ``rows + 1``; the column indices of row i are
    ``col_indices[row_offsets[i]:row_offsets[i + 1]]``, strictly increasing
    within a row. Values are the nonzero entries in the same order.

    The three arrays are read-only copies, checked when the matrix is made
    (raising on a broken CSR invariant), so the gathers :meth:`plan` caches
    always match them.
    """

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name, dtype in (
            ("row_offsets", np.int64), ("col_indices", np.int64), ("values", np.float64)
        ):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        offsets, cols, values = self.row_offsets, self.col_indices, self.values
        if self.rows < 0 or offsets.shape != (self.rows + 1,):
            raise ShapeError("row_offsets must have length rows + 1")
        if offsets[0] != 0 or offsets[-1] != len(cols):
            raise ShapeError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(offsets) < 0):
            raise ShapeError("row_offsets must be non-decreasing")
        if values.shape != cols.shape or cols.ndim != 1:
            raise ShapeError("values and col_indices must have equal length")
        if len(cols) and (cols.min() < 0 or cols.max() >= self.cols):
            raise ShapeError("column index out of range")
        # Step t compares entries t and t + 1; it crosses a row boundary
        # when t + 1 starts a row.
        within = np.ones(max(len(cols) - 1, 0), dtype=bool)
        starts = offsets[1:-1]
        within[starts[(starts > 0) & (starts < len(cols))] - 1] = False
        if np.any(np.diff(cols)[within] <= 0):
            raise ShapeError("column indices must be strictly increasing per row")
        if not np.all(np.isfinite(values)) or np.any(values == 0.0):
            raise InputError("stored values must be finite and nonzero")

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def density(self) -> float:
        return self.nnz / float(self.rows * self.cols)

    def plan(self, chunk: int) -> list:
        """Visiting order of the stored entries for :func:`sparse_matmat`.

        Rows are sorted by stored length, longest first, and cut into chunks
        of ``chunk`` rows. For each chunk the result is ``(rows, steps)``:
        the row indices in that order, and for each entry position t one
        ``(cols, vals)`` pair holding the t-th stored entry of every chunk
        row that has one. Those rows are always a prefix of the chunk.
        Cached per chunk size.
        """
        if chunk not in self._plans:
            lengths = np.diff(self.row_offsets)
            order = np.argsort(-lengths, kind="stable")
            plan = []
            for lo in range(0, self.rows, chunk):
                rows = order[lo : lo + chunk]
                lens = lengths[rows]
                # Position of every entry of these rows within its row,
                # then the entries position-major (stable: rows stay in order).
                pos = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
                entry = np.repeat(self.row_offsets[rows], lens) + pos
                entry = entry[np.argsort(pos, kind="stable")]
                cols, vals = self.col_indices[entry], self.values[entry][:, None]
                ends = np.cumsum(np.bincount(pos)).tolist()
                steps = [(cols[a:b], vals[a:b]) for a, b in zip([0] + ends, ends)]
                plan.append((rows, steps))
            self._plans[chunk] = plan
        return self._plans[chunk]


def build_sparse_gaussian(
    rows: int, cols: int, sparsity: float, seed: int
) -> SparseGaussianMatrix:
    """Draw a rows x cols matrix with entries N(0, 1/sparsity) kept w.p. ``sparsity``.

    The draw is deterministic in ``seed``: a single PCG64 stream seeded with
    ``seed`` is consumed row by row, first ``cols`` uniforms for the keep
    mask, then one standard normal per kept entry (scaled by
    ``1/sqrt(sparsity)``). ``sparsity == 1.0`` therefore yields a dense
    Gaussian matrix with unit-variance entries.

    The compiled kernels draw it when they load (see :mod:`csq._native`),
    else the numpy loop below. Both give the same bits: the C kernel holds
    its own copy of NumPy's public ``bitgen_t`` struct and calls, through
    the Generator's own pointers, the ``next_double`` that
    ``Generator.random`` calls and NumPy's exported
    ``random_standard_normal`` that ``Generator.standard_normal`` calls, in
    the loop's order, and divides by the same correctly rounded square root.
    """
    if rows < 1 or cols < 1:
        raise ParameterError("rows and cols must be positive")
    if not (0.0 < sparsity <= 1.0):
        raise ParameterError("sparsity must lie in (0, 1]")
    if rows * cols >= _MAX_ENTRIES:
        raise CapacityError("rows * cols exceeds the indexable entry count")

    from . import _native

    rng = np.random.default_rng(seed)
    kernels = _native.load()
    if kernels is not None:
        return SparseGaussianMatrix(
            rows, cols, *kernels.draw_sparse(rng, rows, cols, sparsity)
        )
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

    return SparseGaussianMatrix(
        rows, cols, offsets, np.concatenate(cols_per_row), np.concatenate(vals_per_row)
    )


def sparse_matvec(matrix: SparseGaussianMatrix, x: np.ndarray) -> np.ndarray:
    """Compute ``matrix @ x`` for a dense vector x of length ``matrix.cols``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.cols,):
        raise ShapeError(f"expected vector of length {matrix.cols}, got {x.shape}")
    return sparse_matmat(matrix, x[None, :])[0]


def sparse_matmat(matrix: SparseGaussianMatrix, xs: np.ndarray) -> np.ndarray:
    """Apply the matrix to every row of ``xs`` (shape (k, cols) -> (k, rows)).

    Points travel on the last axis: the kernel reads ``xs.T`` as a C-ordered
    (cols, k) array, which costs no copy when ``xs`` is itself the ``.T``
    view of one, and returns the ``.T`` view of a C-ordered (rows, k)
    result. Output row i starts at 0.0 and adds ``value * x[col]`` for its
    stored entries in storage order, the additions ``np.bincount`` makes,
    so every result is bit-identical to a per-point bincount. Rows go in
    chunks of similar stored length (see :meth:`SparseGaussianMatrix.plan`)
    sized so that one chunk of all k points stays in cache.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != matrix.cols:
        raise ShapeError(f"expected (k, {matrix.cols}) array, got {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise InputError("input vectors must be finite")
    points = np.ascontiguousarray(xs.T)
    k = points.shape[1]
    out = np.empty((matrix.rows, k), dtype=np.float64)
    # Rows per chunk: about _TILE floats, rounded down to a power of two so
    # that few plans are cached.
    chunk = min(matrix.rows, 1 << (max(_TILE // max(k, 1), 1).bit_length() - 1))
    acc = np.empty((chunk, k), dtype=np.float64)
    prod = np.empty_like(acc)
    for rows, steps in matrix.plan(chunk):
        a = acc[: rows.size]
        a.fill(0.0)
        for cols, vals in steps:
            g = prod[: cols.size]
            np.take(points, cols, axis=0, out=g)
            g *= vals
            a[: cols.size] += g
        out[rows] = a
    return out.T


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """In-place normalized Walsh-Hadamard transform along the last axis.

    Implements the orthogonal matrix ``H[i, j] = n**-0.5 * (-1)**popcount(i & j)``
    (0-indexed) via the standard butterfly, so applying it twice restores the
    input. The last-axis length must be a power of two.

    The butterfly runs down axis 0 of the (n, points) view ``x.T``, a block
    of points at a time, and ping-pongs between two scratch buffers. For a
    2-d ``x`` that is the ``.T`` view of a C-ordered (n, k) buffer, every
    load and store is contiguous; other layouts give the same numbers
    through strided loads.
    """
    if x.dtype != np.float64 or not x.flags.writeable:
        raise InputError("fwht_inplace requires a writable float64 array")
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ShapeError("transform length must be a power of two")
    rows = x.reshape(-1, n)
    if rows.size and not np.may_share_memory(rows, x):
        raise InputError("fwht_inplace needs an array whose rows form a view")
    cols = rows.T
    width = max(1, min(_FWHT_BLOCK, cols.shape[1]))
    scratch = (np.empty((n, width)), np.empty((n, width)))
    scale = 1.0 / math.sqrt(n)
    for lo in range(0, cols.shape[1], width):
        block = cols[:, lo : lo + width]
        src, h = block, 1
        while h < n:
            dst = scratch[h.bit_length() & 1][:, : block.shape[1]]
            s4 = src.reshape(n // (2 * h), 2, h, -1)
            d4 = dst.reshape(n // (2 * h), 2, h, -1)
            np.add(s4[:, 0], s4[:, 1], out=d4[:, 0])
            np.subtract(s4[:, 0], s4[:, 1], out=d4[:, 1])
            src, h = dst, 2 * h
        np.multiply(src, scale, out=block)
    return x


def sign_diagonal(dim: int, seed: int) -> np.ndarray:
    """``dim`` independent uniform signs as float64 +-1, deterministic in ``seed``."""
    if dim < 1:
        raise ParameterError("dim must be positive")
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=dim) * 2 - 1).astype(np.float64)


def padded_dim(n: int) -> int:
    """Smallest power of two that is >= n."""
    if n < 1:
        raise ParameterError("n must be positive")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True, eq=False)
class Projection:
    """A model's linear map on inputs of dimension ``n``.

    With ``signs=None`` it is ``x -> A x`` and ``matrix.cols == n``.
    Otherwise it is ``x -> A H D pad(x)``: ``pad`` zero-extends x to
    ``padded_dim(n) == matrix.cols``, D multiplies by ``signs`` (+-1), and H
    is the normalized Walsh-Hadamard transform. Because ``H D`` is
    orthogonal the composition has the same distributional behaviour as
    ``A`` on well-spread inputs, while flattening inputs that are
    concentrated on few coordinates.

    The shapes and the sign values are checked when the value is made;
    ``signs`` is then a read-only C-ordered float64 copy.
    """

    n: int
    matrix: SparseGaussianMatrix
    signs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.signs is None:
            if self.matrix.cols != self.n:
                raise ShapeError(f"matrix has {self.matrix.cols} columns, not {self.n}")
            return
        signs = _frozen(self.signs, np.float64)
        if self.matrix.cols != padded_dim(self.n) or signs.shape != (self.matrix.cols,):
            raise ShapeError(
                f"matrix columns and sign count must both be padded_dim({self.n})"
            )
        if not np.all(np.abs(signs) == 1.0):
            raise InputError("diagonal signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)

    def precondition(self, xs: np.ndarray) -> np.ndarray:
        """Apply pad, D and H to a batch (k, n) -> (k, padded)."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ShapeError(f"expected (k, {self.n}) array, got {xs.shape}")
        if not np.all(np.isfinite(xs)):
            raise InputError("input vectors must be finite")
        # Built feature-major: the result is the .T view of a C-ordered
        # (padded, k) buffer. The padding holds 0.0 * sign, as a zero pad
        # multiplied by D would.
        n, signs = self.n, self.signs[:, None]
        padded = np.empty((signs.shape[0], xs.shape[0]), dtype=np.float64)
        np.multiply(xs.T, signs[:n], out=padded[:n])
        np.multiply(0.0, signs[n:], out=padded[n:])
        fwht_inplace(padded.T)
        return padded.T

    def apply(self, xs: np.ndarray) -> np.ndarray:
        """The map on every row of ``xs``: (k, n) -> (k, matrix.rows), as
        the ``.T`` view of a C-ordered (rows, k) array."""
        if self.signs is None:
            return sparse_matmat(self.matrix, xs)
        return sparse_matmat(self.matrix, self.precondition(xs))


def recommended_sparsity(
    n: int,
    eps: float,
    v_inf_over_v2_sq: float,
    wellspread_const: float = 1.0,
    fjlt_mode: bool = False,
) -> float:
    """Sparsity level sufficient for the l1 norm concentration to hold.

    Returns ``min(1, 2 * c**2 * v_inf_over_v2_sq / (eps * n))``
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
    s = 2.0 * wellspread_const**2 * v_inf_over_v2_sq / (eps * n)
    if fjlt_mode:
        s *= max(math.log(n), 1.0)
    return min(1.0, s)
