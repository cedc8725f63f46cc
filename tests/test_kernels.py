"""The embed kernels, the operator draw and the all-pairs l1 kernel
against the oracles of ``oracles.py``, bit for bit.

``embed_dataset`` runs the compiled block kernels when they load; the
same cases run on the numpy kernels from ``test_kernels_numpy.py``. The
compiled kernels are also checked one at a time against the oracles.
Every comparison is exact (``np.array_equal``), never a tolerance.
"""

import copy
import dataclasses
import types

import numpy as np
import pytest

from csq import _native, pipeline
from csq.condense import (
    BinaryCode,
    Codes,
    build_condensation,
    condense_signs_batch,
    entry_dtype,
    pack_rows,
    pairwise_l1_blocks,
)
from csq.errors import InputError
from csq.pipeline import (
    Dataset,
    build_model,
    dataset_from_matrix,
    embed_dataset,
)
from csq.sigma_delta import build_quantizer, quantize_batch
from csq.transforms import (
    Projection,
    SparseGaussianMatrix,
    build_sparse_gaussian,
    fwht_inplace,
    padded_dim,
    sign_diagonal,
    sparse_matmat,
)

from oracles import (
    bits_oracle,
    condense_oracle,
    draw_oracle,
    fwht_oracle,
    l1_oracle,
    matmat_oracle,
    precondition_oracle,
    project_oracle,
    quantize_oracle,
    reference_record,
)

KS = [0, 1, 2, 3, 8, 257]
BLOCK = pipeline._BLOCK

# (rows, cols, sparsity): dense, empty rows, one column, one row.
DRAWS = [
    (40, 37, 1.0), (64, 40, 1e-4), (50, 1, 0.5), (1, 300, 0.2),
    (1, 1, 1.0), (1984, 64, 0.05), (7, 1024, 0.013),
]


def feature_major(a):
    """The same values as ``a``, as the .T view of a C-ordered transpose."""
    return np.ascontiguousarray(a.T).T


def _points(k, n, seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((k, n))
    if k >= 3:
        xs[1] = 0.0
        xs[2] = -0.0
    return xs


# ---------------------------------------------------------------- FWHT


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", [1, 2, 64, 1024])
def test_fwht_matches_row_oracle_in_both_layouts(k, n):
    xs = _points(k, n, seed=k + n)
    want = fwht_oracle(xs)
    c_ordered = xs.copy()
    assert fwht_inplace(c_ordered) is c_ordered
    assert np.array_equal(c_ordered, want)
    transposed = feature_major(xs)
    fwht_inplace(transposed)
    assert np.array_equal(transposed, want)


def test_fwht_more_points_than_one_block():
    # 600 points cross two block boundaries, the last block partial.
    xs = _points(600, 16, seed=4)
    view = feature_major(xs)
    fwht_inplace(view)
    assert np.array_equal(view, fwht_oracle(xs))


def test_fwht_one_vector_and_stacked_batches():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(32)
    y = x.copy()
    fwht_inplace(y)
    assert np.array_equal(y, fwht_oracle(x))
    xs = rng.standard_normal((2, 3, 8))
    ys = xs.copy()
    fwht_inplace(ys)
    assert np.array_equal(ys, fwht_oracle(xs))


# ---------------------------------------------------------- projection


@pytest.mark.parametrize("k", KS)
def test_sparse_matmat_matches_bincount_in_both_layouts(k):
    mat = build_sparse_gaussian(37, 50, 0.2, seed=k)
    xs = _points(k, 50, seed=100 + k)
    want = matmat_oracle(mat, xs)
    for layout in (xs, feature_major(xs)):
        got = sparse_matmat(mat, layout)
        assert got.shape == (k, 37)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 8, 257, 5000])
def test_sparse_matmat_row_chunks_and_empty_rows(k):
    # Sparse enough that some rows store nothing; k=5000 makes the row
    # chunks a few rows each, k=1 a single chunk of every row.
    mat = build_sparse_gaussian(64, 40, 0.05, seed=3)
    assert np.any(np.diff(mat.row_offsets) == 0)
    xs = _points(k, 40, seed=k)
    got = sparse_matmat(mat, feature_major(xs))
    assert np.array_equal(got, matmat_oracle(mat, xs))
    assert np.all(got[:, np.diff(mat.row_offsets) == 0] == 0.0)


# ------------------------------------------------------------ quantizer


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_quantize_batch_matches_oracle_in_both_layouts(r, k):
    spec = build_quantizer(r)
    ys = np.random.default_rng(10 * r + k).uniform(-0.9, 0.9, size=(k, 120))
    if k >= 3:
        ys[1] = 0.0
        ys[2] = -0.0
    want, _, _ = quantize_oracle(spec, ys)
    for layout in (ys, feature_major(ys)):
        res = quantize_batch(spec, layout)
        assert res.codes.shape == (k, 120)
        assert np.array_equal(res.codes, want)
        assert np.array_equal(
            res.amplitude_violations, np.abs(ys).max(axis=1) > spec.mu
        )


@pytest.mark.parametrize("r", [1, 2, 3])
def test_quantize_batch_exact_sign_ties(r):
    """Samples where ``a + y`` is exactly zero quantize to +1."""
    spec = build_quantizer(r)
    rng = np.random.default_rng(r)
    ys = rng.uniform(-0.5, 0.5, size=(5, 200))
    ties = rng.random((5, 200)) < 0.3
    want, _, tied = quantize_oracle(spec, ys, ties)
    res = quantize_batch(spec, feature_major(tied))
    assert np.array_equal(res.codes, want)
    assert np.all(want[ties] == 1)


def test_quantize_batch_zero_length():
    res = quantize_batch(build_quantizer(2), np.zeros((3, 0)))
    assert res.codes.shape == (3, 0)
    assert not res.amplitude_violations.any()


# ----------------------------------------------- condensation and codes


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_condense_and_pack_match_oracle(r, k):
    model = build_model("sparse", 8, 3, 4, r)
    spec = model.condensation
    signs = np.where(
        np.random.default_rng(k).random((k, spec.m)) < 0.5, -1, 1
    ).astype(np.int8)
    for layout in (signs, feature_major(signs)):
        got = condense_signs_batch(spec, layout)
        assert got.flags.c_contiguous and got.dtype == np.int64
        assert np.array_equal(got, condense_oracle(spec, signs))
        codes = Codes.from_signs(layout)
        assert len(codes) == k
        for code, bits in zip(codes, bits_oracle(signs)):
            assert code.length == spec.m
            assert np.array_equal(code.bits, bits)


def test_codes_from_signs_refuses_non_signs():
    with pytest.raises(InputError):
        Codes.from_signs(np.array([[1, 0, -1]]))
    with pytest.raises(InputError):
        BinaryCode.from_signs(np.array([1, 2]))


# ------------------------------------------------------- the whole path


def _check_embed(model, xs):
    """embed_dataset of xs equals the oracles; returns its result."""
    proj = project_oracle(model, xs)
    assert np.array_equal(model.operator.apply(xs), proj)
    codes, _, _ = quantize_oracle(model.quantizer, proj)
    res = embed_dataset(model, dataset_from_matrix(xs))
    assert np.array_equal(
        res.condensed.entries, condense_oracle(model.condensation, codes)
    )
    assert res.condensed.entries.flags.c_contiguous
    assert len(res.codes) == xs.shape[0]
    for code, bits in zip(res.codes, bits_oracle(codes)):
        assert np.array_equal(code.bits, bits)
    assert np.array_equal(
        res.diagnostics.amplitude_violations,
        np.abs(proj).max(axis=1, initial=0.0) > model.quantizer.mu,
    )
    return res


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_embed_matches_row_layout_oracles(method, r, k):
    model = build_model(method, 37, 4, 4, r, seed=k)
    xs = _points(k, 37, seed=r + k)
    xs *= 0.1 / max(1.0, float(np.abs(xs).max(initial=0.0)))
    _check_embed(model, xs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_embed_block_edges_match_oracles(monkeypatch, method, r, k, workers):
    """Outputs do not depend on where blocks start or which thread runs
    them; zero and negative-zero rows sit on both sides of a boundary."""
    monkeypatch.setattr(_native, "_worker_count", lambda: workers)
    model = build_model(method, 37, 4, 4, r, seed=3)
    xs = _points(k, 37, seed=k)
    xs *= 0.3 / max(1.0, float(np.abs(xs).max(initial=0.0)))
    for row, value in ((BLOCK - 1, 0.0), (BLOCK, -0.0), (2 * BLOCK, 0.0)):
        if row < k:
            xs[row] = value
    diag = _check_embed(model, xs).diagnostics
    if diag.kernels == "native":
        assert diag.workers == max(1, min(workers, -(-k // BLOCK)))
    else:
        assert diag.workers == 1 and diag.kernels_note


@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_embed_refuses_non_finite_vectors(method):
    """Refused wherever the value sits, even in a column the projection
    never reads (the sparse matrix here leaves some columns empty)."""
    model = build_model(method, 37, 4, 4, 2, sparsity=0.05)
    unread = np.setdiff1d(np.arange(37), model.operator.matrix.col_indices)
    if method == "sparse":
        assert unread.size
    for row in (2, 39):
        for bad in (np.nan, np.inf, -np.inf):
            xs = _points(40, 37, seed=1) * 0.01
            xs[row, unread[0] if unread.size else 5] = bad
            with pytest.raises(InputError):
                embed_dataset(model, Dataset(vectors=xs))


@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_embed_refuses_overflowing_projections(method):
    """Rows with finite norms through an explicit matrix of huge entries:
    the projections overflow, the input does not."""
    model = build_model(method, 37, 4, 4, 2)
    op = model.operator
    big = SparseGaussianMatrix(
        op.matrix.rows, op.matrix.cols, op.matrix.row_offsets,
        op.matrix.col_indices, op.matrix.values * 1e300,
    )
    model = dataclasses.replace(model, explicit=Projection(op.n, big, op.signs))
    xs = np.full((3, 37), 1e10)
    xs[1] = 0.0
    with pytest.raises(InputError, match="overflowed"):
        embed_dataset(model, Dataset(vectors=xs))


# ------------------------------------------------------- operator draw


@pytest.mark.parametrize("rows, cols, sparsity", DRAWS)
def test_build_sparse_gaussian_matches_the_loop(rows, cols, sparsity):
    mat = build_sparse_gaussian(rows, cols, sparsity, seed=rows + cols)
    want = draw_oracle(np.random.default_rng(rows + cols), rows, cols, sparsity)
    for got, expected in zip(
        (mat.row_offsets, mat.col_indices, mat.values), want
    ):
        assert np.array_equal(got, expected)


# ------------------------------------------- compiled kernels one by one


@pytest.fixture
def kernels():
    kern = _native.load()
    if kern is None:
        pytest.skip("compiled kernels unavailable: " + _native.failure())
    return kern


def untile(tiled, b, n_pad):
    """(b, n_pad) rows of the tiled block layout of ``_kernels.c``."""
    tiles = tiled[: _native.Kernels.tiled_size(b, n_pad)]
    tiles = tiles.reshape(-1, n_pad, _native.TILE).transpose(0, 2, 1)
    return tiles.reshape(-1, n_pad)[:b]


def tile(rows):
    """The tiled layout of ``_kernels.c`` for (b, n) rows, zero lanes
    after the last point."""
    b, n = rows.shape
    padded = np.zeros((-(-b // _native.TILE) * _native.TILE, n))
    padded[:b] = rows
    tiles = padded.reshape(-1, _native.TILE, n).transpose(0, 2, 1)
    return np.ascontiguousarray(tiles).reshape(-1)


def same_bits(a, b):
    """Equal float arrays, down to the sign of every zero."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("b", [1, 15, 16, 17, 40])
@pytest.mark.parametrize("n", [1, 5, 37, 64, 129, 300])
def test_native_precondition_matches_oracle(kernels, n, b):
    n_pad = padded_dim(n)
    op = Projection(
        n, build_sparse_gaussian(8, n_pad, 0.5, 1), sign_diagonal(n_pad, 2)
    )
    xs = _points(b, n, seed=n + b)
    tiled = np.full(kernels.tiled_size(b, n_pad), np.nan)
    kernels.precondition(xs, op.signs, n_pad, tiled)
    assert same_bits(untile(tiled, b, n_pad), precondition_oracle(op, xs))
    copied = np.full(kernels.tiled_size(b, n), np.nan)
    kernels.precondition(xs, None, n, copied)
    assert same_bits(copied, tile(xs))


# Padded sizes 1 to 2048: odd and even stage counts on both sides of the
# 128-row chunk (stages of groups of at most 128 rows run chunk by chunk),
# and n = 1, which has no stage at all.
PADDED = [1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1000, 1025]


@pytest.mark.parametrize("b", [1, 17])
@pytest.mark.parametrize("n", PADDED)
def test_native_precondition_at_every_padded_size(kernels, n, b):
    n_pad = padded_dim(n)
    op = Projection(
        n, build_sparse_gaussian(4, n_pad, 0.5, 1), sign_diagonal(n_pad, n)
    )
    xs = _points(b, n, seed=n + b)
    tiled = np.full(kernels.tiled_size(b, n_pad), np.nan)
    kernels.precondition(xs, op.signs, n_pad, tiled)
    assert same_bits(untile(tiled, b, n_pad), precondition_oracle(op, xs))


def test_native_precondition_pads_with_signed_zeros(kernels):
    """The padding is 0.0 * sign, as in Projection.precondition: for an
    input whose signed entries are all -0.0, output 0 is -0.0 only when a
    negative sign turns the pad into -0.0 too."""
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    op = Projection(3, build_sparse_gaussian(2, 4, 1.0, seed=0), signs)
    xs = (-0.0 * signs[:3])[None, :]
    want = precondition_oracle(op, xs)
    assert np.signbit(want[0, 0])
    tiled = np.full(kernels.tiled_size(1, 4), np.nan)
    kernels.precondition(xs, signs, 4, tiled)
    assert same_bits(untile(tiled, 1, 4), want)


@pytest.mark.parametrize("b", [1, 16, 17, 40])
def test_native_project_matches_bincount(kernels, b):
    mat = build_sparse_gaussian(64, 40, 0.05, seed=3)
    assert np.any(np.diff(mat.row_offsets) == 0)
    xs = _points(b, 40, seed=b)
    out = np.full(kernels.tiled_size(b, 64), np.nan)
    kernels.project(mat, tile(xs), b, out)
    assert same_bits(untile(out, b, 64), matmat_oracle(mat, xs))


def numpy_stages(quantizer, spec, ys):
    """(records, bits) of the projections ys (b, m) by the numpy stages
    that the fused kernel replaces: quantize_batch, then
    condense_signs_batch and pack_rows, and Codes.from_signs."""
    codes = quantize_batch(quantizer, ys).codes
    records = pack_rows(condense_signs_batch(spec, codes), spec.bit_width)
    return records, Codes.from_signs(codes).bits


def fused(kernels, quantizer, spec, ys):
    """(records, bits, peaks) of the kernels' fused quantizer over ys."""
    b = ys.shape[0]
    records = np.full((b, spec.record_bytes), 0xAA, dtype=np.uint8)
    bits = np.full((b, (spec.m + 7) // 8), 0xAA, dtype=np.uint8)
    peaks = np.full(b, np.nan)
    kernels.quantize(tile(ys), quantizer, spec, records, bits, peaks)
    return records, bits, peaks


@pytest.mark.parametrize("b", [1, 15, 16, 17, 40])
@pytest.mark.parametrize("p", [8, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_native_fused_quantizer_matches_the_numpy_stages(kernels, r, p, b):
    """lambda_tilde 5 gives odd blocks (5, 9, 13, 17), so p = 8 makes
    m % 8 == 0 and p = 4 makes m % 8 == 4: a last code byte whole or half
    full, and for r >= 3 more than one 64-bit word of codes."""
    quantizer, spec = build_quantizer(r), build_condensation(r, 5, p)
    assert spec.m % 8 == {8: 0, 4: 4}[p]
    ys = np.random.default_rng([r, p, b]).uniform(-0.9, 0.9, size=(b, spec.m))
    ys[b // 2] = 0.0
    ys[b - 1, ::3] = -0.0
    records, bits, peaks = fused(kernels, quantizer, spec, ys)
    want_records, want_bits = numpy_stages(quantizer, spec, ys)
    assert np.array_equal(records, want_records)
    assert np.array_equal(bits, want_bits)
    assert np.array_equal(peaks, np.abs(ys).max(axis=1))
    codes, _, _ = quantize_oracle(quantizer, ys)
    assert [row.tobytes() for row in records] == [
        reference_record(row, spec.bit_width) for row in condense_oracle(spec, codes)
    ]
    assert all(np.array_equal(a, b) for a, b in zip(bits, bits_oracle(codes)))


@pytest.mark.parametrize("b", [1, 5, 33])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_native_quantize_exact_sign_ties(kernels, r, b):
    """Samples where ``a + y`` is exactly zero give +1 codes, in the
    records and the bits; a NaN or infinite sample makes its point's peak
    not finite and leaves the other peaks alone."""
    quantizer = build_quantizer(r)
    spec = build_condensation(r, 5, 200 // (r * 5 - r + 1))
    rng = np.random.default_rng(r + b)
    ys = rng.uniform(-0.5, 0.5, size=(b, spec.m))
    ties = rng.random((b, spec.m)) < 0.3
    want, _, tied = quantize_oracle(quantizer, ys, ties)
    assert np.all(want[ties] == 1)
    records, bits, peaks = fused(kernels, quantizer, spec, tied)
    assert [row.tobytes() for row in records] == [
        reference_record(row, spec.bit_width) for row in condense_oracle(spec, want)
    ]
    assert all(np.array_equal(a, b) for a, b in zip(bits, bits_oracle(want)))
    assert np.array_equal(peaks, np.abs(tied).max(axis=1))
    for bad in (np.nan, np.inf):
        tied[b - 1, 7] = bad
        _, _, peaks = fused(kernels, quantizer, spec, tied)
        assert not np.isfinite(peaks[b - 1])
        assert np.all(np.isfinite(peaks[: b - 1]))


@pytest.mark.parametrize("p", [1, 5, 64])
@pytest.mark.parametrize("bit_width", range(1, 64))
def test_native_records_match_the_documented_layout(kernels, bit_width, p):
    """Every width: fields that end inside a byte, on a byte boundary and
    past a 64-bit word, most at the extremes of the width."""
    entries = extreme_rows(bit_width, 3, p, seed=p).astype(np.int64)
    out = np.full((3, (p * bit_width + 7) // 8), 0xAA, dtype=np.uint8)
    kernels.records(entries, bit_width, out)
    assert [row.tobytes() for row in out] == [
        reference_record(row, bit_width) for row in entries
    ]
    assert np.array_equal(out, pack_rows(entries, bit_width))


@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_native_embed_block_refuses_wrong_shapes_before_the_kernel(kernels, method):
    """Records one byte short or long, bits of the wrong width and x of
    the wrong n are refused in Python: the stand-in library raises
    AttributeError on any kernel call. For fjlt, n + 1 still fits the
    padded dimension. A kernel that reports a failed allocation raises
    MemoryError."""
    model = build_model(method, 37, 4, 4, 2, seed=1)
    spec = model.condensation
    b, record, nbytes = 5, spec.record_bytes, (model.m + 7) // 8
    checked_only = copy.copy(kernels)
    checked_only._lib = types.SimpleNamespace()

    def call(n=37, width=record, bits_width=nbytes):
        checked_only.embed_block(
            model, _points(b, n, seed=n) * 0.01,
            np.empty((b, width), dtype=np.uint8),
            np.empty((b, bits_width), dtype=np.uint8), np.empty(b),
            np.zeros(3, dtype=np.int64),
        )

    with pytest.raises(AttributeError):
        call()
    for bad in (
        dict(width=record - 1), dict(width=record + 1),
        dict(bits_width=nbytes - 1), dict(bits_width=nbytes + 1),
        dict(n=36), dict(n=38),
    ):
        with pytest.raises(ValueError, match="block dimensions disagree"):
            call(**bad)
    checked_only._lib = types.SimpleNamespace(csq_embed_block=lambda *args: 1)
    with pytest.raises(MemoryError):
        call()


@pytest.mark.parametrize("rows, cols, sparsity", DRAWS)
def test_native_draw_matches_the_loop_and_its_stream(kernels, rows, cols, sparsity):
    """Same arrays as the loop, and the generator left where the loop
    leaves it."""
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    got = kernels.draw_sparse(rng, rows, cols, sparsity)
    want = draw_oracle(ref, rows, cols, sparsity)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and same_bits(a, b)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.standard_normal() == ref.standard_normal()


def test_native_draw_keeps_a_buffered_32_bit_draw(kernels):
    """A 32-bit draw leaves half of a 64-bit output buffered in the PCG64
    bit generator; the draw neither uses nor loses it."""
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for g in (rng, ref):
        g.integers(0, 2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    got = kernels.draw_sparse(rng, 20, 30, 0.4)
    want = draw_oracle(ref, 20, 30, 0.4)
    for a, b in zip(got, want):
        assert same_bits(a, b)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == (
        ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    )


@pytest.mark.parametrize(
    "kind",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
     np.random.MT19937],
)
def test_native_draw_steps_every_bit_generator(kernels, kind):
    """The kernel steps whatever bit generator the Generator holds, through
    NumPy's C interface: after a buffered 32-bit draw and with arrays that
    grow row by row, it gives the loop's arrays and leaves the generator
    where the loop leaves it."""
    rng, ref = np.random.Generator(kind(7)), np.random.Generator(kind(7))
    for g in (rng, ref):
        g.integers(0, 2**32, dtype=np.uint32)
    got = kernels.draw_sparse(rng, 40, 30, 0.4, capacity=1)
    want = draw_oracle(ref, 40, 30, 0.4)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and same_bits(a, b)
    assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == (
        ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    )
    assert rng.random() == ref.random()


@pytest.mark.parametrize("capacity", [0, 1, 63, 64, 65, 1000])
def test_native_draw_resumes_when_capacity_runs_short(kernels, capacity):
    """A small starting capacity makes the kernel stop before a row that
    might not fit; the arrays grow and the draw resumes there."""
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = kernels.draw_sparse(rng, 300, 64, 0.3, capacity=capacity)
    want = draw_oracle(ref, 300, 64, 0.3)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert rng.bit_generator.state == ref.bit_generator.state


# ------------------------------------------------ all-pairs query kernels


def extreme_rows(bit_width, k, p, seed):
    """k rows of p entries of the given width, most at its two extremes."""
    half = 1 << (bit_width - 1)
    rng = np.random.default_rng([bit_width, k, p, seed])
    rows = rng.integers(-half, half, size=(k, p))
    ends = rng.random((k, p)) < 0.7
    rows[ends] = np.where(rng.random(int(ends.sum())) < 0.5, -half, half - 1)
    return rows.astype(entry_dtype(bit_width))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block_pairs", [1, 5, 1 << 17])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 40])
@pytest.mark.parametrize("bit_width", [1, 7, 8, 15, 16, 31, 32, 62, 63])
def test_pairwise_l1_blocks_match_numpy_loop(
    monkeypatch, bit_width, k, block_pairs, workers
):
    """Widths 7, 15, 31 and 63 are the widest of int8, int16, int32 and
    int64 entries; at 63 the sums wrap modulo 2**64, in the kernels as in
    the oracle. With two CPUs the next block is computed while the current
    one is read."""
    monkeypatch.setattr(_native, "_worker_count", lambda: workers)
    rows = extreme_rows(bit_width, k, 37, seed=1)
    got = list(pairwise_l1_blocks(rows, block_pairs))
    want = l1_oracle(rows, block_pairs)
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
    for (_, _, g), (_, _, w) in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


@pytest.mark.parametrize("bit_width", [7, 15])
def test_pairwise_l1_sums_longer_than_a_chunk(bit_width):
    """Rows longer than the kernel sums in its narrow accumulator."""
    rows = extreme_rows(bit_width, 3, (1 << 16) + 3, seed=2)
    rows[0], rows[1] = rows.min(), rows.max()
    got = np.concatenate([s for _, _, s in pairwise_l1_blocks(rows)])
    want = np.concatenate([s for _, _, s in l1_oracle(rows)])
    assert np.array_equal(got, want)


def test_pairwise_l1_sums_past_two_chunks():
    """int16 rows of p > 2 * 2**16 entries: the third chunk starts where
    the second ends, and no chunk reads past its row."""
    rows = extreme_rows(15, 3, 2 * (1 << 16) + 1, seed=5)
    got = np.concatenate([s for _, _, s in pairwise_l1_blocks(rows)])
    want = np.concatenate([s for _, _, s in l1_oracle(rows)])
    assert np.array_equal(got, want)


def test_pairwise_l1_blocks_stop_early():
    """A caller may stop reading after any block."""
    rows = extreme_rows(10, 300, 16, seed=4)
    want = l1_oracle(rows, 1000)
    blocks = pairwise_l1_blocks(rows, 1000)
    start, stop, sums = next(blocks)
    blocks.close()
    assert (start, stop) == want[0][:2] and np.array_equal(sums, want[0][2])


def test_pairwise_l1_blocks_take_any_layout_and_dtype():
    rows = extreme_rows(10, 9, 12, seed=3)
    want = np.concatenate([s for _, _, s in l1_oracle(rows)])
    strided = np.repeat(rows, 2, axis=1)[:, ::2]
    layouts = (np.asfortranarray(rows), strided, rows.astype(np.int32))
    for other in layouts:
        got = np.concatenate([s for _, _, s in pairwise_l1_blocks(other)])
        assert np.array_equal(got, want)
    floats = np.concatenate([s for _, _, s in pairwise_l1_blocks(rows.astype(float))])
    assert floats.dtype == np.float64 and np.array_equal(floats, want)


def test_native_pair_lines_match_python_formatting(kernels):
    k, start = 12, 3
    count = sum(k - 1 - i for i in range(start, k))
    rng = np.random.default_rng(4)
    sums = rng.integers(100, 140, size=count)
    texts = [repr(float(v) / 7).encode() for v in range(100, 140)]
    texts[5] = b"x" * 70  # longer than one fixed-size copy
    lut = np.arange(40, dtype=np.int32)[::-1].copy()
    out = np.empty(kernels.lines_size(count, k, 70), dtype=np.uint8)
    n = kernels.pair_lines(sums, start, k, 100, lut, texts, out)
    pairs = [(i, j) for i in range(start, k) for j in range(i + 1, k)]
    want = b"".join(
        b"%d,%d,%s\n" % (i, j, texts[lut[s - 100]]) for (i, j), s in zip(pairs, sums)
    )
    assert out[:n].tobytes() == want


def test_native_pair_lines_refuse_what_does_not_fit(kernels):
    sums = np.array([5, 6, 7], dtype=np.int64)
    lut = np.zeros(3, dtype=np.int32)
    texts = [b"0.5"]
    out = np.empty(kernels.lines_size(3, 4, 3), dtype=np.uint8)
    assert kernels.pair_lines(sums, 0, 4, 5, lut, texts, out) == 3 * len(b"0,1,0.5\n")
    with pytest.raises(ValueError):
        kernels.pair_lines(sums, 0, 4, 5, lut, texts, out[:40])
    with pytest.raises(ValueError):
        kernels.pair_lines(sums, 0, 4, 6, lut, texts, out)
    with pytest.raises(ValueError):
        kernels.pair_lines(sums, 0, 4, 5, lut + 1, texts, out)
