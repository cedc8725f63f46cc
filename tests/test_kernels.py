"""The feature-major embed kernels against the row-layout loops they
replaced, bit for bit.

The oracles below are the per-point implementations the package used
before its embed path carried points on the last axis: a row-layout
Walsh-Hadamard butterfly, one ``np.bincount`` per point for the sparse
projection, a quantizer that keeps every filter state, an int64
condensation and one ``packbits`` per code. Every comparison is exact
(``np.array_equal``), never a tolerance.
"""

import math

import numpy as np
import pytest

from csq.condense import BinaryCode, codes_from_signs, condense_signs_batch
from csq.pipeline import (
    build_model,
    dataset_from_matrix,
    embed_dataset,
    model_operator,
    project_dataset,
)
from csq.sigma_delta import build_quantizer, quantize_batch
from csq.transforms import (
    FjltOperator,
    build_sparse_gaussian,
    fwht_inplace,
    sparse_matmat,
)

KS = [0, 1, 2, 3, 8, 257]


# ---------------------------------------------------------------- oracles


def fwht_oracle(x):
    """Row-layout butterfly along the last axis of a C-ordered copy."""
    x = np.array(x, dtype=np.float64)
    n = x.shape[-1]
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


def matmat_oracle(matrix, xs):
    """One bincount per point, entries summed in storage order."""
    rid = np.repeat(np.arange(matrix.rows), np.diff(matrix.row_offsets))
    out = np.empty((xs.shape[0], matrix.rows))
    for i in range(xs.shape[0]):
        products = matrix.values * xs[i, matrix.col_indices]
        out[i] = np.bincount(rid, weights=products, minlength=matrix.rows)
    return out


def precondition_oracle(op, xs):
    padded = np.zeros((xs.shape[0], op.diagonal.dim))
    padded[:, : op.input_dim] = xs
    padded *= op.diagonal.signs
    return fwht_oracle(padded)


def project_oracle(model, xs):
    op = model_operator(model)
    if isinstance(op, FjltOperator):
        return matmat_oracle(op.matrix, precondition_oracle(op, xs))
    return matmat_oracle(op, xs)


def quantize_oracle(spec, ys, ties=None):
    """Lockstep quantizer keeping the whole state; where ``ties`` is set,
    the input sample is replaced by ``-a`` so that ``a + y`` is exactly 0.

    Returns (codes, states, inputs actually quantized).
    """
    ys = np.array(ys, dtype=np.float64)
    k, m = ys.shape
    pad = spec.reach
    buf = np.zeros((pad + m, k))
    codes = np.empty((m, k), dtype=np.int8)
    for i in range(m):
        a = np.zeros(k)
        for nj, d in zip(spec.positions, spec.weights):
            a += d * buf[pad - nj + i]
        if ties is not None:
            ys[ties[:, i], i] = -a[ties[:, i]]
        s = a + ys[:, i]
        q = np.where(s >= 0.0, 1.0, -1.0)
        buf[pad + i] = s - q
        codes[i] = q.astype(np.int8)
    return codes.T, buf[pad:].T, ys


def condense_oracle(spec, signs):
    blocks = signs.astype(np.int64).reshape(signs.shape[0], spec.p, spec.lam)
    return blocks @ spec.kernel


def bits_oracle(signs):
    return [
        np.packbits((row > 0).astype(np.uint8), bitorder="little") for row in signs
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
        codes = codes_from_signs(layout)
        assert len(codes) == k
        for code, bits in zip(codes, bits_oracle(signs)):
            assert code.length == spec.m
            assert np.array_equal(code.bits, bits)


def test_codes_from_signs_refuses_non_signs():
    from csq.errors import InputError

    with pytest.raises(InputError):
        codes_from_signs(np.array([[1, 0, -1]]))
    with pytest.raises(InputError):
        BinaryCode.from_signs(np.array([1, 2]))


# ------------------------------------------------------- the whole path


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_embed_matches_row_layout_oracles(method, r, k):
    model = build_model(method, 37, 4, 4, r, seed=k)
    xs = _points(k, 37, seed=r + k)
    xs *= 0.1 / max(1.0, float(np.abs(xs).max(initial=0.0)))
    proj = project_oracle(model, xs)
    assert np.array_equal(project_dataset(model, xs), proj)
    codes, _, _ = quantize_oracle(model.quantizer, proj)
    res = embed_dataset(model, dataset_from_matrix(xs))
    assert np.array_equal(
        res.condensed.entries, condense_oracle(model.condensation, codes)
    )
    assert res.condensed.entries.flags.c_contiguous
    assert len(res.codes) == k
    for code, bits in zip(res.codes, bits_oracle(codes)):
        assert np.array_equal(code.bits, bits)
