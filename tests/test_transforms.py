"""Projection building blocks: sparse Gaussian matrices, the fast
Walsh-Hadamard butterfly, sign diagonals and the sparsity rule."""

import math

import numpy as np
import pytest
from oracles import dense_of

from csq.errors import InputError, ParameterError, ShapeError
from csq.pipeline import build_model
from csq.transforms import (
    Projection,
    SparseGaussianMatrix,
    build_sparse_gaussian,
    fwht_inplace,
    padded_dim,
    recommended_sparsity,
    sign_diagonal,
    sparse_matmat,
    sparse_matvec,
)


def hadamard_popcount(n):
    """Explicit orthonormal Hadamard matrix via the parity of i AND j."""
    idx = np.arange(n)
    pops = np.array(
        [[bin(i & j).count("1") for j in idx] for i in idx], dtype=np.int64
    )
    return ((-1.0) ** pops) / math.sqrt(n)


# ---------------------------------------------------------------- FWHT


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_fwht_matches_explicit_hadamard(n):
    rng = np.random.default_rng(1000 + n)
    h = hadamard_popcount(n)
    for _ in range(5):
        x = rng.standard_normal(n)
        got = fwht_inplace(x.copy())
        assert np.max(np.abs(got - h @ x)) < 1e-12


def test_fwht_is_an_involution_and_isometry():
    rng = np.random.default_rng(77)
    for n in (2, 8, 64, 256, 1024):
        x = rng.standard_normal(n)
        y = fwht_inplace(x.copy())
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12 * max(
            1.0, np.linalg.norm(x)
        )
        back = fwht_inplace(y.copy())
        assert np.max(np.abs(back - x)) < 1e-12


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ShapeError):
        fwht_inplace(np.zeros(12))


def test_fwht_last_axis_batch():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, 16))
    got = fwht_inplace(xs.copy())
    for i in range(5):
        assert np.allclose(got[i], fwht_inplace(xs[i].copy()), atol=1e-12)


# ------------------------------------------------- sparse Gaussian


def test_sparse_matvec_equals_dense_multiply():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        s = float(rng.uniform(0.05, 1.0))
        mat = build_sparse_gaussian(m, n, s, int(rng.integers(0, 2**32)))
        x = rng.standard_normal(n)
        want = dense_of(mat) @ x
        got = sparse_matvec(mat, x)
        scale = max(1.0, np.linalg.norm(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_sparse_matmat_matches_matvec():
    rng = np.random.default_rng(5)
    mat = build_sparse_gaussian(40, 30, 0.3, 99)
    xs = rng.standard_normal((7, 30))
    got = sparse_matmat(mat, xs)
    assert got.shape == (7, 40)
    for i in range(7):
        assert np.allclose(got[i], sparse_matvec(mat, xs[i]), atol=1e-12)


def test_sparse_gaussian_is_deterministic():
    a = build_sparse_gaussian(50, 80, 0.2, 1234)
    b = build_sparse_gaussian(50, 80, 0.2, 1234)
    assert np.array_equal(a.row_offsets, b.row_offsets)
    assert np.array_equal(a.col_indices, b.col_indices)
    assert np.array_equal(a.values, b.values)
    c = build_sparse_gaussian(50, 80, 0.2, 1235)
    assert not np.array_equal(a.values, c.values)


def test_sparse_gaussian_occupancy_and_variance():
    """Entry statistics: keep probability s, kept values ~ N(0, 1/s)."""
    mat = build_sparse_gaussian(300, 400, 0.1, 7)
    total = 300 * 400
    frac = mat.nnz / total
    assert abs(frac - 0.1) < 0.01
    var = float(np.var(mat.values))
    assert abs(var - 10.0) < 1.0
    assert mat.density() == pytest.approx(frac)


def test_sparse_gaussian_dense_limit():
    mat = build_sparse_gaussian(10, 10, 1.0, 0)
    assert mat.nnz == 100


def _csr(offsets, cols, n_cols=6):
    cols = np.array(cols, dtype=np.int64)
    return SparseGaussianMatrix(
        rows=len(offsets) - 1, cols=n_cols,
        row_offsets=np.array(offsets, dtype=np.int64), col_indices=cols,
        values=np.ones(cols.size),
    )


def test_validate_checks_column_order_within_rows_only():
    """The CSR checks run when a matrix is made."""
    build_sparse_gaussian(40, 30, 0.3, 5)
    # Column indices may drop across a row boundary, empty rows included.
    _csr([0, 0, 3, 3, 5, 5], [1, 2, 5, 0, 4])
    _csr([0, 0, 0], [])
    for offsets, cols in (
        ([0, 3, 5], [1, 1, 5, 0, 4]),   # repeated index in row 0
        ([0, 3, 5], [1, 2, 5, 4, 0]),   # decreasing in the last row
        ([0, 0, 2, 2], [3, 2]),         # decreasing after an empty row
    ):
        with pytest.raises(ShapeError):
            _csr(offsets, cols)


def test_sparse_gaussian_argument_errors():
    with pytest.raises(ParameterError):
        build_sparse_gaussian(0, 4, 0.5, 0)
    with pytest.raises(ParameterError):
        build_sparse_gaussian(4, 0, 0.5, 0)
    with pytest.raises(ParameterError):
        build_sparse_gaussian(4, 4, 0.0, 0)
    with pytest.raises(ParameterError):
        build_sparse_gaussian(4, 4, 1.5, 0)


def test_sparse_matvec_shape_error():
    mat = build_sparse_gaussian(4, 6, 0.5, 0)
    with pytest.raises(ShapeError):
        sparse_matvec(mat, np.zeros(5))


def test_norm_concentration_on_wellspread_unit_vectors():
    """The scaled l1 row statistic of the projection recovers the input
    norm within 20 percent for nearly all flat unit vectors."""
    n, m, eps = 1024, 4096, 0.2
    s = recommended_sparsity(n, eps, 1.0, 1.0, False)
    mat = build_sparse_gaussian(m, n, s, 314159)
    rng = np.random.default_rng(271828)
    inside = 0
    trials = 200
    for _ in range(trials):
        x = (rng.integers(0, 2, n) * 2 - 1) / math.sqrt(n)
        stat = math.sqrt(math.pi / 2.0) / m * float(np.abs(sparse_matvec(mat, x)).sum())
        if 0.8 <= stat <= 1.2:
            inside += 1
    assert inside >= 0.95 * trials


# ------------------------------------------------------- FJLT parts


def test_padded_dim():
    assert padded_dim(1) == 1
    assert padded_dim(2) == 2
    assert padded_dim(3) == 4
    assert padded_dim(1000) == 1024
    assert padded_dim(1024) == 1024


def fjlt(rows, n, sparsity, matrix_seed, diagonal_seed):
    n_pad = padded_dim(n)
    matrix = build_sparse_gaussian(rows, n_pad, sparsity, matrix_seed)
    return Projection(n, matrix, sign_diagonal(n_pad, diagonal_seed))


def test_sign_diagonal_is_deterministic_pm_one():
    d = sign_diagonal(512, 42)
    d2 = sign_diagonal(512, 42)
    assert d.dtype == np.float64
    assert np.array_equal(d, d2)
    assert set(np.unique(d)) <= {-1, 1}


def test_fjlt_equals_composed_parts():
    n, m = 48, 32
    op = fjlt(m, n, 0.5, matrix_seed=3, diagonal_seed=4)
    n_pad = padded_dim(n)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(n)
    padded = np.zeros(n_pad)
    padded[:n] = x
    manual = sparse_matvec(op.matrix, fwht_inplace(padded * op.signs))
    assert np.allclose(op.apply(x[None, :])[0], manual, atol=1e-12)


def test_fjlt_batch_matches_single():
    model = build_model("fjlt", 20, 4, 4, 1, seed=2)
    op = model.operator
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((6, 20))
    got = model.operator.apply(xs)
    assert got.shape == (6, model.m)
    for i in range(6):
        assert np.array_equal(got[i], op.apply(xs[i][None, :])[0])


def test_projection_checks_shapes_and_signs():
    matrix = build_sparse_gaussian(4, 8, 0.5, 1)
    assert Projection(8, matrix).signs is None
    signs = sign_diagonal(8, 2)
    assert np.array_equal(Projection(5, matrix, signs).signs, signs)
    with pytest.raises(ShapeError):
        Projection(5, matrix)               # no padding without signs
    with pytest.raises(ShapeError):
        Projection(9, matrix, signs)        # padded_dim(9) is 16
    with pytest.raises(ShapeError):
        Projection(5, matrix, signs[:4])
    with pytest.raises(InputError):
        Projection(5, matrix, np.where(signs > 0, 2.0, -1.0))


def test_projection_and_matrix_arrays_are_read_only_copies():
    signs = sign_diagonal(8, 2)
    op = Projection(5, build_sparse_gaussian(4, 8, 0.5, 1), signs.astype(np.int8))
    signs[0] = -signs[0]
    assert op.signs.dtype == np.float64 and op.signs.flags.c_contiguous
    assert op.signs[0] == -signs[0]
    values = np.array([1.0, 2.0])
    mat = SparseGaussianMatrix(2, 3, np.array([0, 1, 2]), np.array([0, 2]), values)
    values[0] = 5.0
    assert mat.values[0] == 1.0
    for array in (op.signs, mat.row_offsets, mat.col_indices, mat.values):
        with pytest.raises(ValueError):
            array[0] = 1


def test_fjlt_preconditioning_spreads_a_spike():
    """A one-hot input becomes flat after the sign flip and transform:
    the max coordinate drops to about n**-1/2 of the l2 norm."""
    n = 256
    op = fjlt(8, n, 1.0, matrix_seed=0, diagonal_seed=5)
    spike = np.zeros(n)
    spike[17] = 3.0
    pre = op.precondition(spike[None, :])[0]
    assert abs(np.linalg.norm(pre) - 3.0) < 1e-12
    assert np.max(np.abs(pre)) <= 3.0 / math.sqrt(n) + 1e-12


# ------------------------------------------------ sparsity rule


def test_recommended_sparsity_frozen_value():
    got = recommended_sparsity(16384, 0.1, 1.0 / 256.0, 1.0, False)
    assert got == pytest.approx(4.76837158203125e-06, rel=0, abs=1e-20)


def test_recommended_sparsity_clamps_to_one():
    assert recommended_sparsity(4, 0.4, 1.0, 1.0, False) == 1.0


def test_recommended_sparsity_fjlt_log_factor():
    base = recommended_sparsity(16384, 0.1, 1.0 / 256.0, 1.0, False)
    fast = recommended_sparsity(16384, 0.1, 1.0 / 256.0, 1.0, True)
    assert fast == pytest.approx(base * math.log(16384.0))


def test_recommended_sparsity_rejects_bad_eps():
    with pytest.raises(ParameterError):
        recommended_sparsity(1024, 0.5, 0.5, 1.0, False)
    with pytest.raises(ParameterError):
        recommended_sparsity(1024, 0.0, 0.5, 1.0, False)
