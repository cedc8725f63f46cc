"""Model assembly and the embed path: project, quantize, condense,
estimate, plus the memoryless sign baseline."""

import math
import warnings

import numpy as np
import pytest

from csq.condense import condense_real_batch
from csq.errors import (
    DegenerateInputError,
    IncompatibilityError,
    InputError,
    ParameterError,
    ShapeError,
)
from csq.pipeline import (
    Dataset,
    build_model,
    dataset_from_matrix,
    derive_seeds,
    embed_dataset,
    estimate_distance,
    hamming_angular_distance,
    kappa_bound,
    model_operator,
    project_dataset,
    scale_dataset,
    sign_msq_baseline_embed,
)
from csq.sigma_delta import quantize
from csq.transforms import sparse_matmat


def flat_dataset(n, k, radius, seed):
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(k, n)) * 2 - 1
    return dataset_from_matrix(signs * (radius / math.sqrt(n)))


# ------------------------------------------------------------ datasets


def test_dataset_from_matrix_records_extent():
    vecs = np.array([[3.0, 4.0], [0.0, 1.0]])
    ds = dataset_from_matrix(vecs)
    assert ds.k == 2 and ds.n == 2
    assert ds.kappa == pytest.approx(5.0)
    assert ds.scale_applied == 1.0


def test_scale_dataset_puts_points_in_ball():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((20, 16)) * 3.0
    ds = scale_dataset(raw, 0.25)
    norms = np.linalg.norm(ds.vectors, axis=1)
    assert np.max(norms) == pytest.approx(0.25)
    assert ds.kappa == pytest.approx(0.25)
    # multiplier restores original units
    assert np.allclose(ds.vectors / ds.scale_applied, raw)


def test_scale_dataset_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        scale_dataset(np.zeros((3, 4)), 1.0)
    with pytest.raises(ParameterError):
        scale_dataset(np.ones((3, 4)), 0.0)


def test_kappa_bound_frozen_value():
    got = kappa_bound(1.0, math.log(2.0), 1024)
    assert got == pytest.approx(0.1733670865106, abs=1e-12)
    assert got == pytest.approx(1.0 / (2.0 * math.sqrt(math.log(4096.0))))


def test_kappa_bound_monotone_and_linear_in_mu():
    assert kappa_bound(0.9, 1.0, 4096) < kappa_bound(0.9, 1.0, 256)
    assert kappa_bound(0.5, 1.0, 256) == pytest.approx(
        0.5 * kappa_bound(1.0, 1.0, 256)
    )


# -------------------------------------------------------------- models


def test_build_model_shape_arithmetic():
    model = build_model(
        method="sparse", n=64, p=8, lambda_tilde=5, r=2, seed=9
    )
    assert model.lambda_tilde == 5
    assert model.condensation.lam == 9
    assert model.m == 72
    assert model.n_pad == 64
    assert model.quantizer.order == 2


def test_build_model_fjlt_pads_dimension():
    model = build_model(method="fjlt", n=48, p=4, lambda_tilde=4, r=1, seed=1)
    assert model.n == 48
    assert model.n_pad == 64


def test_build_model_default_sparsity_uses_kernel_ratio():
    model = build_model(method="sparse", n=4096, p=64, lambda_tilde=16, r=1, seed=0)
    from csq.transforms import recommended_sparsity

    want = recommended_sparsity(
        4096,
        eps=1.0 / math.sqrt(64),
        v_inf_over_v2_sq=model.condensation.kernel_inf_over_l2_sq(),
        wellspread_const=1.0,
        fjlt_mode=False,
    )
    assert model.sparsity == pytest.approx(want)


def test_build_model_small_p_falls_back_to_dense():
    model = build_model(method="sparse", n=64, p=4, lambda_tilde=3, r=1, seed=0)
    assert model.sparsity == 1.0


def test_build_model_rejects_unknown_method():
    with pytest.raises(ParameterError):
        build_model(method="dense", n=8, p=2, lambda_tilde=2, r=1, seed=0)


def test_derive_seeds_is_deterministic_and_split():
    a = derive_seeds(123)
    assert a == derive_seeds(123)
    assert a[0] != a[1]
    assert a != derive_seeds(124)


def test_model_operator_regenerates_same_matrix():
    model = build_model(method="sparse", n=32, p=2, lambda_tilde=4, r=1, seed=5)
    op1 = model_operator(model)
    op2 = model_operator(model)
    assert np.array_equal(op1.values, op2.values)
    assert np.array_equal(op1.col_indices, op2.col_indices)


# ---------------------------------------------------------- embedding


def test_embed_empty_dataset():
    model = build_model(method="sparse", n=16, p=2, lambda_tilde=2, r=1, seed=0)
    res = embed_dataset(model, dataset_from_matrix(np.zeros((0, 16))))
    assert res.codes == [] and len(res.condensed) == 0
    assert res.condensed.entries.shape == (0, model.p)


def test_embed_dimension_mismatch():
    model = build_model(method="sparse", n=16, p=2, lambda_tilde=2, r=1, seed=0)
    with pytest.raises(ShapeError):
        embed_dataset(model, dataset_from_matrix(np.zeros((2, 8))))


def test_embed_produces_matching_codes_and_sketches():
    model = build_model(
        method="sparse", n=256, p=8, lambda_tilde=8, r=1, mu=0.5, seed=3
    )
    data = flat_dataset(256, 5, 0.05, 44)
    res = embed_dataset(model, data)
    assert len(res.codes) == 5 and len(res.condensed) == 5
    spec = model.condensation
    zs = project_dataset(model, data.vectors)
    for i in range(5):
        assert res.codes[i].length == model.m
        # the code is the quantization of the projection
        manual = quantize(model.quantizer, zs[i])
        assert np.array_equal(res.codes[i].to_signs(), manual.code)
        # the sketch is the integer condensation of the code
        from csq.condense import BinaryCode, condense

        want = condense(spec, BinaryCode.from_signs(manual.code))
        assert np.array_equal(res.condensed[i].entries, want.entries)


def test_embed_flags_loud_points():
    model = build_model(
        method="sparse", n=64, p=2, lambda_tilde=4, r=1, mu=0.5, seed=7
    )
    quiet = flat_dataset(64, 3, 0.02, 1).vectors
    loud = flat_dataset(64, 1, 5.0, 2).vectors
    data = dataset_from_matrix(np.vstack([quiet, loud]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = embed_dataset(model, data)
    flags = res.diagnostics.amplitude_violations
    assert flags.tolist()[3] is True or flags[3]
    assert not flags[:3].any()


def test_embed_warns_on_peaky_vectors():
    model = build_model(method="sparse", n=64, p=2, lambda_tilde=4, r=1, seed=7)
    spike = np.zeros((1, 64))
    spike[0, 5] = 0.01
    with pytest.warns(RuntimeWarning):
        res = embed_dataset(model, dataset_from_matrix(spike))
    assert res.diagnostics.wellspread_failure_fraction == 1.0


def test_embed_accepts_exact_boundary_vectors():
    """Sign-flat points sit exactly on the spread threshold and must not
    trip the check through rounding."""
    model = build_model(method="sparse", n=128, p=2, lambda_tilde=4, r=1, seed=2)
    data = flat_dataset(128, 20, 0.1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = embed_dataset(model, data)
    assert res.diagnostics.wellspread_failures.sum() == 0


def test_embed_deterministic_across_calls():
    model = build_model(method="sparse", n=64, p=4, lambda_tilde=4, r=2, seed=11)
    data = flat_dataset(64, 4, 0.05, 12)
    a = embed_dataset(model, data)
    b = embed_dataset(model, data)
    for i in range(4):
        assert np.array_equal(a.codes[i].bits, b.codes[i].bits)
        assert np.array_equal(a.condensed[i].entries, b.condensed[i].entries)


def test_fjlt_embedding_runs_end_to_end():
    model = build_model(method="fjlt", n=100, p=4, lambda_tilde=4, r=1, seed=13)
    data = flat_dataset(100, 3, 0.05, 21)
    res = embed_dataset(model, data)
    assert len(res.condensed) == 3
    assert res.diagnostics.amplitude_violations.sum() == 0


# ----------------------------------------------------------- distance


def test_estimate_distance_recovers_l2_for_moderate_sketches():
    model = build_model(
        method="sparse", n=512, p=128, lambda_tilde=8, r=1, mu=0.5, seed=31
    )
    data = flat_dataset(512, 6, 0.08, 17)
    res = embed_dataset(model, data)
    truths = np.linalg.norm(
        data.vectors[:, None, :] - data.vectors[None, :, :], axis=2
    )
    errs = []
    for i in range(6):
        for j in range(i + 1, 6):
            est = estimate_distance(model, res.condensed[i], res.condensed[j])
            errs.append(abs(est - truths[i, j]) / truths[i, j])
    assert np.median(errs) < 0.2


def test_estimate_distance_self_is_zero_and_symmetric():
    model = build_model(method="sparse", n=64, p=8, lambda_tilde=4, r=1, seed=2)
    data = flat_dataset(64, 2, 0.05, 5)
    res = embed_dataset(model, data)
    a, b = res.condensed
    assert estimate_distance(model, a, a) == 0.0
    assert estimate_distance(model, a, b) == estimate_distance(model, b, a)


def test_estimate_distance_rejects_foreign_sketch():
    model = build_model(method="sparse", n=64, p=8, lambda_tilde=4, r=1, seed=2)
    other = build_model(method="sparse", n=64, p=8, lambda_tilde=6, r=1, seed=2)
    res = embed_dataset(model, flat_dataset(64, 1, 0.05, 5))
    res_other = embed_dataset(other, flat_dataset(64, 1, 0.05, 5))
    with pytest.raises(IncompatibilityError):
        estimate_distance(model, res.condensed[0], res_other.condensed[0])


# ------------------------------------------------------------ baseline


def test_baseline_identical_antipodal_and_errors():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(128)
    a = sign_msq_baseline_embed(5, 2048, x)
    b = sign_msq_baseline_embed(5, 2048, x)
    c = sign_msq_baseline_embed(5, 2048, -x)
    assert hamming_angular_distance(a, b) == 0.0
    assert hamming_angular_distance(a, c) == 1.0
    with pytest.raises(InputError):
        sign_msq_baseline_embed(5, 16, np.zeros(4))
    with pytest.raises(ParameterError):
        sign_msq_baseline_embed(5, 0, x)


def test_baseline_orthogonal_pairs_near_half():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(256)
    y = rng.standard_normal(256)
    y -= (x @ y) / (x @ x) * x
    d = hamming_angular_distance(
        sign_msq_baseline_embed(3, 4096, x), sign_msq_baseline_embed(3, 4096, y)
    )
    assert abs(d - 0.5) < 0.05


def test_hamming_distance_requires_equal_lengths():
    a = sign_msq_baseline_embed(1, 64, np.ones(8))
    b = sign_msq_baseline_embed(1, 32, np.ones(8))
    with pytest.raises(ShapeError):
        hamming_angular_distance(a, b)
