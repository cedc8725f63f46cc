"""Model assembly and the embed path: project, quantize, condense,
estimate, plus the memoryless sign baseline."""

import dataclasses
import math
import tracemalloc
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
    EmbeddingModel,
    _finite_row_norms,
    _row_peaks,
    build_model,
    dataset_from_matrix,
    derive_seeds,
    embed_dataset,
    estimate_distance,
    hamming_angular_distance,
    kappa_bound,
    scale_dataset,
    sign_msq_baseline_embed,
)
from csq.sigma_delta import build_quantizer, quantize
from csq.transforms import Projection, sign_diagonal


def flat_dataset(n, k, radius, seed):
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(k, n)) * 2 - 1
    return dataset_from_matrix(signs * (radius / math.sqrt(n)))


# ------------------------------------------------------------ datasets


def test_dataset_states_its_shape_once():
    init = [f.name for f in dataclasses.fields(Dataset) if f.init]
    assert init == ["vectors", "scale_applied", "kappa"]
    ds = Dataset(np.zeros((3, 16)))
    assert (ds.k, ds.n) == (3, 16)
    with pytest.raises(TypeError):
        Dataset(k=5, n=16, vectors=np.zeros((3, 16)))


def test_dataset_is_a_checked_read_only_view():
    x = np.random.default_rng(1).standard_normal((5, 7))
    ds = Dataset(x)
    assert np.shares_memory(ds.vectors, x) and x.flags.writeable
    assert np.array_equal(ds.norms, _finite_row_norms(x))
    assert ds.kappa == ds.norms.max()
    assert Dataset(x, kappa=2.0).kappa == 2.0
    for array in (ds.vectors, ds.norms):
        with pytest.raises(ValueError):
            array[0] = 1.0
    for name in ("vectors", "scale_applied", "kappa", "norms"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, None)
    with pytest.raises(ShapeError):
        Dataset(np.zeros(3))


def test_dataset_from_matrix_records_extent():
    vecs = np.array([[3.0, 4.0], [0.0, 1.0]])
    ds = dataset_from_matrix(vecs)
    assert ds.k == 2 and ds.n == 2
    assert ds.kappa == pytest.approx(5.0)
    assert ds.scale_applied == 1.0


@pytest.mark.parametrize(
    "shape", [(1, 1), (3, 7), (1000, 1000), (257, 4096), (5, 100003)]
)
def test_row_norms_and_kappa_match_numpy_bit_for_bit(shape):
    rng = np.random.default_rng(shape[1])
    # Row scales from 1e-13 to 1e13 exercise the rounding of every sum.
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, (shape[0], 1)))
    want = np.linalg.norm(x, axis=1)
    for layout in (x, np.asfortranarray(x), np.ascontiguousarray(x.T).T):
        got = _finite_row_norms(layout)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert dataset_from_matrix(layout).kappa == float(want.max())


def test_dataset_from_matrix_makes_no_full_size_temporary():
    x = np.random.default_rng(0).standard_normal((2000, 1000))  # 16 MB
    x[1999, 999] = np.nan
    for matrix, error in ((x[:1999], None), (x, InputError)):
        tracemalloc.start()
        try:
            if error is None:
                dataset_from_matrix(matrix)
            else:
                with pytest.raises(error):
                    dataset_from_matrix(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def test_row_peaks_match_numpy_exactly():
    x = np.random.default_rng(8).standard_normal((300, 1500))
    x[7] = -0.0
    x[9, 4] = -50.0
    for layout in (x, np.asfortranarray(x)):
        assert np.array_equal(_row_peaks(layout), np.abs(x).max(axis=1))


def test_sparse_embed_well_spread_check_makes_no_full_size_temporary():
    """The (k, n) inputs are 16 MB; the check reads them in blocks."""
    model = build_model("sparse", n=1000, p=8, lambda_tilde=4, r=1, seed=1)
    model.operator
    x = np.random.default_rng(0).standard_normal((2000, 1000))
    data = dataset_from_matrix(x * (0.01 / np.linalg.norm(x, axis=1).max()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            res = embed_dataset(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert res.diagnostics.wellspread_failures.all()
    assert peak < 8 << 20


def test_embed_jobs_read_their_input_once(tmp_path, monkeypatch):
    """A sparse job from a file makes one finiteness and norm pass (when
    the dataset is made) and one peaks pass (for the well-spread check);
    an fjlt job makes no peaks pass."""
    from csq import pipeline, store

    passes = []
    for name in ("_finite_row_norms", "_row_peaks"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name, lambda m, name=name, real=real: passes.append(name) or real(m)
        )
    path = tmp_path / "x.csqv"
    store.write_vectors(path, flat_dataset(64, 20, 0.1, seed=2))
    for method, want in (("sparse", ["_finite_row_norms", "_row_peaks"]),
                         ("fjlt", ["_finite_row_norms"])):
        passes.clear()
        data = store.read_vectors(path)
        embed_dataset(build_model(method, 64, 4, 4, 2, seed=1), data)
        assert passes == want
        assert ("peaks" in vars(data)) == (method == "sparse")


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


def test_model_states_its_geometry_once():
    init = [f.name for f in dataclasses.fields(EmbeddingModel) if f.init]
    assert len(init) == 9
    for derived in ("n_pad", "m", "p", "r", "lambda_tilde", "version"):
        assert derived not in init
    model = build_model(method="fjlt", n=48, p=4, lambda_tilde=4, r=2, seed=1)
    spec = model.condensation
    assert (model.m, model.p, model.r, model.lambda_tilde) == (
        spec.m, spec.p, spec.r, spec.lambda_tilde,
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.method = "sparse"
    assert dataclasses.replace(model, method="sparse").n_pad == 48
    with pytest.raises(ParameterError):
        dataclasses.replace(model, quantizer=build_quantizer(3))


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
    op1 = model.operator
    op2 = dataclasses.replace(model).operator
    assert op1 is not op2
    assert np.array_equal(op1.matrix.values, op2.matrix.values)
    assert np.array_equal(op1.matrix.col_indices, op2.matrix.col_indices)


def test_model_operator_is_built_once_per_model(monkeypatch):
    """Counts calls of ``pipeline.build_sparse_gaussian``, the name the
    benchmark's operator-build count wraps."""
    import csq.pipeline as pipeline_mod

    builds = []
    real = pipeline_mod.build_sparse_gaussian
    monkeypatch.setattr(
        pipeline_mod, "build_sparse_gaussian",
        lambda *a: builds.append(a) or real(*a),
    )
    model = build_model(method="fjlt", n=20, p=2, lambda_tilde=4, r=2, seed=3)
    data = flat_dataset(20, 5, 0.05, seed=1)
    first = embed_dataset(model, data)
    second = embed_dataset(model, data)
    assert len(builds) == 1
    assert np.array_equal(first.condensed.entries, second.condensed.entries)
    assert [c.bits.tobytes() for c in first.codes] == [
        c.bits.tobytes() for c in second.codes
    ]
    # The cached operator is not part of the model's value.
    assert "operator" not in {f.name for f in dataclasses.fields(model)}
    assert model.operator is model.operator


@pytest.mark.parametrize(
    "change",
    [
        lambda m: {"matrix_seed": m.matrix_seed + 1},
        lambda m: {"diagonal_seed": m.diagonal_seed + 1},
        lambda m: {"sparsity": m.sparsity / 2},
    ],
    ids=["matrix_seed", "diagonal_seed", "sparsity"],
)
def test_model_operator_rebuilds_after_mutation(change):
    """A model is immutable; ``dataclasses.replace`` gives a changed copy
    whose operator equals a fresh build's, not the original's."""
    model = build_model(method="fjlt", n=20, p=2, lambda_tilde=4, r=2, seed=3)
    before = model.operator
    changed = dataclasses.replace(model, **change(model))
    after = changed.operator
    assert after is not before
    fresh = build_model(method="fjlt", n=20, p=2, lambda_tilde=4, r=2, seed=3)
    fresh = dataclasses.replace(fresh, **change(fresh))
    xs = flat_dataset(20, 4, 0.05, seed=2).vectors
    assert np.array_equal(changed.operator.apply(xs), fresh.operator.apply(xs))
    assert not np.array_equal(model.operator.apply(xs), fresh.operator.apply(xs))


def test_model_operator_follows_explicit_arrays():
    model = build_model(method="sparse", n=16, p=2, lambda_tilde=4, r=1, seed=3)
    regenerated = model.operator
    explicit = build_model(
        method="sparse", n=16, p=2, lambda_tilde=4, r=1, seed=4
    ).operator
    loaded = dataclasses.replace(model, explicit=explicit)
    assert loaded.operator is explicit
    again = dataclasses.replace(loaded, explicit=None).operator
    assert again is not regenerated
    assert np.array_equal(again.matrix.values, regenerated.matrix.values)


@pytest.mark.parametrize("method", ["sparse", "fjlt"])
def test_model_refuses_explicit_projection_that_does_not_fit(method):
    model = build_model(method=method, n=16, p=2, lambda_tilde=4, r=1, seed=3)
    op = model.operator
    other = build_model(method=method, n=16, p=2, lambda_tilde=5, r=1, seed=3)
    signs = sign_diagonal(16, 1)
    misfits = [
        (Projection(16, op.matrix, None if op.signs is not None else signs),
         ParameterError),
        (Projection(op.n, other.operator.matrix, op.signs), ShapeError),  # rows
    ]
    for misfit, error in misfits:
        with pytest.raises(error):
            dataclasses.replace(model, explicit=misfit)
    assert dataclasses.replace(model, explicit=op).operator is op


def test_model_operator_arrays_cannot_be_written():
    """Writing into the operator would leave the numpy path's cached
    gathers out of step with the arrays the compiled kernels read."""
    model = build_model(method="fjlt", n=16, p=2, lambda_tilde=4, r=2, seed=3)
    op = model.operator
    with pytest.raises(ValueError):
        op.matrix.values[:] = -op.matrix.values
    with pytest.raises(ValueError):
        op.signs[0] = -op.signs[0]


# ---------------------------------------------------------- embedding


def test_embed_empty_dataset():
    model = build_model(method="sparse", n=16, p=2, lambda_tilde=2, r=1, seed=0)
    res = embed_dataset(model, dataset_from_matrix(np.zeros((0, 16))))
    assert len(res.codes) == 0 and len(res.condensed) == 0
    assert res.codes.bits.shape == (0, (model.m + 7) // 8)
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
    zs = model.operator.apply(data.vectors)
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
