"""Synthetic data generators and the benchmark runners."""

import numpy as np
import pytest

from csq.bench import (
    BenchConfig,
    STABILITY_HEADER,
    best_p_per_m,
    curve_rows,
    mape,
    nearest_lambda_tilde,
    pairwise_l2,
    run_mape_bench,
    run_stability_bench,
    synth_wellspread,
    write_stability_csv,
)
from csq.errors import DegenerateInputError, ParameterError


# ----------------------------------------------------------- generators


def test_signflat_points_fill_the_unit_ball():
    ds = synth_wellspread(256, 40, "signflat", 3)
    norms = np.linalg.norm(ds.vectors, axis=1)
    assert norms.max() <= 1.0 + 1e-12
    assert norms.min() > 0.0
    assert ds.kappa == pytest.approx(norms.max())
    # every coordinate has the same magnitude within one point
    mags = np.abs(ds.vectors)
    assert np.allclose(mags, mags[:, :1])


def test_gaussian_points_are_unit_norm():
    ds = synth_wellspread(128, 10, "gaussian", 4)
    norms = np.linalg.norm(ds.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_generators_are_seeded():
    a = synth_wellspread(64, 5, "signflat", 11)
    b = synth_wellspread(64, 5, "signflat", 11)
    c = synth_wellspread(64, 5, "signflat", 12)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_unknown_generator():
    with pytest.raises(ParameterError):
        synth_wellspread(8, 2, "cauchy", 0)


# ----------------------------------------------------------------- mape


def test_mape_exact_small_case():
    est = np.array([1.1, 2.0, 3.0])
    true = np.array([1.0, 2.5, 3.0])
    want = (0.1 / 1.0 + 0.5 / 2.5 + 0.0) / 3.0
    assert mape(est, true) == pytest.approx(want)


def test_mape_masks_zero_truths():
    est = np.array([5.0, 1.2])
    true = np.array([0.0, 1.0])
    assert mape(est, true) == pytest.approx(0.2)


def test_mape_degenerate_when_all_truths_vanish():
    with pytest.raises(DegenerateInputError):
        mape(np.array([1.0]), np.array([0.0]))


def test_pairwise_l2_counts_pairs():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((5, 3))
    d = pairwise_l2(vecs)
    assert d.shape == (10,)
    assert d[0] == pytest.approx(np.linalg.norm(vecs[0] - vecs[1]))


# ----------------------------------------------------------- block shape


def test_nearest_lambda_tilde_is_identity_for_order_one():
    for lam in (1, 4, 7, 64):
        assert nearest_lambda_tilde(lam, 1) == lam


def test_nearest_lambda_tilde_covers_target():
    for r in (2, 3):
        for lam in (4, 8, 16, 32, 64):
            lt = nearest_lambda_tilde(lam, r)
            assert r * lt - r + 1 >= lam
            assert r * (lt - 1) - r + 1 < lam


# ---------------------------------------------------------------- config


def test_config_validation_errors():
    good = dict(
        n=64, k=4, p_list=[4], m_list=[16], r_list=[1], trials=1, seed=0
    )
    BenchConfig(**good).validate()
    bad = dict(good, k=1)
    with pytest.raises(ParameterError):
        BenchConfig(**bad).validate()
    bad = dict(good, m_list=[18])  # not a multiple of p
    with pytest.raises(ParameterError):
        BenchConfig(**bad).validate()
    bad = dict(good, m_list=[])
    with pytest.raises(ParameterError):
        BenchConfig(**bad).validate()
    bad = dict(good, generator="unknown")
    with pytest.raises(ParameterError):
        BenchConfig(**bad).validate()


# ---------------------------------------------------------------- runner


@pytest.fixture(scope="module")
def small_bench():
    cfg = BenchConfig(
        n=128,
        k=12,
        p_list=[8],
        m_list=[64, 128],
        r_list=[1, 2],
        trials=2,
        seed=42,
        mu=0.5,
    )
    return cfg, run_mape_bench(cfg)


def test_bench_grid_shape(small_bench):
    cfg, cells = small_bench
    # 2 orders x 2 m plus r=0 reference rows for each m
    assert len(cells) == 2 * 2 + 2
    keys = {(c.r, c.m_requested) for c in cells}
    assert (0, 64) in keys and (2, 128) in keys


def test_bench_rows_have_sane_fields(small_bench):
    cfg, cells = small_bench
    for c in cells:
        assert c.p == 8
        assert c.m_actual >= c.m_requested
        assert c.m_actual % 8 == 0
        assert 0.0 <= c.mape
        assert c.wall_ms >= 0.0
        assert len(c.trial_scores) == cfg.trials
        assert np.mean(c.trial_scores) == pytest.approx(c.mape)


def test_bench_is_deterministic(small_bench):
    cfg, cells = small_bench
    again = run_mape_bench(cfg)
    for a, b in zip(cells, again):
        assert a.mape == b.mape
        assert a.trial_scores == b.trial_scores


def test_reference_rows_beat_quantized_rows(small_bench):
    """The unquantized reference is the floor the codes aim for."""
    cfg, cells = small_bench
    for m in (64, 128):
        ref = next(c for c in cells if c.r == 0 and c.m_requested == m)
        one = next(c for c in cells if c.r == 1 and c.m_requested == m)
        assert ref.mape <= one.mape


def test_curve_rows_and_best_p():
    cfg = BenchConfig(
        n=64, k=6, p_list=[4, 8], m_list=[32], r_list=[1], trials=1, seed=1,
    )
    cells = run_mape_bench(cfg)
    rows = curve_rows(cells)
    assert all(len(t) == 5 for t in rows)
    best = best_p_per_m(cells)
    assert [(r, m) for r, m, _ in best] == [(0, 32), (1, 32)]
    assert all(p in (4, 8) for _, _, p in best)


def test_mape_improves_with_more_measurements():
    """Longer codes should sharpen distance estimates on the same data."""
    cfg = BenchConfig(
        n=128, k=16, p_list=[8], m_list=[32, 512], r_list=[1], trials=3,
        seed=1001, mu=0.5,
    )
    cells = run_mape_bench(cfg)
    small = next(c for c in cells if c.r == 1 and c.m_requested == 32)
    large = next(c for c in cells if c.r == 1 and c.m_requested == 512)
    assert large.mape < small.mape


# -------------------------------------------------------------- stability


def test_stability_bench_rows():
    rows = run_stability_bench([1, 2], 6, 0.3, [128, 256], 5, 3)
    assert [(r, m) for r, m, _ in rows] == [
        (1, 128), (1, 256), (2, 128), (2, 256)
    ]
    assert all(peak > 0 for _, _, peak in rows)


def test_stability_csv(tmp_path):
    path = tmp_path / "stab.csv"
    rows = run_stability_bench([1], 6, 0.3, [64], 3, 0)
    write_stability_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(STABILITY_HEADER)
    assert len(lines) == 2


def test_stability_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    write_stability_csv(path, [])
    assert path.read_text().splitlines() == [",".join(STABILITY_HEADER)]
