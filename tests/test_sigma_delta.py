"""Order-r one-bit quantization: taps, recursion traces through the batch
quantizer and the oracle's filter states, the difference identity and the
stability scan."""

import math

import numpy as np
import pytest
from oracles import quantize_oracle

from csq.errors import InputError, ParameterError, ShapeError
from csq.sigma_delta import (
    MAX_ORDER,
    MAX_REACH,
    build_quantizer,
    extremal_probe_input,
    quantize_batch,
    reconstruct_state,
    stability_scan,
)


def code_of(spec, y):
    """The code of one vector, through the batch quantizer."""
    return quantize_batch(spec, np.asarray(y)[None, :]).codes[0]


def r_fold_difference(u, r):
    """Forward r-fold difference with zero left boundary."""
    out = np.asarray(u, dtype=np.float64)
    for _ in range(r):
        out = out - np.concatenate(([0.0], out[:-1]))
    return out


# ------------------------------------------------------------- taps


def test_tap_positions_and_weights_order_one():
    spec = build_quantizer(1)
    assert spec.positions == (1,)
    assert spec.weights == (1.0,)
    assert spec.reach == 1


def test_tap_positions_order_two_and_three():
    two = build_quantizer(2)
    assert two.positions == (1, 7)
    assert two.weights[0] == pytest.approx(7.0 / 6.0)
    assert two.weights[1] == pytest.approx(-1.0 / 6.0)

    three = build_quantizer(3)
    assert three.positions == (1, 7, 25)
    assert three.weights[0] == pytest.approx(175.0 / 144.0)
    assert three.weights[1] == pytest.approx(-25.0 / 108.0)
    assert three.weights[2] == pytest.approx(7.0 / 432.0)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_tap_weights_sum_to_one(r):
    spec = build_quantizer(r)
    assert sum(spec.weights) == pytest.approx(1.0, abs=1e-12)


def test_wider_spacing_changes_positions():
    spec = build_quantizer(2, sigma=9)
    assert spec.positions == (1, 10)


def test_filter_l1_is_moderate_for_safe_spacing():
    for r in (1, 2, 3):
        assert build_quantizer(r).filter_l1() < 1.5


def test_unsafe_spacing_needs_explicit_flag():
    with pytest.raises(ParameterError):
        build_quantizer(2, sigma=3)
    spec = build_quantizer(2, sigma=3, allow_unsafe_sigma=True)
    assert spec.positions == (1, 4)


def test_build_quantizer_argument_errors():
    with pytest.raises(ParameterError):
        build_quantizer(0)
    with pytest.raises(ParameterError):
        build_quantizer(2, sigma=0, allow_unsafe_sigma=True)
    with pytest.raises(ParameterError):
        build_quantizer(1, mu=1.0)
    with pytest.raises(ParameterError):
        build_quantizer(1, mu=0.0)


def test_order_limit_is_checked_before_the_taps():
    assert build_quantizer(MAX_ORDER).order == MAX_ORDER
    # Tap weights are O(order**2) Python work: 2**32 - 1 would never end.
    for order in (MAX_ORDER + 1, 100_000, 2**32 - 1):
        with pytest.raises(ParameterError):
            build_quantizer(order)


def test_reach_limit_bounds_sigma():
    """reach = sigma * (order - 1)**2 + 1 states back; order 1 has reach 1
    whatever sigma is."""
    assert build_quantizer(1, sigma=2**32 - 1).reach == 1
    assert build_quantizer(2, sigma=MAX_REACH - 1).reach == MAX_REACH
    for order, sigma in ((2, MAX_REACH), (3, MAX_REACH // 4), (2, 2**32 - 1)):
        with pytest.raises(ParameterError, match="sigma"):
            build_quantizer(order, sigma=sigma)


# -------------------------------------------------------- recursion


def test_order_one_hand_trace():
    # i=1: s=0.5    -> q=+1, w=-0.5
    # i=2: s=-0.5   -> q=-1, w=+0.5
    # i=3: s=0.25   -> q=+1, w=-0.75
    spec = build_quantizer(1)
    y = np.array([[0.5, 0.0, -0.25]])
    codes, states, _ = quantize_oracle(spec, y)
    assert codes.tolist() == [[1, -1, 1]]
    assert np.allclose(states, [[-0.5, 0.5, -0.75]], atol=1e-15)
    res = quantize_batch(spec, y)
    assert np.array_equal(res.codes, codes)
    assert not res.amplitude_violations.any()


def test_order_two_hand_trace():
    # taps (1, 7), weights (7/6, -1/6); early taps read zeros.
    spec = build_quantizer(2)
    y = np.array([[1.0, -1.0, 0.5]])
    codes, states, _ = quantize_oracle(spec, y)
    assert codes.tolist() == [[1, -1, 1]]
    assert np.allclose(states, [[0.0, 0.0, -0.5]], atol=1e-15)
    assert np.array_equal(quantize_batch(spec, y).codes, codes)


def test_sign_of_zero_is_plus_one():
    spec = build_quantizer(1)
    assert code_of(spec, np.zeros(3)).tolist() == [1, -1, 1]


def test_codes_are_signs_and_length_matches():
    spec = build_quantizer(2)
    rng = np.random.default_rng(12)
    y = rng.uniform(-0.9, 0.9, 257)
    code = code_of(spec, y)
    assert code.shape == (257,)
    assert set(np.unique(code)) <= {-1, 1}


def test_quantize_is_pure():
    spec = build_quantizer(3)
    ys = np.random.default_rng(4).uniform(-0.5, 0.5, (3, 200))
    before = ys.copy()
    a = quantize_batch(spec, ys)
    b = quantize_batch(spec, ys)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(ys, before)


def test_amplitude_violation_flag():
    spec = build_quantizer(1, mu=0.5)
    res = quantize_batch(spec, np.array([[0.4, -0.3], [0.4, -0.6], [0.5, -0.5]]))
    assert res.amplitude_violations.tolist() == [False, True, False]


def test_quantize_rejects_bad_input():
    spec = build_quantizer(1)
    with pytest.raises(ShapeError):
        quantize_batch(spec, np.zeros((2, 2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            quantize_batch(spec, np.array([[0.1, 0.2], [0.1, bad]]))


def test_empty_input_is_allowed():
    spec = build_quantizer(2)
    for k, m in ((1, 0), (0, 5), (0, 0)):
        res = quantize_batch(spec, np.zeros((k, m)))
        assert res.codes.shape == (k, m)
        assert res.amplitude_violations.tolist() == [False] * k


def test_batch_shape_errors():
    spec = build_quantizer(1)
    with pytest.raises(ShapeError):
        quantize_batch(spec, np.zeros(5))


# --------------------------------------------- difference identity


@pytest.mark.parametrize("r", [1, 2, 3])
def test_difference_identity(r):
    """r-fold differencing of the reconstructed state returns y - q."""
    spec = build_quantizer(r)
    rng = np.random.default_rng(900 + r)
    for m in (1, 7, 100, 4096):
        y = rng.uniform(-0.3, 0.3, m)
        code = code_of(spec, y)
        u = reconstruct_state(r, y, code)
        resid = np.max(np.abs(r_fold_difference(u, r) - (y - code)))
        assert resid <= 1e-9 * m


def test_reconstruct_order_one_is_running_sum():
    y = np.array([0.5, 0.0, -0.25])
    q = np.array([1.0, -1.0, 1.0])
    u = reconstruct_state(1, y, q)
    assert np.allclose(u, np.cumsum(y - q), atol=1e-15)


@pytest.mark.parametrize("shape", [(64,), (5, 64), (2, 3, 64)], ids=["1d", "2d", "3d"])
def test_reconstruct_any_shape_matches_rows(shape):
    """Every row of a 1-d, 2-d or 3-d input is reconstructed as on its own,
    and its r-fold difference gives back y - q."""
    rng = np.random.default_rng(31)
    ys = rng.uniform(-1, 1, size=shape)
    qs = np.where(rng.random(shape) < 0.5, -1, 1).astype(np.int8)
    for r in (1, 2, 3):
        us = reconstruct_state(r, ys, qs)
        assert us.shape == shape and us.dtype == np.float64
        for idx in np.ndindex(shape[:-1]):
            row = reconstruct_state(r, ys[idx], qs[idx])
            assert np.array_equal(us[idx], row)
            resid = r_fold_difference(row, r) - (ys[idx] - qs[idx])
            assert np.max(np.abs(resid)) <= 1e-9 * shape[-1]


def test_reconstruct_argument_errors():
    with pytest.raises(ParameterError):
        reconstruct_state(0, np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        reconstruct_state(1, np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeError):
        reconstruct_state(1, 0.5, 1.0)


def test_greedy_state_never_leaves_unit_interval():
    """Order 1 keeps |u| <= 1 for any input bounded by 1."""
    spec = build_quantizer(1)
    ys = np.random.default_rng(55).uniform(-1.0, 1.0, (20, 512))
    u = reconstruct_state(1, ys, quantize_batch(spec, ys).codes)
    assert np.max(np.abs(u)) <= 1.0 + 1e-12


# ------------------------------------------------------------ scan


def test_probe_input_is_bang_bang_and_prefix_stable():
    spec = build_quantizer(2)
    probe = extremal_probe_input(spec, 256, 0.3)
    assert set(np.unique(np.abs(probe))) == {0.3}
    longer = extremal_probe_input(spec, 512, 0.3)
    assert np.array_equal(longer[:256], probe)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_probe_choice_is_greedy(r):
    """At every step, flipping the chosen sign does not give a larger |u_i|
    under quantize_batch and reconstruct_state on the prefix, and on a tie
    the probe keeps +amplitude."""
    spec = build_quantizer(r)
    amp = 0.3
    probe = extremal_probe_input(spec, 64, amp)
    u = reconstruct_state(r, probe, code_of(spec, probe))
    for i in range(64):
        flipped = probe[: i + 1].copy()
        flipped[i] = -flipped[i]
        alt = reconstruct_state(r, flipped, code_of(spec, flipped))[i]
        assert abs(alt) <= abs(u[i])
        if abs(alt) == abs(u[i]):
            assert probe[i] == amp


def test_probe_argument_errors():
    spec = build_quantizer(1, mu=0.5)
    with pytest.raises(ParameterError):
        extremal_probe_input(spec, 16, 0.6)
    with pytest.raises(ParameterError):
        extremal_probe_input(spec, 16, 0.0)


def test_scan_trials_zero_gives_empty_table():
    spec = build_quantizer(1)
    assert stability_scan(spec, [8, 16], 0, 0.3, 0) == []


def test_scan_rejects_bad_arguments():
    spec = build_quantizer(1, mu=0.5)
    with pytest.raises(ParameterError):
        stability_scan(spec, [8], -1, 0.3, 0)
    with pytest.raises(ParameterError):
        stability_scan(spec, [8], 10, 0.9, 0)
    with pytest.raises(ParameterError):
        stability_scan(spec, [0], 10, 0.3, 0)


def test_scan_rows_and_determinism():
    spec = build_quantizer(2)
    rows = stability_scan(spec, [128, 256], 10, 0.3, 77)
    assert [m for m, _ in rows] == [128, 256]
    assert all(peak > 0.0 for _, peak in rows)
    assert rows == stability_scan(spec, [128, 256], 10, 0.3, 77)


def test_scan_peak_is_flat_across_lengths():
    spec = build_quantizer(2)
    rows = stability_scan(spec, [256, 1024, 4096], 20, 0.3, 5)
    peaks = [peak for _, peak in rows]
    assert max(peaks) <= 1.05 * peaks[0]


def test_scan_detects_an_unstable_filter():
    """Cramped tap spacing destroys boundedness and the scan sees it."""
    bad = build_quantizer(3, sigma=1, allow_unsafe_sigma=True)
    rows = stability_scan(bad, [256, 4096], 5, 0.3, 0)
    assert rows[1][1] > 100.0 * rows[0][1]
