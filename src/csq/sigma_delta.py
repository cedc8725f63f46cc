"""Stable one-bit noise-shaping quantization of arbitrary order.

The order-r scheme runs the recursion

    a_i = sum_j d_j * w[i - n_j]        (terms with i - n_j < 1 read as 0)
    q_i = sign(a_i + y_i)               (sign(0) = +1)
    w_i = a_i + y_i - q_i

where the tap positions are ``n_j = sigma * (j - 1)**2 + 1`` for
j = 1..r and the tap weights ``d_j`` interpolate so that the filter
``h = sum_j d_j shift(n_j)`` satisfies ``(1 - z)**r | (1 - h(z))`` as a
polynomial identity. With ``sigma >= 6`` the weights alternate mildly and
``||h||_1`` stays close to 1, which keeps the running state bounded by a
constant independent of the signal length whenever ``||y||_inf <= mu < 1``.

Order 1 degenerates to the greedy scheme ``u_i = u_{i-1} + y_i - q_i``,
whose state never leaves [-1, 1] for inputs bounded by 1.

The hidden state u with ``(forward difference)**r u = y - q`` is not the
filter state w; it is the r-fold running sum of y - q, recovered by
:func:`reconstruct_state`.

:func:`quantize_batch` runs the recursion for many vectors at once and is
the quantizer of the numpy embed path; the compiled kernels' quantizer
(``csq_quantize``, which also condenses and packs the codes in its loop)
does the same floating-point operations. The per-point loop that
keeps every filter state is ``quantize_oracle`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, ParameterError, ShapeError

# Largest order accepted. Building a spec is O(order**2) Python work, and
# no condensation with lambda_tilde >= 2 goes past it anyway, since
# lambda_tilde**r must stay below 2**62.
MAX_ORDER = 61

# Largest tap position (reach) accepted. The quantizers keep reach + 1
# filter states per point, which a model header must not make terabytes:
# the compiled path's per-worker ring is then at most 8 MiB. MAX_ORDER
# fits with sigma up to 18.
MAX_REACH = 2**16

# Largest (trials, m) float64 signal matrix a stability scan makes, in
# bytes: more than any host holds, and near the most NumPy can describe.
_MAX_SCAN_BYTES = 2**62


@dataclass(frozen=True)
class QuantizerSpec:
    """Frozen parameters of an order-r one-bit quantizer.

    ``positions``/``weights`` are the filter taps (n_j, d_j); ``mu`` is the
    amplitude below which the boundedness guarantee applies. Inputs louder
    than mu are still quantized but flagged.
    """

    order: int
    sigma: int
    mu: float
    positions: tuple[int, ...]
    weights: tuple[float, ...]

    @property
    def reach(self) -> int:
        """Largest tap position (how far back the recursion looks)."""
        return self.positions[-1]

    def filter_l1(self) -> float:
        return float(sum(abs(d) for d in self.weights))


def build_quantizer(
    order: int,
    sigma: int = 6,
    mu: float = 0.95,
    allow_unsafe_sigma: bool = False,
) -> QuantizerSpec:
    """Construct the order-r spec with taps at ``sigma * (j-1)**2 + 1``.

    The weights are the Lagrange-style products
    ``d_j = prod_{i != j} n_i / (n_i - n_j)`` and always sum to 1. Spacings
    below 6 void the boundedness guarantee and are refused unless
    ``allow_unsafe_sigma`` is set.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError(f"order must be an integer in [1, {MAX_ORDER}]")
    if sigma < 1:
        raise ParameterError("sigma must be a positive integer")
    if sigma < 6 and not allow_unsafe_sigma:
        raise ParameterError(
            "sigma below 6 voids the stability guarantee; "
            "pass allow_unsafe_sigma=True to override"
        )
    if not (0.0 < mu < 1.0):
        raise ParameterError("mu must lie in (0, 1)")
    reach = sigma * (order - 1) ** 2 + 1
    if reach > MAX_REACH:
        raise ParameterError(
            f"sigma {sigma} at order {order} reaches {reach} samples back, "
            f"above the limit {MAX_REACH}"
        )
    positions = tuple(sigma * (j - 1) ** 2 + 1 for j in range(1, order + 1))
    weights = []
    for j, nj in enumerate(positions):
        d = 1.0
        for i, ni in enumerate(positions):
            if i != j:
                d *= ni / (ni - nj)
        weights.append(d)
    total = sum(weights)
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ParameterError(f"tap weights sum to {total!r}, expected 1")
    return QuantizerSpec(
        order=order,
        sigma=sigma,
        mu=mu,
        positions=positions,
        weights=tuple(weights),
    )


@dataclass
class BatchQuantizationResult:
    """Codes of k vectors and their loudness flags.

    ``codes`` is (k, m) int8, the ``.T`` view of a C-ordered (m, k) array.
    """

    codes: np.ndarray
    amplitude_violations: np.ndarray


def quantize_batch(spec: QuantizerSpec, ys: np.ndarray) -> BatchQuantizationResult:
    """Quantize k vectors of common length m (rows of ``ys``) in lockstep.

    Step i handles sample i of every vector at once, reading ``ys.T`` as a
    C-ordered (m, k) array (no copy when ``ys`` is the ``.T`` view of one).
    Only the last ``reach + 1`` filter states are kept, in a ring of rows.
    Each sample is the recursion of the module docstring: the tap products
    are added in tap order, then y, and ``sign(0)`` is +1.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2:
        raise ShapeError("quantize_batch expects a (k, m) array")
    k, m = ys.shape
    violations = np.zeros(k, dtype=bool)
    if m:
        # max |y| is max(max y, -min y); NaN propagates through both.
        peaks = np.maximum(ys.max(axis=1), -ys.min(axis=1))
        if not np.all(np.isfinite(peaks)):
            raise InputError("input must be finite")
        violations = peaks > spec.mu
    yt = np.ascontiguousarray(ys.T)
    ring_len = spec.reach + 1
    ring = np.zeros((ring_len, k), dtype=np.float64)
    up = np.empty((m, k), dtype=bool)
    term = np.empty(k, dtype=np.float64)
    q = np.empty(k, dtype=np.float64)
    (n1, d1), *taps = zip(spec.positions, spec.weights)
    for i in range(m):
        # s starts from the first tap's product rather than 0.0 + product;
        # that can only change the sign of a zero, which neither the
        # comparison nor the state s - q can see.
        s = np.multiply(ring[(i - n1) % ring_len], d1, out=ring[i % ring_len])
        for nj, d in taps:
            s += np.multiply(ring[(i - nj) % ring_len], d, out=term)
        s += yt[i]
        np.greater_equal(s, 0.0, out=up[i])
        np.multiply(up[i], 2.0, out=q)
        q -= 1.0
        s -= q
    codes = up.view(np.int8)
    codes *= 2
    codes -= 1
    return BatchQuantizationResult(codes=codes.T, amplitude_violations=violations)


def reconstruct_state(r: int, ys: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Recover the state u with r-fold forward difference equal to y - q.

    ``(1 - z)**r u = y - q`` with zero initial conditions makes u the r-fold
    running sum of ``y - q`` along the last axis, so any shape with at least
    one axis works: one vector, a (k, m) batch, or more.
    """
    if r < 1:
        raise ParameterError("r must be a positive integer")
    ys, qs = np.asarray(ys), np.asarray(qs)
    if ys.shape != qs.shape or ys.ndim < 1:
        raise ShapeError("y and q must be arrays of equal shape with an axis")
    u = np.subtract(ys, qs, dtype=np.float64)
    for _ in range(r):
        np.cumsum(u, axis=-1, out=u)
    return u


def seed_sequence(entropy) -> np.random.SeedSequence:
    """``np.random.SeedSequence(entropy)``, with a seed it rejects (a
    negative or non-integer one) refused as a :class:`ParameterError`."""
    try:
        return np.random.SeedSequence(entropy)
    except (TypeError, ValueError) as exc:
        raise ParameterError(
            f"seeds must be non-negative integers, got {entropy!r}"
        ) from exc


def extremal_probe_input(spec: QuantizerSpec, m: int, amplitude: float) -> np.ndarray:
    """Adversarial input in {-amplitude, +amplitude} that inflates the state.

    Greedy bang-bang control: at every step pick the sign that maximizes the
    magnitude of the resulting reconstructed state u_i (ties go to
    +amplitude). The r running sums of ``y - q`` are carried in the order
    :func:`reconstruct_state` adds them, so the choice sees exactly the u it
    reports. The choice at step i depends only on the past, so the length-m
    probe is a prefix of every longer probe; once the induced |u| plateaus,
    its maximum is exactly independent of m. Stability scans use this as a
    worst-case trial because a maximum taken over ordinary random inputs
    keeps creeping upward with sample count, which muddies the question
    actually being asked (does the state bound depend on the signal length?).
    """
    if m < 0:
        raise ParameterError("m must be nonnegative")
    if not (0.0 < amplitude <= spec.mu):
        raise ParameterError("amplitude must lie in (0, mu]")
    pad = spec.reach
    offsets = [pad - nj for nj in spec.positions]
    weights = spec.weights
    w = np.zeros(pad + m, dtype=np.float64)
    sums = [0.0] * spec.order
    y = np.empty(m, dtype=np.float64)
    for i in range(m):
        a = 0.0
        for off, d in zip(offsets, weights):
            a += d * w[off + i]
        best = None
        for cand in (amplitude, -amplitude):
            s = a + cand
            q = 1.0 if s >= 0.0 else -1.0
            acc = cand - q
            trial = []
            for prev in sums:
                acc = prev + acc
                trial.append(acc)
            if best is None or abs(acc) > abs(best[0][-1]):
                best = (trial, cand, s - q)
        sums, y[i], w[pad + i] = best
    return y


def stability_scan(
    spec: QuantizerSpec,
    m_list: list[int],
    trials: int,
    amplitude: float,
    seed: int,
) -> list[tuple[int, float]]:
    """Max reconstructed-state magnitude per signal length.

    For each m in ``m_list`` quantizes ``trials`` inputs bounded by
    ``amplitude`` and reports ``(m, max ||u||_inf)``. A flat profile across
    m is the practical signature of stability.

    Trial 0 is the deterministic bang-bang probe of
    :func:`extremal_probe_input`; the remaining trials hold random constant
    levels, drawn once per scan and reused at every m. Constant (DC) levels
    are the classical stress input for feedback quantizers, and reusing them
    across lengths means a longer signal can only re-trace the same orbit,
    so any growth the scan reports is growth in the state bound itself
    rather than an artifact of looking at more random samples. An unstable
    scheme still diverges under both kinds of input.
    """
    if trials < 0:
        raise ParameterError("trials must be nonnegative")
    if not (0.0 < amplitude <= spec.mu):
        raise ParameterError("amplitude must lie in (0, mu]")
    seeds = seed_sequence([seed, spec.order])
    if trials == 0:
        return []
    for m in m_list:
        if m < 1:
            raise ParameterError("every m must be positive")
        if 8 * trials * m > _MAX_SCAN_BYTES:
            raise CapacityError(
                f"Unable to allocate {trials} trial signals of {m} float64 "
                f"samples: {8 * trials * m} bytes"
            )
    rng = np.random.default_rng(seeds)
    levels = rng.uniform(-amplitude, amplitude, size=trials - 1)
    rows = []
    for m in m_list:
        ys = np.empty((trials, m), dtype=np.float64)
        ys[0] = extremal_probe_input(spec, m, amplitude)
        ys[1:] = levels[:, None]
        res = quantize_batch(spec, ys)
        us = reconstruct_state(spec.order, ys, res.codes)
        rows.append((m, float(np.max(np.abs(us)))))
    return rows
