"""Benchmark harness: synthetic data, MAPE curves and stability scans.

The MAPE grid mirrors the usual accuracy experiment: draw k synthetic
points, embed them at every (r, p, m) cell, estimate all pairwise
distances from the condensed codes and report the mean absolute percentage
error against the true Euclidean distances, averaged over independent
trials. An unquantized reference row (tagged r=0) runs the same projection
and condensation on the raw real projections, which isolates the
quantization contribution from the dimension-reduction floor.

Cell streams are derived from (seed, r, p, m, trial), so cells can run in
any order or in parallel without changing results. The data stream for a
cell deliberately ignores r: cells that differ only in r see the same
points, which makes cross-r comparisons paired rather than independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .condense import condense_real_batch, pairwise_l1_blocks
from .errors import DegenerateInputError, ParameterError
from .pipeline import Dataset, build_model, embed_dataset, scale_dataset
from .sigma_delta import build_quantizer, stability_scan

GENERATORS = ("signflat", "gaussian")

# Stream tags keep the data draw distinct from the model draw at equal
# (seed, r, p, m, trial) coordinates.
_DATA_TAG = 1
_MODEL_TAG = 2


def synth_wellspread(n: int, k: int, generator: str, seed) -> Dataset:
    """Draw k spread-out points in the l2 unit ball, one stream per point.

    ``signflat`` points have coordinates ``+-rho / sqrt(n)`` with a
    per-point radius rho uniform in (0, 1], so ``||x||_inf * sqrt(n)``
    equals ``||x||_2`` exactly. ``gaussian`` points are normalized i.i.d.
    normal draws, well spread only up to the usual log factor. ``seed`` may
    be an int or a sequence of ints.
    """
    if n < 1 or k < 1:
        raise ParameterError("n and k must be positive")
    if generator not in GENERATORS:
        raise ParameterError(f"generator must be one of {GENERATORS}")
    children = np.random.SeedSequence(seed).spawn(k)
    vectors = np.empty((k, n), dtype=np.float64)
    scale = 1.0 / math.sqrt(n)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        if generator == "signflat":
            signs = rng.integers(0, 2, size=n) * 2 - 1
            radius = 1.0 - rng.random()
            vectors[i] = signs * (radius * scale)
        else:
            g = rng.standard_normal(n)
            norm = np.linalg.norm(g)
            vectors[i] = g / norm
    return Dataset(vectors)


def mape(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean absolute percentage error; pairs with zero truth are skipped."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if estimates.shape != truths.shape:
        raise ParameterError("estimates and truths must have equal shape")
    mask = truths > 0.0
    if not mask.any():
        raise DegenerateInputError("no pair has positive true distance")
    return float(np.mean(np.abs(estimates[mask] - truths[mask]) / truths[mask]))


def pairwise_l2(vectors: np.ndarray) -> np.ndarray:
    """Condensed pairwise Euclidean distances in (i, j), i < j order."""
    k = vectors.shape[0]
    out = []
    for i in range(k):
        diff = vectors[i + 1 :] - vectors[i]
        out.append(np.linalg.norm(diff, axis=1))
    return np.concatenate(out) if out else np.zeros(0)


@dataclass
class BenchConfig:
    """Grid description for :func:`run_mape_bench`."""

    n: int
    k: int
    p_list: list[int]
    m_list: list[int]
    r_list: list[int]
    trials: int
    seed: int
    generator: str = "signflat"
    sigma: int = 6
    mu: float = 0.95

    def validate(self) -> None:
        if self.n < 1:
            raise ParameterError("n must be positive")
        if self.k < 2:
            raise ParameterError("k must be at least 2")
        if self.trials < 1:
            raise ParameterError("trials must be positive")
        if self.generator not in GENERATORS:
            raise ParameterError(f"generator must be one of {GENERATORS}")
        if not self.p_list or not self.m_list or not self.r_list:
            raise ParameterError("p, m and r lists must be nonempty")
        if any(p < 1 for p in self.p_list):
            raise ParameterError("every p must be positive")
        if any(r < 1 for r in self.r_list):
            raise ParameterError("every r must be at least 1")
        for p in self.p_list:
            for m in self.m_list:
                if m < p or m % p != 0:
                    raise ParameterError(
                        f"m={m} is not a positive multiple of p={p}"
                    )


def nearest_lambda_tilde(lam_target: int, r: int) -> int:
    """Smallest lambda_tilde whose block length r*lt - r + 1 >= lam_target."""
    if lam_target < 1 or r < 1:
        raise ParameterError("lam_target and r must be positive")
    return (lam_target + r - 2) // r + 1


@dataclass
class BenchCell:
    m_requested: int
    p: int
    r: int
    m_actual: int
    mape: float
    wall_ms: float
    amplitude_violation_fraction: float = 0.0
    trial_scores: tuple[float, ...] = ()


def _cell_data(cfg: BenchConfig, p: int, m: int, trial: int) -> Dataset:
    raw = synth_wellspread(
        cfg.n, cfg.k, cfg.generator, [cfg.seed, p, m, trial, _DATA_TAG]
    )
    return scale_dataset(raw.vectors, 1.0)


def _cell(cfg: BenchConfig, r: int, p: int, m: int) -> BenchCell:
    """One grid cell of order r, or for r = 0 the unquantized reference: an
    order-1 model with ``lambda_tilde = m // p`` whose real projections are
    condensed directly."""
    start = time.perf_counter()
    lambda_tilde = m // p if r == 0 else nearest_lambda_tilde(m // p, r)
    scores = []
    violations = []
    for trial in range(cfg.trials):
        data = _cell_data(cfg, p, m, trial)
        model = build_model(
            "sparse",
            cfg.n,
            p,
            lambda_tilde,
            max(r, 1),
            sigma=cfg.sigma,
            mu=cfg.mu,
            seed=[cfg.seed, r, p, m, trial, _MODEL_TAG],
        )
        if r == 0:
            projections = model.operator.apply(data.vectors)
            sketches = condense_real_batch(model.condensation, projections)
            blocks = pairwise_l1_blocks(sketches)
            estimates = np.concatenate([sums for _, _, sums in blocks])
        else:
            result = embed_dataset(model, data)
            blocks = pairwise_l1_blocks(result.condensed.entries)
            l1 = np.concatenate([sums for _, _, sums in blocks])
            estimates = l1 * model.condensation.norm_factor
            violations.append(result.diagnostics.amplitude_violations.mean())
        truths = pairwise_l2(data.vectors)
        scores.append(mape(estimates, truths))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return BenchCell(
        m_requested=m,
        p=p,
        r=r,
        m_actual=model.m,
        mape=float(np.mean(scores)),
        wall_ms=wall_ms,
        amplitude_violation_fraction=float(np.mean(violations)) if r else 0.0,
        trial_scores=tuple(scores),
    )


def run_mape_bench(cfg: BenchConfig) -> list[BenchCell]:
    """Run the full grid; returns one row per (r, p, m) plus r=0 references.

    Rows carry the requested m (the grid key). When r does not divide the
    requested oversampling ratio exactly, the nearest feasible block shape
    is used and recorded in ``m_actual``.
    """
    cfg.validate()
    orders = sorted(set(cfg.r_list)) + [0]
    return [_cell(cfg, r, p, m) for r in orders for p in cfg.p_list for m in cfg.m_list]


def curve_rows(cells: list[BenchCell]) -> list[tuple]:
    return [(c.m_requested, c.p, c.r, c.mape, c.wall_ms) for c in cells]


def best_p_per_m(cells: list[BenchCell]) -> list[tuple[int, int, int]]:
    """For each (r, m) with several p, the p with the lowest error."""
    groups: dict[tuple[int, int], BenchCell] = {}
    for cell in cells:
        key = (cell.r, cell.m_requested)
        if key not in groups or cell.mape < groups[key].mape:
            groups[key] = cell
    return sorted((r, m, cell.p) for (r, m), cell in groups.items())


def run_stability_bench(
    r_list: list[int],
    sigma: int,
    amplitude: float,
    m_list: list[int],
    trials: int,
    seed: int,
    mu: float = 0.95,
) -> list[tuple[int, int, float]]:
    """Stability scan rows (r, m, max reconstructed ||u||_inf)."""
    rows = []
    for r in r_list:
        spec = build_quantizer(r, sigma=sigma, mu=mu)
        for m, peak in stability_scan(spec, m_list, trials, amplitude, seed):
            rows.append((r, m, peak))
    return rows


STABILITY_HEADER = ["r", "m", "max_u_inf"]


def write_stability_csv(path, rows: list[tuple[int, int, float]]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STABILITY_HEADER)
        for r, m, peak in rows:
            writer.writerow([r, m, repr(float(peak))])
