"""Workload definitions and their input generation.

Inputs are Gaussian rows scaled, as the README recommends, so that the
largest row norm equals the quantizer's ball radius ``kappa_bound(mu,
ln 2, m)``. Generation runs in the harness process, never in the worker
that runs the program, so the benchmark's own arrays do not set the
worker's peak RSS.

Every workload uses p=64 and lambda_tilde=16, the README's setup; the
quantizer order fixes the code length ``m = p * (r * 16 - r + 1)``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

P = 64
LAMBDA_TILDE = 16
MU = 0.95
# The model (projection and diagonal seeds) is part of the workload, fixed
# like a deployed model; --seed draws the data. Letting the model vary too
# doubles the run-to-run spread of distance_mape.
MODEL_SEED = 7
# Row count of one mixed-small-batch operation and the number of distinct
# batches generated; the worker cycles through them.
BATCH = 8
POOL_BATCHES = 512
# Pairs of embed-bulk-fjlt whose estimates are compared with the true
# distances; query-allpairs compares all its pairs.
MAPE_PAIRS = 20000
# mixed-small-batch measures accuracy on the first this-many operations,
# so the pair sample does not depend on how many operations a run made.
MIXED_MAPE_OPS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    r: int
    n: int
    k: int
    # Items one timed operation completes (points embedded or pairs
    # estimated), the numerator of items_per_s.
    items_per_op: int
    item: str
    # Fewest timed operations in an untraced run; the run goes on past
    # --seconds until it has them.
    min_ops: int

    @property
    def m(self) -> int:
        return P * (self.r * LAMBDA_TILDE - self.r + 1)

    @property
    def kappa(self) -> float:
        # csq.kappa_bound(MU, ln 2, m): the radius under which projections
        # stay inside the quantizer budget with probability >= 1/2.
        return MU / (2.0 * math.sqrt(math.log(2.0) + math.log(2.0 * self.m)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embed-bulk-fjlt",
            why="back-to-back csq embed jobs: FWHT, projection, quantizer "
            "and store writes under per-point load, no queries",
            method="fjlt", r=2, n=1000, k=4000,
            items_per_op=4000, item="embed_points", min_ops=3,
        ),
        Workload(
            name="query-allpairs",
            why="csq query --all-pairs over 1000 sketches: per-pair estimate "
            "loop, sketch unpacking and CSV output, no embed work timed",
            method="sparse", r=2, n=1000, k=1000,
            items_per_op=1000 * 999 // 2, item="query_pairs", min_ops=3,
        ),
        Workload(
            name="mixed-small-batch",
            why="embed 8 new points and query them against 2000 stored "
            "sketches: per-call fixed costs dominate, not per-point work",
            method="sparse", r=3, n=1000, k=2000,
            items_per_op=BATCH, item="embed_points", min_ops=100,
        ),
    )
}


def write_csqv(path: Path, rows: np.ndarray) -> None:
    """Write rows in the CSQV layout (magic, u32 version, u64 k, u64 n, f64)."""
    with open(path, "wb") as fh:
        fh.write(b"CSQV")
        fh.write(struct.pack("<IQQ", 1, rows.shape[0], rows.shape[1]))
        fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())


@dataclass
class Inputs:
    """What the harness keeps to check outputs: the scaled rows, the new
    points of mixed-small-batch and the pair sample of embed-bulk-fjlt."""

    base: np.ndarray
    pool: np.ndarray | None
    pairs: np.ndarray | None


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Draw the workload's inputs from ``seed`` and write them to ``workdir``.

    ``base.csqv`` holds the k rows every workload embeds (per job for
    embed-bulk-fjlt, once in set-up otherwise); mixed-small-batch adds
    ``pool.f8``, the (POOL_BATCHES, BATCH, n) little-endian float64 new
    points of its operations.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    base = rng.standard_normal((w.k, w.n))
    pool = None
    if w.name == "mixed-small-batch":
        pool = rng.standard_normal((POOL_BATCHES, BATCH, w.n))
    # One multiplier for every row, so stored and new points share units.
    peak = np.linalg.norm(base, axis=1).max()
    if pool is not None:
        peak = max(peak, np.linalg.norm(pool, axis=2).max())
    scale = w.kappa / peak
    base *= scale
    write_csqv(workdir / "base.csqv", base)
    pairs = None
    if pool is not None:
        pool *= scale
        pool.astype("<f8").tofile(workdir / "pool.f8")
    if w.name == "embed-bulk-fjlt":
        i = rng.integers(0, w.k, size=MAPE_PAIRS)
        j = rng.integers(0, w.k - 1, size=MAPE_PAIRS)
        pairs = np.stack([i, j + (j >= i)], axis=1)
    return Inputs(base=base, pool=pool, pairs=pairs)
