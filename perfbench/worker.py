"""Benchmark worker: a process that runs only the program.

Started by ``run.py`` with ``PYTHONPATH=src`` and BLAS/OpenMP threads
capped, it sets up one workload, runs its operations in a closed loop (one
client; the next operation starts when the previous one returns) and
writes what it measured and what the program produced to the run's work
directory. The harness checks those outputs after the worker has exited,
so neither the inputs nor the checks count in this process's peak RSS.

    PYTHONPATH=src python3 perfbench/worker.py CONFIG.json
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

import csq
import csq.cli as cli

import adapter
from spans import Tracer, layer_metrics
from workloads import (
    BATCH, LAMBDA_TILDE, MIXED_MAPE_OPS, MODEL_SEED, POOL_BATCHES, P, WORKLOADS,
)

# Set-up program calls are repeated this many times and the median is
# reported, so one slow repetition does not move setup_s.
SETUP_REPEATS = 3
# A worker still busy after this long starts no more operations, so a
# whole run stays well inside three minutes.
HARD_STOP_S = 120.0


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _embed_args(w, work: Path, stem: str) -> list[str]:
    return [
        "embed", "--input", str(work / "base.csqv"), "--method", w.method,
        "--p", str(P), "--lambda-tilde", str(LAMBDA_TILDE), "--r", str(w.r),
        "--seed", str(MODEL_SEED),
        "--out-model", str(work / f"{stem}.csqm"),
        "--out-codes", str(work / f"{stem}.csqc"),
        "--out-condensed", str(work / f"{stem}.csqd"),
    ]


class Runner:
    """One workload: set-up calls, the timed operation and what it records.

    ``prepare`` runs outside the timed region and ``op`` inside it. An
    operation that returns a nonzero exit code or raises has failed.
    """

    SETUP_FILES = ("setup.csqm", "setup.csqc", "setup.csqd")

    def __init__(self, w, work: Path):
        self.w, self.work = w, work

    def setup(self) -> None:
        if cli.main(_embed_args(self.w, self.work, "setup")) != 0:
            raise RuntimeError("set-up embed failed")

    def prepare(self, i):
        return None

    def op(self, i, prepared):
        raise NotImplementedError

    def record(self, i, out) -> dict:
        raise NotImplementedError

    def save(self, path: Path) -> None:
        """Write what the checks need beyond the output digests, if anything."""


class BulkEmbed(Runner):
    """embed-bulk-fjlt: each operation is one ``csq embed`` job; no set-up."""

    SETUP_FILES = ()
    OUTPUTS = ("job.csqm", "job.csqc", "job.csqd")

    def __init__(self, w, work):
        super().__init__(w, work)
        self.job = _embed_args(w, work, "job")

    def setup(self):
        pass

    def op(self, i, prepared):
        return cli.main(self.job)

    def record(self, i, out):
        return {name: _digest(self.work / name) for name in self.OUTPUTS}


class QueryAllPairs(Runner):
    """query-allpairs: set-up embeds the base; each operation is one query."""

    def __init__(self, w, work):
        super().__init__(w, work)
        self.query = [
            "query", "--model", str(work / "setup.csqm"),
            "--condensed", str(work / "setup.csqd"),
            "--all-pairs", "--out", str(work / "pairs.csv"),
        ]

    def op(self, i, prepared):
        return cli.main(self.query)

    def record(self, i, out):
        return {"pairs.csv": _digest(self.work / "pairs.csv")}


class MixedSmallBatch(Runner):
    """mixed-small-batch: set-up embeds and reads the base; each operation
    embeds 8 new points and estimates their distances to every base point."""

    def __init__(self, w, work):
        super().__init__(w, work)
        self.batch_values = BATCH * w.n
        self.entries, self.bits, self.kept = [], [], []

    def setup(self):
        super().setup()
        self.model, self.base = adapter.load_base(
            str(self.work / "setup.csqm"), str(self.work / "setup.csqd")
        )

    def prepare(self, i):
        # A file read, not a memory map, so the pool of new points never
        # becomes part of this process's resident set.
        return np.fromfile(
            self.work / "pool.f8", dtype="<f8", count=self.batch_values,
            offset=(i % POOL_BATCHES) * self.batch_values * 8,
        ).reshape(BATCH, -1)

    def op(self, i, rows):
        embedded = adapter.embed_batch(self.model, rows)
        return embedded, adapter.one_vs_all(self.model, embedded, self.base)

    def record(self, i, out):
        embedded, estimates = out
        entries, bits = adapter.batch_outputs(embedded)
        self.entries.append(entries)
        self.bits.append(bits)
        if i < MIXED_MAPE_OPS:
            self.kept.append(estimates)
        return {"estimates": hashlib.sha256(estimates.tobytes()).hexdigest()}

    def save(self, path: Path) -> None:
        np.savez(
            path, entries=np.stack(self.entries), bits=np.stack(self.bits),
            kept=np.stack(self.kept),
        )


RUNNERS = {
    "embed-bulk-fjlt": BulkEmbed,
    "query-allpairs": QueryAllPairs,
    "mixed-small-batch": MixedSmallBatch,
}


def run_op(runner: Runner, i: int, phase: str, tracer: Tracer | None = None) -> dict:
    """Run operation i; returns its record (time, outcome, output digests)."""
    prepared = runner.prepare(i)
    call = lambda: runner.op(i, prepared)  # noqa: E731
    rec = {"i": i, "phase": phase, "ok": False}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(i, call) if tracer else call()
        except Exception as exc:
            out = None
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
    rec["wellspread_warnings"] = sum("well spread" in str(w.message) for w in caught)
    if isinstance(out, int) and out != 0:
        rec["error"] = f"exit code {out}"
    elif out is not None:
        rec["ok"] = True
        rec["outputs"] = runner.record(i, out)
    return rec


def run_loop(runner, phase, start, seconds, min_ops, first, tracer=None) -> list[dict]:
    """Closed loop: operations back to back for ``seconds`` and ``min_ops``."""
    ops = []
    t0 = time.perf_counter()
    while (
        time.perf_counter() - t0 < seconds or len(ops) < min_ops
    ) and time.perf_counter() - start < HARD_STOP_S:
        ops.append(run_op(runner, first + len(ops), phase, tracer))
    return ops


def probe_embed_peak(runner: Runner, i: int) -> tuple[dict, float]:
    """Run operation i with tracemalloc on inside each embed_dataset call;
    returns its record and the largest peak of those calls in MiB."""
    pipeline = sys.modules["csq.pipeline"]
    original = pipeline.embed_dataset
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    pipeline.embed_dataset = measured
    try:
        rec = run_op(runner, i, "probe")
    finally:
        pipeline.embed_dataset = original
    return rec, max(peaks, default=0) / 2**20


def main(config_path: str) -> int:
    start = time.perf_counter()
    cfg = json.loads(Path(config_path).read_text())
    src = (Path.cwd() / "src").resolve()
    if src not in Path(csq.__file__).resolve().parents:
        raise RuntimeError(f"csq was imported from {csq.__file__}, not {src}")

    w = WORKLOADS[cfg["workload"]]
    work = Path(cfg["workdir"])
    runner = RUNNERS[w.name](w, work)

    result = {"setup_s": [], "setup_outputs": []}
    for _ in range(SETUP_REPEATS):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            runner.setup()
            result["setup_s"].append(time.perf_counter() - t0)
        result["setup_outputs"].append(
            {name: _digest(work / name) for name in runner.SETUP_FILES}
        )

    seconds = cfg["seconds"]
    if not cfg["trace"]:
        ops = run_loop(runner, "timed", start, seconds, w.min_ops, 0)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Half the time untraced, one operation under tracemalloc, half
        # traced: the gap between the halves is the tracing overhead. The
        # untraced half makes the operations the accuracy check reads.
        min_ops = min(w.min_ops, MIXED_MAPE_OPS)
        ops = run_loop(runner, "timed", start, seconds / 2, min_ops, 0)
        probe, result["embed_peak_mb"] = probe_embed_peak(runner, len(ops))
        ops.append(probe)
        tracer = Tracer()
        tracer.install()
        traced = run_loop(runner, "traced", start, seconds / 2, 1, len(ops), tracer)
        ops += traced
        result["layers"] = layer_metrics(tracer.records, len(traced))
        Path(cfg["trace_out"]).write_text(json.dumps(tracer.records))
    result["ops"] = ops
    runner.save(work / "outputs.npz")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
