"""End-to-end and per-layer benchmark of csq.

Run from the repository root:

    python3 perfbench/run.py --workload embed-bulk-fjlt --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py for sizes and BENCHMARK.json for why each):
``embed-bulk-fjlt`` runs ``csq embed`` jobs back to back, ``query-allpairs``
runs ``csq query --all-pairs`` back to back and ``mixed-small-batch``
embeds 8 new points and queries them against 2000 stored sketches per
operation through the library. Each is a closed loop with one client.
BENCHMARK.json declares the first two; see README.md for why.

The harness draws the inputs from ``--seed``, then starts a worker process
that runs only the program (BLAS/OpenMP threads capped at the CPU count),
then checks every output against independent recomputations. It prints
each metric with its unit, the environment, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the worker runs half the time untraced and half with every layer's public
functions wrapped (spans.py); the metrics are the per-layer ones, means
per traced operation, plus the tracing overhead. Counts marked "computed"
are derived from shapes and file sizes, not timed, and repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import check
from workloads import LAMBDA_TILDE, MIXED_MAPE_OPS, P, POOL_BATCHES, WORKLOADS, make_inputs

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# setup_s counts the median time to import csq.cli in a fresh process,
# measured this many times before the worker runs and as many after, so
# the samples come from two moments half a minute apart.
IMPORT_PROBES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import csq.cli; "
    "print(repr(time.perf_counter() - t))"
)
# The worker must have finished by then, so a whole run ends inside 180 s.
DEADLINE_S = 170.0

COMPUTED = {"fwht_flops", "project_flops", "project_bytes", "state_bytes",
            "bytes_read", "bytes_written"}


def worker_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.update({var: str(nproc) for var in THREAD_VARS})
    return env


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args, nproc: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "csq").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads": {var: nproc for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Checks:
    """Run-level checks: how many were made and which failed."""

    def __init__(self):
        self.made = 0
        self.failures: list[str] = []

    def add(self, failures: list[str]) -> None:
        self.made += 1
        self.failures += failures


def check_outputs(w, inputs, work: Path, result: dict) -> tuple[set[int], Checks, float]:
    """Check every operation's outputs and the run's files.

    Returns the operations that failed, the run-level checks and the
    distance MAPE.
    """
    ops = result["ops"]
    failed_ops = {op["i"] for op in ops if not op["ok"]}
    checks = Checks()

    def same_as_final(final: dict) -> None:
        for op in ops:
            if op["ok"] and op["outputs"] != final:
                failed_ops.add(op["i"])

    if w.name == "embed-bulk-fjlt":
        names = ("job.csqm", "job.csqc", "job.csqd")
        same_as_final({n: hashlib.sha256((work / n).read_bytes()).hexdigest() for n in names})
        files = (work / "job.csqc", work / "job.csqd")
    else:
        outs = result["setup_outputs"]
        checks.add(["set-up embeds made different files"] if outs.count(outs[0]) != len(outs) else [])
        files = (work / "setup.csqc", work / "setup.csqd")
    failures, sk = check.check_sketch_files(*files, w.r, LAMBDA_TILDE, P, w.k)
    checks.add(failures)
    if sk is None:
        return failed_ops, checks, float("nan")

    if w.name == "embed-bulk-fjlt":
        est = check.pair_estimates(sk.entries, inputs.pairs, sk.norm_factor)
        a, b = inputs.base[inputs.pairs[:, 0]], inputs.base[inputs.pairs[:, 1]]
        true = np.linalg.norm(a - b, axis=1)
    elif w.name == "query-allpairs":
        csv = work / "pairs.csv"
        same_as_final({"pairs.csv": hashlib.sha256(csv.read_bytes()).hexdigest()})
        failures, est = check.check_pairs_csv(csv, sk)
        checks.add(failures)
        if est is None:
            return failed_ops, checks, float("nan")
        true = check.true_distances(inputs.base, inputs.base)[np.triu_indices(w.k, 1)]
    else:
        est, true = check_mixed(w, inputs, work, ops, sk, failed_ops)

    distance_mape = check.mape(est, true) if est.size else float("nan")
    checks.add(
        [] if distance_mape <= check.MAPE_BOUND
        else [f"distance MAPE {distance_mape:.4f} is not within {check.MAPE_BOUND}"]
    )
    return failed_ops, checks, distance_mape


def check_mixed(w, inputs, work, ops, sk, failed_ops):
    """Each batch's sketches are its condensed codes and each estimate the
    exact l1 sum times norm_factor; accuracy on the first operations."""
    saved = np.load(work / "outputs.npz")
    ok_ops = [op for op in ops if op["ok"]]
    for op, entries, bits in zip(ok_ops, saved["entries"], saved["bits"]):
        signs = check.signs_from_bits(bits, w.m)
        expected = check.estimates(entries, sk.entries, sk.norm_factor)
        digest = hashlib.sha256(expected.tobytes()).hexdigest()
        if not (
            np.array_equal(check.condense(signs, w.r, LAMBDA_TILDE, P), entries)
            and op["outputs"]["estimates"] == digest
        ):
            failed_ops.add(op["i"])
    first = [op["i"] for op in ok_ops if op["i"] < MIXED_MAPE_OPS]
    if first != list(range(MIXED_MAPE_OPS)):
        # An empty sample leaves the MAPE undefined, which fails its check.
        return np.zeros(0), np.zeros(0)
    rows = inputs.pool[np.array(first) % POOL_BATCHES].reshape(-1, w.n)
    return saved["kept"].reshape(-1), check.true_distances(rows, inputs.base).reshape(-1)


def timed_seconds(result: dict) -> np.ndarray:
    return np.array([op["seconds"] for op in result["ops"] if op["phase"] == "timed"])


def end_to_end(w, result: dict, import_s: float, distance_mape: float) -> dict:
    seconds = timed_seconds(result)
    return {
        "setup_s": import_s + statistics.median(result["setup_s"]),
        "items_per_s": w.items_per_op * seconds.size / seconds.sum(),
        "peak_rss_mb": result["peak_rss_mb"],
        "distance_mape": distance_mape,
    }


def latency_ms(result: dict) -> dict:
    """Median and 90th percentile of operation latency. Printed but not
    declared in BENCHMARK.json: on a host whose speed switches between two
    levels for seconds to minutes at a time, each lands on either level,
    and their run-to-run spread exceeded every bound a metric may have."""
    seconds = timed_seconds(result)
    return {q: 1000.0 * float(np.percentile(seconds, q)) for q in (50, 90)}


def per_layer(result: dict) -> dict:
    ops = result["ops"]
    traced = [op for op in ops if op["phase"] == "traced"]
    timed = [op for op in ops if op["phase"] == "timed"]
    traced_ms = 1000.0 * statistics.fmean(op["seconds"] for op in traced)
    untraced_ms = 1000.0 * statistics.fmean(op["seconds"] for op in timed)
    out = dict(result["layers"])
    out["pipeline.embed_peak_mb"] = result["embed_peak_mb"]
    out["pipeline.wellspread_warnings"] = statistics.fmean(
        op["wellspread_warnings"] for op in traced
    )
    out["trace.ops"] = len(traced)
    out["trace.op_ms"] = traced_ms
    out["trace.untraced_op_ms"] = untraced_ms
    out["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    out["trace.unattributed_ms"] = traced_ms - out["trace.self_sum_ms"]
    return out


def import_seconds(env: dict) -> float:
    return float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout)


def run_worker(cfg: dict, work: Path, env: dict, started: float) -> dict:
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(path)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((work / "result.json").read_text())


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "csq" / "__init__.py").is_file():
        print(f"error: no csq sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    trace_out = WORK_ROOT / f"trace-{w.name}.json"
    try:
        inputs = make_inputs(w, args.seed, work)
        probes = [import_seconds(env) for _ in range(IMPORT_PROBES)]
        cfg = {
            "workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workdir": str(work), "trace_out": str(trace_out),
        }
        result = run_worker(cfg, work, env, started)
        probes += [import_seconds(env) for _ in range(IMPORT_PROBES)]
        failed_ops, checks, distance_mape = check_outputs(w, inputs, work, result)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    attempted = len(ops) + checks.made
    failed = len(failed_ops) + len(checks.failures)
    for failure in checks.failures:
        print(f"check failed: {failure}")
    for op in ops:
        if op["i"] in failed_ops:
            print(f"operation {op['i']} failed: {op.get('error', 'wrong output')}")

    timed = [op for op in ops if op["phase"] == "timed"]
    print(f"{w.name}: {len(timed)} timed operations in a closed loop of one "
          f"client, seed {args.seed}, {args.seconds:g} s")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} failed of "
          f"{attempted} operations and output checks)")
    if args.trace:
        values = per_layer(result)
        print(f"spans written to {trace_out.relative_to(ROOT)}")
    else:
        values = end_to_end(w, result, statistics.median(probes), distance_mape)
    # BENCHMARK.json declares the metrics, their order and their units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if not args.trace:
        rate = metrics["items_per_s"]["value"]
        print(f"  {w.item}_per_s = {rate:.6g} 1/s (as items_per_s)")
        for q, ms in latency_ms(result).items():
            print(f"  op_p{q}_ms = {ms:.6g} ms (not gated)")
        if w.name == "mixed-small-batch":
            print(f"  query_pairs_per_s = {rate * w.k:.6g} 1/s")
        print(f"  distance_mape must be <= {check.MAPE_BOUND}")
    for name, metric in metrics.items():
        note = " (computed)" if name.split(".")[-1] in COMPUTED else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print("env " + json.dumps(environment(args, nproc)))
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None  # only after a failed check; keeps the JSON valid
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
