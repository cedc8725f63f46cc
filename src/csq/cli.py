"""Command-line interface: embed datasets, query distances, run benchmarks.

Exit codes: 0 on success, 2 for usage, parameter and file-format problems
and for files that cannot be read or written, 141 (128 + SIGPIPE) when the
reader of standard output goes away, as in ``csq query --all-pairs |
head``, and 1 for anything unexpected. All output files are pure functions
of the flags and the seed; wall-clock milliseconds appear only in
diagnostics and in the benchmark CSV's wall_ms column.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import pipeline, store
from .condense import check_geometry, pairwise_l1_blocks
from .errors import CsqError, ParameterError


def _int_list(text: str) -> list[int]:
    items = [chunk.strip() for chunk in text.split(",")]
    try:
        return [int(chunk) for chunk in items if chunk != ""]
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csq",
        description=(
            "Binary embedding of vector datasets with noise-shaping one-bit "
            "quantization and condensed distance sketches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="embed a dataset into codes and sketches")
    embed.add_argument("--input", required=True, help="CSQV or CSV vector file")
    embed.add_argument("--method", choices=pipeline.METHODS, default="sparse")
    embed.add_argument("--p", type=int, required=True, help="sketch length")
    embed.add_argument(
        "--lambda-tilde", type=int, required=True, dest="lambda_tilde",
        help="block parameter; the code spends r*lt - r + 1 bits per sketch entry",
    )
    embed.add_argument("--r", type=int, required=True, help="quantizer order")
    embed.add_argument("--sigma", type=int, default=6, help="quantizer tap spacing")
    embed.add_argument("--mu", type=float, default=0.95, help="amplitude budget")
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument("--out-model", required=True)
    embed.add_argument("--out-codes", required=True)
    embed.add_argument("--out-condensed", required=True)

    query = sub.add_parser("query", help="estimate distances between sketches")
    query.add_argument("--model", required=True)
    query.add_argument("--condensed", required=True)
    which = query.add_mutually_exclusive_group(required=True)
    which.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"))
    which.add_argument("--all-pairs", action="store_true")
    query.add_argument(
        "--original-units", action="store_true",
        help="divide estimates by the dataset scaling multiplier",
    )
    query.add_argument(
        "--multiplier", type=float, default=None,
        help="with --original-units: the scale_applied multiplier used when "
        "the dataset was scaled (default 1.0)",
    )
    query.add_argument("--out", default=None, help="write results here (else stdout)")

    bench = sub.add_parser("bench", help="benchmark suites")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    mape_p = bench_sub.add_parser("mape", help="distance-error curves over a grid")
    mape_p.add_argument("--n", type=int, required=True)
    mape_p.add_argument("--k", type=int, required=True)
    mape_p.add_argument("--p", required=True, help="sketch length or comma list")
    mape_p.add_argument("--m-list", required=True, dest="m_list")
    mape_p.add_argument("--r-list", required=True, dest="r_list")
    mape_p.add_argument("--trials", type=int, default=3)
    mape_p.add_argument(
        "--generator", choices=bench_mod.GENERATORS, default="signflat"
    )
    mape_p.add_argument("--seed", type=int, default=0)
    mape_p.add_argument("--out", required=True)

    stab = bench_sub.add_parser("stability", help="quantizer state growth scan")
    stab.add_argument("--r-list", required=True, dest="r_list")
    stab.add_argument("--sigma", type=int, default=6)
    stab.add_argument("--amplitude", type=float, required=True)
    stab.add_argument("--m-list", required=True, dest="m_list")
    stab.add_argument("--trials", type=int, default=100)
    stab.add_argument("--seed", type=int, default=0)
    stab.add_argument("--out", required=True)

    return parser


def _cmd_embed(args) -> int:
    t0 = time.perf_counter()
    data = store.read_vectors(args.input)
    t_read = time.perf_counter()
    model = pipeline.build_model(
        args.method,
        data.n,
        args.p,
        args.lambda_tilde,
        args.r,
        sigma=args.sigma,
        mu=args.mu,
        seed=args.seed,
    )
    result = pipeline.embed_dataset(model, data)
    t_embed = time.perf_counter()
    store.write_model(args.out_model, model)
    store.write_codes(args.out_codes, result.codes)
    store.write_condensed(args.out_condensed, result.condensed, model.condensation)
    t_write = time.perf_counter()

    diag = result.diagnostics
    spec = model.condensation
    print(
        f"embedded k={data.k} points: n={model.n}, method={model.method}, "
        f"m={model.m}, p={model.p}, r={model.r}, "
        f"lambda={spec.lam}, sparsity={model.sparsity:.3g}"
    )
    print(
        f"bits per point: code {model.m}, condensed "
        f"{spec.p * spec.bit_width} (p={spec.p} x bit_width={spec.bit_width})"
    )
    print(
        f"amplitude violations: {int(diag.amplitude_violations.sum())}/{data.k}; "
        f"well-spread failures: {int(diag.wellspread_failures.sum())}/{data.k}; "
        f"implied eps: {diag.implied_eps:.3g}"
    )
    if diag.kernels == "native":
        print(f"kernels: native ({diag.workers} workers)")
    else:
        print(f"kernels: numpy ({diag.kernels_note})")
    suggested = pipeline.kappa_bound(model.quantizer.mu, np.log(2.0), model.m)
    # The slack of the well-spread check: data scaled to exactly the bound
    # has a kappa that rounding may put a few ulps above it.
    if data.kappa > suggested * (1.0 + 1e-9):
        print(
            f"note: max input norm {data.kappa:.4g} exceeds the suggested "
            f"ball radius {suggested:.4g} for mu={model.quantizer.mu}; "
            "consider scaling the dataset"
        )
    print(
        f"wall ms: read {1000 * (t_read - t0):.1f}, "
        f"embed {1000 * (t_embed - t_read):.1f}, "
        f"write {1000 * (t_write - t_embed):.1f}"
    )
    return 0


def _distinct_sums(sums: np.ndarray):
    """``(distinct, keys, lo, lut)``: the sorted distinct values of
    ``sums``, and int64 keys with ``distinct[lut[keys - lo]]`` equal to
    ``sums``."""
    lo, hi = int(sums.min()), int(sums.max())
    if hi - lo > 4 * sums.size:
        distinct, keys = np.unique(sums, return_inverse=True)
        return distinct, keys, 0, np.arange(distinct.size, dtype=np.int32)
    # The sums of a block span a narrow range, so a count per value finds
    # the distinct ones far faster than sorting.
    present = np.flatnonzero(np.bincount(sums - lo))
    lut = np.zeros(hi - lo + 1, dtype=np.int32)
    lut[present] = np.arange(present.size, dtype=np.int32)
    return present + lo, sums, lo, lut


def _write_all_pairs(out, sketches, divisor: float) -> None:
    """Stream the ``i,j,estimate`` CSV to the binary stream ``out`` one
    block of rows at a time.

    An estimate is a pure function of its integer l1 sum, computed with the
    same float operations as :func:`pipeline.estimate_distance`, so each
    distinct sum of a block is formatted once and shared by its pairs. The
    compiled kernels copy those texts into a block's lines in one reused
    buffer; without them, Python strings make the lines.
    """
    from . import _native

    out.write(b"i,j,estimate\n")
    k, norm_factor = len(sketches), sketches.norm_factor
    kern = _native.load()
    if kern is None:
        j_prefix = np.array([f"{j}," for j in range(k)], dtype=object)
    buf = np.empty(0, dtype=np.uint8)
    for start, stop, sums in pairwise_l1_blocks(sketches.entries):
        distinct, keys, lo, lut = _distinct_sums(sums)
        ests = (distinct.astype(np.float64) * norm_factor / divisor).tolist()
        texts = [repr(est) for est in ests]
        if kern is not None:
            texts = [t.encode() for t in texts]
            need = kern.lines_size(sums.size, k, max(map(len, texts)))
            if buf.size < need:
                buf = np.empty(need, dtype=np.uint8)
            out.write(buf[: kern.pair_lines(keys, start, k, lo, lut, texts, buf)])
            continue
        texts = np.array(texts, dtype=object)[lut[keys - lo]]
        parts, off = [], 0
        for i in range(start, stop):
            n = k - 1 - i
            lines = (j_prefix[i + 1 :] + texts[off : off + n]).tolist()
            parts.append(f"{i}," + f"\n{i},".join(lines) + "\n")
            off += n
        out.write("".join(parts).encode())


class _TextSink:
    """Binary writes to a text stream that has no binary buffer under it
    (an ``io.StringIO`` put in place of ``sys.stdout``, say)."""

    def __init__(self, text):
        self._text = text

    def write(self, data) -> None:
        self._text.write(bytes(data).decode("ascii"))

    def flush(self) -> None:
        self._text.flush()


def _cmd_query(args) -> int:
    model = store.read_model(args.model)
    sketches = store.read_condensed(args.condensed)
    check_geometry(sketches, model.condensation)
    k = len(sketches)
    divisor = 1.0
    if args.multiplier is not None:
        if not args.original_units:
            raise ParameterError("--multiplier needs --original-units")
        if not 0.0 < args.multiplier < math.inf:
            raise ParameterError("--multiplier must be positive and finite")
        divisor = args.multiplier

    if args.pair is not None:
        i, j = args.pair
        if not (0 <= i < k and 0 <= j < k):
            raise ParameterError(f"pair indices must lie in [0, {k})")
        est = pipeline.estimate_distance(model, sketches[i], sketches[j]) / divisor

    if args.out is None:
        # Bytes go straight to the stream under sys.stdout, after what was
        # printed before them.
        sys.stdout.flush()
        stream = getattr(sys.stdout, "buffer", None) or _TextSink(sys.stdout)
        sink = contextlib.nullcontext(stream)
    else:
        sink = open(args.out, "wb")
    with sink as out:
        if args.pair is not None:
            out.write(repr(est).encode() + b"\n")
        else:
            _write_all_pairs(out, sketches, divisor)
        out.flush()
    if args.out is not None:
        count = 1 if args.pair is not None else 1 + k * (k - 1) // 2
        print(f"wrote {count} line(s) to {args.out}")
    return 0


def _cmd_bench_mape(args) -> int:
    cfg = bench_mod.BenchConfig(
        n=args.n,
        k=args.k,
        p_list=_int_list(args.p),
        m_list=_int_list(args.m_list),
        r_list=_int_list(args.r_list),
        trials=args.trials,
        seed=args.seed,
        generator=args.generator,
    )
    cells = bench_mod.run_mape_bench(cfg)
    store.write_curve(args.out, bench_mod.curve_rows(cells))
    print("r p m mape wall_ms")
    for cell in sorted(cells, key=lambda c: (c.r, c.p, c.m_requested)):
        print(
            f"{cell.r} {cell.p} {cell.m_requested} "
            f"{cell.mape:.5f} {cell.wall_ms:.1f}"
        )
    if len(cfg.p_list) > 1:
        print("best p per (r, m):")
        for r, m, p in bench_mod.best_p_per_m(cells):
            print(f"  r={r} m={m}: p={p}")
    print(f"wrote {args.out}")
    return 0


def _cmd_bench_stability(args) -> int:
    rows = bench_mod.run_stability_bench(
        r_list=_int_list(args.r_list),
        sigma=args.sigma,
        amplitude=args.amplitude,
        m_list=_int_list(args.m_list),
        trials=args.trials,
        seed=args.seed,
    )
    bench_mod.write_stability_csv(args.out, rows)
    for r, m, peak in rows:
        print(f"r={r} m={m} max_u_inf={peak:.6f}")
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "embed":
            return _cmd_embed(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "bench":
            if args.bench_command == "mape":
                return _cmd_bench_mape(args)
            return _cmd_bench_stability(args)
        parser.error(f"unknown command {args.command!r}")
    except CsqError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # End quietly, as a filter killed by SIGPIPE does. Standard output
        # now points at the null device, so the interpreter's final flush
        # of what is still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
