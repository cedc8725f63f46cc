"""Command-line interface: embed datasets, query distances, run benchmarks.

Exit codes: 0 on success, 2 for usage, parameter and file-format problems,
for files that cannot be read or written and for sizes too large to
allocate, 141 (128 + SIGPIPE) when the
reader of standard output goes away, as in ``csq query --all-pairs |
head``, and 1 for anything unexpected. All output files are pure functions
of the flags and the seed; wall-clock milliseconds appear only in
diagnostics and in the benchmark CSV's wall_ms column.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import threading
import time

import numpy as np

from . import pipeline, store
from .condense import _pair_blocks, check_geometry, pairwise_l1_blocks
from .errors import CapacityError, CsqError, ParameterError


def _int_list(text: str) -> list[int]:
    items = [chunk.strip() for chunk in text.split(",")]
    try:
        return [int(chunk) for chunk in items if chunk != ""]
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and a job loop in one process would otherwise
    build it for every call of :func:`main`."""
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
    mape_p.add_argument("--generator", choices=pipeline.GENERATORS, default="signflat")
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


def _new_sibling(target: str) -> tuple[int, str]:
    """``(fd, name)`` of a new empty file next to ``target``, with the mode
    the umask gives a new file."""
    head, tail = os.path.split(target)
    while True:
        name = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue


@contextlib.contextmanager
def _staged(paths):
    """Yield ``(fd, name)`` of a file to write for each output path, and
    publish them when the body succeeds.

    A path that names a regular file, or nothing yet, gets a new temporary
    sibling of the file it resolves to (through any symbolic links), with
    the mode that file has or a new file would get, moved into place with
    ``os.replace``. An existing file that is not regular but can seek, a
    device such as ``/dev/null``, is written in place. Any other (a FIFO, a
    terminal, a pipe as ``/dev/stdout``) cannot take records at their
    offsets, so it is staged in the temporary directory and its bytes are
    copied into it at the end. However the body ends, the temporary files
    are gone afterwards.
    """
    import shutil
    import stat
    import tempfile

    # (fd, name, target, how): the temporary file ``name`` is moved onto
    # ``target`` ("replace") or copied into it ("copy"); "" for a file
    # written in place, which is ``name`` itself.
    staged = []
    try:
        for path in paths:
            try:
                try:
                    mode = os.stat(path).st_mode
                except FileNotFoundError:
                    mode = None
                if mode is None or stat.S_ISREG(mode):
                    target = os.path.realpath(path)
                    fd, name = _new_sibling(target)
                    staged.append((fd, name, target, "replace"))
                    if mode is not None:
                        os.fchmod(fd, stat.S_IMODE(mode))
                    continue
                if not (stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode)):
                    fd = os.open(path, os.O_WRONLY)
                    try:
                        os.lseek(fd, 0, os.SEEK_CUR)
                    except OSError:
                        os.close(fd)
                    else:
                        staged.append((fd, path, path, ""))
                        continue
                fd, name = tempfile.mkstemp(suffix=".tmp")
                staged.append((fd, name, path, "copy"))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        yield [(fd, name) for fd, name, _, _ in staged]
        for _, name, target, how in staged:
            if how == "replace":
                os.replace(name, target)
            elif how == "copy":
                with open(name, "rb") as src, open(target, "wb") as dst:
                    shutil.copyfileobj(src, dst)
    finally:
        for fd, name, _, how in staged:
            os.close(fd)
            if how:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(name)


def _refuse_shared_outputs(outputs) -> None:
    """Refuse two of the ``(flag, path)`` outputs that name one regular or
    not yet existing file, through symbolic or hard links too: the last
    one published would replace the others. Devices and other files that
    are not regular, such as ``/dev/null``, may take several outputs."""
    import stat

    seen = []
    for flag, path in outputs:
        try:
            info = os.stat(path)
        except FileNotFoundError:
            info = None
        if info is not None and not stat.S_ISREG(info.st_mode):
            continue
        real = os.path.realpath(path)
        for other_flag, other_real, other_info in seen:
            same = real == other_real or (
                info is not None
                and other_info is not None
                and os.path.samestat(info, other_info)
            )
            if same:
                raise ParameterError(f"{other_flag} and {flag} name the same file")
        seen.append((flag, real, info))


def _cmd_embed(args) -> int:
    t0 = time.perf_counter()
    paths = (args.out_model, args.out_codes, args.out_condensed)
    flags = ("--out-model", "--out-codes", "--out-condensed")
    _refuse_shared_outputs(zip(flags, paths))
    with store.open_vectors(args.input) as source:
        model = pipeline.build_model(
            args.method,
            source.n,
            args.p,
            args.lambda_tilde,
            args.r,
            sigma=args.sigma,
            mu=args.mu,
            seed=args.seed,
        )
        model.operator  # Built here, so that its time is reported on its own.
        t_operator = time.perf_counter()
        with _staged(paths) as ((_, model_name), (codes_fd, _), (sketch_fd, _)):
            put_codes = store.codes_writer(codes_fd, source.k, model.m)
            put_sketches = store.condensed_writer(
                sketch_fd, source.k, model.condensation
            )

            def write(lo: int, records: np.ndarray, bits: np.ndarray) -> None:
                put_codes(lo, bits)
                put_sketches(lo, records)

            diag, kappa = pipeline._embed_blocks(model, source, write)
            t_blocks = time.perf_counter()
            store.write_model(model_name, model)
    t_publish = time.perf_counter()

    k, spec = source.k, model.condensation
    print(
        f"embedded k={k} points: n={model.n}, method={model.method}, "
        f"m={model.m}, p={model.p}, r={model.r}, "
        f"lambda={spec.lam}, sparsity={model.sparsity:.3g}"
    )
    print(
        f"bits per point: code {model.m}, condensed "
        f"{spec.p * spec.bit_width} (p={spec.p} x bit_width={spec.bit_width})"
    )
    print(
        f"amplitude violations: {int(diag.amplitude_violations.sum())}/{k}; "
        f"well-spread failures: {int(diag.wellspread_failures.sum())}/{k}; "
        f"implied eps: {diag.implied_eps:.3g}"
    )
    if diag.kernels == "native":
        print(f"kernels: native, {diag.isa} ({diag.workers} workers)")
    else:
        print(f"kernels: numpy ({diag.kernels_note})")
    suggested = pipeline.kappa_bound(model.quantizer.mu, np.log(2.0), model.m)
    # The slack of the well-spread check: data scaled to exactly the bound
    # has a kappa that rounding may put a few ulps above it.
    if kappa > suggested * (1.0 + 1e-9):
        print(
            f"note: max input norm {kappa:.4g} exceeds the suggested "
            f"ball radius {suggested:.4g} for mu={model.quantizer.mu}; "
            "consider scaling the dataset"
        )
    stages = ", ".join(f"{name} {ms:.1f}" for name, ms in diag.stage_ms.items())
    print(
        f"wall ms: operator {1000 * (t_operator - t0):.1f}, "
        f"blocks {1000 * (t_blocks - t_operator):.1f} on {diag.workers} "
        f"worker(s), publish {1000 * (t_publish - t_blocks):.1f}; "
        f"stages summed over workers: {stages}"
    )
    return 0


def _distinct_sums(sums: np.ndarray):
    """``(distinct, keys, lo, lut)``: the sorted distinct values of
    ``sums``, and integer keys with ``distinct[lut[keys - lo]]`` equal to
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


def _estimates(sums, norm_factor: float, divisor: float) -> list[str]:
    """The estimate texts of the l1 sums ``sums``, by the float operations
    of :func:`pipeline.estimate_distance`."""
    ests = (sums.astype(np.float64) * norm_factor / divisor).tolist()
    return [repr(est) for est in ests]


def _block_lines(columns, start: int, stop: int, sums, norm_factor, divisor) -> bytes:
    """The CSV lines of the pairs (i, j), start <= i < stop, i < j, of the
    k rows whose ``f"{j},"`` texts are the object array ``columns``; their
    l1 sums are ``sums``, in (i, j) order. Each distinct sum is formatted
    once."""
    k = len(columns)
    distinct, keys, lo, lut = _distinct_sums(sums)
    texts = np.array(_estimates(distinct, norm_factor, divisor), dtype=object)
    texts = texts[lut[keys - lo]]
    parts, off = [], 0
    for i in range(start, stop):
        n = k - 1 - i
        lines = (columns[i + 1 :] + texts[off : off + n]).tolist()
        parts.append(f"{i}," + f"\n{i},".join(lines) + "\n")
        off += n
    return "".join(parts).encode()


# The compiled all-pairs route runs when B, the sum of the entries' column
# spreads (a bound on every l1 sum, from _native.narrow), is below this. It
# keeps the text of each sum that occurs in one table over [0, B], and marks
# each chunk's sums in a bitmap over it: 4 and 1/8 bytes a sum, which the
# system zeroes as their pages are first touched, and only the pages of the
# sums that occur are. A set with B of this or more takes the block route.
_WINDOW = 1 << 24
# Pairs per chunk of CSV lines, on every route: a chunk is a range of rows
# with at most this many pairs, or one row.
_CHUNK_PAIRS = 1 << 16
# Bytes of the longest repr of a float, "-2.2250738585072014e-308".
_REPR_BYTES = 24


def _all_pairs(sketches, divisor: float):
    """The ``i,j,estimate`` CSV of every pair, as an iterator of byte
    chunks to close once read. This call checks the set and picks its
    route, before any chunk: a set whose bound ``B`` on every l1 sum (from
    :func:`csq._native.narrow`) reaches 2**63 is refused with a
    :class:`CapacityError`, as its sums could wrap.

    An estimate is a pure function of its integer l1 sum, computed with the
    same float operations as :func:`pipeline.estimate_distance`, so each
    distinct sum is formatted once and shared by its pairs.

    With the compiled kernels and ``B`` below :data:`_WINDOW` the entries
    are narrowed once (to bytes when every column spans at most 255), and
    each chunk of rows is one job of :func:`csq._native.in_order` on one
    thread per CPU, with the buffers of its slot. The job computes the
    chunk's sums and marks which occur, formats those without a text yet
    into the query's one table over ``[0, B]``, and copies each pair's line
    into its line buffer. Every sum is computed once. Every other set takes
    its sums from :func:`pairwise_l1_blocks` a chunk at a time, and
    :func:`_block_lines` makes the lines.
    """
    from . import _native

    entries, bound = _native.narrow(sketches.entries)
    if bound >= 1 << 63:
        raise CapacityError(
            f"the l1 sums of these sketches may reach {bound} (the sum of the "
            "columns' spreads), past the int64 range the estimates are summed in"
        )
    kern = _native.load()
    if kern is None or bound >= _WINDOW:
        return _block_route(sketches, divisor)
    k, norm_factor = len(sketches), sketches.norm_factor
    chunks = list(_pair_blocks(k, _CHUNK_PAIRS))
    workers = _native._worker_count()
    most = max((count for _, _, count in chunks), default=0)
    size = kern.lines_size(most, k, _REPR_BYTES)
    # The sums, bitmap (a bit for each sum in [0, B]) and line buffer of
    # each chunk in flight, made on this thread (see
    # pipeline._embed_blocks): chunk n's are those of chunk n - len(slots),
    # which is written by the time chunk n starts.
    slots = [
        (np.empty(most, dtype=np.uint32), np.zeros(bound // 8 + 1, dtype=np.uint8),
         np.empty(size, dtype=np.uint8))
        for _ in range(workers + 1)
    ]
    texts = _native.Texts(bound)
    adding = threading.Lock()

    def chunk_lines(n: int, start: int, stop: int, count: int):
        sums, marks, buf = slots[n % len(slots)]
        sums = sums[:count]
        lo, hi = kern.l1_marks(entries, start, stop, marks, sums)
        # The bytes of the bitmap the chunk's sums set, which are cleared
        # for the slot's next chunk.
        span = marks[lo >> 3 : (hi >> 3) + 1]
        full = np.flatnonzero(span)
        bits = np.unpackbits(span[full], bitorder="little").reshape(-1, 8)
        row, bit = np.nonzero(bits)
        occur = 8 * (full[row] + (lo >> 3)) + bit
        span[full] = 0
        with adding:
            new = texts.missing(occur)
            if new.size:
                ests = _estimates(new, norm_factor, divisor)
                texts.add(new, [est.encode() for est in ests])
        return buf[: kern.l1_lines(k, start, start + 1, sums, texts, buf)]

    def compiled_route():
        yield b"i,j,estimate\n"
        yield from _native.in_order(chunk_lines, chunks, workers)

    return compiled_route()


def _block_route(sketches, divisor: float):
    """The CSV of :func:`_all_pairs` from the sums of
    :func:`pairwise_l1_blocks` and the lines of :func:`_block_lines`."""
    yield b"i,j,estimate\n"
    columns = np.array([f"{j}," for j in range(len(sketches))], dtype=object)
    blocks = pairwise_l1_blocks(sketches.entries, block_pairs=_CHUNK_PAIRS)
    with contextlib.closing(blocks):
        for start, stop, sums in blocks:
            yield _block_lines(columns, start, stop, sums, sketches.norm_factor, divisor)


def _write_all_pairs(out, sketches, divisor: float) -> None:
    """Write the CSV of :func:`_all_pairs` to the binary stream ``out``.
    Every pool job has ended when this returns or raises."""
    with contextlib.closing(_all_pairs(sketches, divisor)) as chunks:
        for chunk in chunks:
            out.write(chunk)


def _keep_contents(path, flags: int) -> int:
    """The opener of :class:`_Rewritten`: ``open``'s own, without
    ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class _Rewritten:
    """The binary file ``path`` as ``open(path, "wb")`` gives it, but
    opened without ``O_TRUNC``: writes go from its first byte over the
    bytes it holds. When the ``with`` block ends, however it ends, a
    regular file is cut to the bytes written, so it holds what an
    ``O_TRUNC`` open would have left; other files (``/dev/null``, a FIFO, a
    terminal) are never cut. The file keeps its inode, mode, owner and
    links.

    A truncating open waits for the file system to write back what the
    file held (ext4 starts that when a truncated file is closed), which
    takes milliseconds after a rewrite of a large file; this open does not.
    A process killed while it writes leaves the new bytes followed by the
    old file's tail.
    """

    def __init__(self, path):
        import stat

        self._file = open(path, "wb", buffering=0, opener=_keep_contents)
        self._regular = stat.S_ISREG(os.fstat(self._file.fileno()).st_mode)

    def write(self, data) -> None:
        view = memoryview(data)
        while view.nbytes:  # an unbuffered write may take part of it
            view = view[self._file.write(view) :]

    def flush(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        with self._file:
            if self._regular:
                # At the file's offset: the bytes the writes put there.
                self._file.truncate()


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
        chunks = contextlib.nullcontext([repr(est).encode() + b"\n"])
    else:
        # Checked, and its route picked, before --out is opened, so that a
        # refused set leaves an existing file as it was.
        chunks = contextlib.closing(_all_pairs(sketches, divisor))

    if args.out is None:
        # Bytes go straight to the stream under sys.stdout, after what was
        # printed before them.
        sys.stdout.flush()
        stream = getattr(sys.stdout, "buffer", None) or _TextSink(sys.stdout)
        sink = contextlib.nullcontext(stream)
    else:
        sink = _Rewritten(args.out)
    # The chunks end, with every pool job, before the file is closed.
    with sink as out, chunks as lines:
        for line in lines:
            out.write(line)
        out.flush()
    if args.out is not None:
        count = 1 if args.pair is not None else 1 + k * (k - 1) // 2
        print(f"wrote {count} line(s) to {args.out}")
    return 0


def _cmd_bench_mape(args) -> int:
    from . import bench as bench_mod

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
    from . import bench as bench_mod

    rows = bench_mod.run_stability_bench(
        r_list=_int_list(args.r_list),
        sigma=args.sigma,
        amplitude=args.amplitude,
        m_list=_int_list(args.m_list),
        trials=args.trials,
        seed=args.seed,
    )
    store.write_stability_csv(args.out, rows)
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
    except MemoryError as exc:
        # Sizes too large for this host, from NumPy or the compiled kernels.
        print(f"{CapacityError.kind}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
