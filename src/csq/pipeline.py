"""End-to-end embedding: project, quantize, condense, estimate distances.

A model bundles a random projection (one :class:`csq.transforms.Projection`:
a sparse Gaussian matrix, or the same matrix behind a Walsh-Hadamard/sign
preconditioner), an order-r one-bit quantizer and a condensation. Models
are immutable and checked when made. A seeded model's projection is drawn
once and shared with the models that follow it with the same seeds and
shape (a one-entry process cache).
Embedding a dataset yields one binary code and one condensed integer
sketch per point; the l1 pseudometric on sketches approximates Euclidean
distances of the (suitably scaled) inputs.

Scaling matters: the quantizer's guarantee needs ``||Ax||_inf <= mu``,
which holds with high probability once every point lies in the l2 ball of
radius :func:`kappa_bound`. Estimates are reported in the scaled
coordinates; divide by ``Dataset.scale_applied`` for original units.

A memoryless sign baseline (dense Gaussian projection, Hamming distance)
is included for comparison benchmarks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .condense import (
    BinaryCode,
    Codes,
    CondensationSpec,
    CondensedCode,
    Sketches,
    build_condensation,
    check_geometry,
    condense_signs_batch,
    pack_rows,
    unpack_rows,
)
from .errors import (
    CorruptionError,
    DegenerateInputError,
    InputError,
    ParameterError,
    ShapeError,
)
from .sigma_delta import QuantizerSpec, build_quantizer, quantize_batch, seed_sequence
from .transforms import (
    Projection,
    build_sparse_gaussian,
    padded_dim,
    recommended_sparsity,
    sign_diagonal,
    sparse_matmat,
)

# Points per call of the compiled embed kernels, the unit of work of one
# thread; 256 to 1024 measured the same.
_BLOCK = 512

# The embed stages timed in EmbedDiagnostics.stage_ms, in the order a
# block goes through them; the middle three are the kernels'.
STAGES = ("read", "precondition", "project", "quantize", "write")

METHODS = ("sparse", "fjlt")
# The synthetic point sets of csq.bench.synth_wellspread, named here so that
# the command-line parser offers them without importing the bench module.
GENERATORS = ("signflat", "gaussian")

_NOT_FINITE = "dataset entries must be finite"
_NORMS_OVERFLOW = "dataset row norms overflow float64"
_OVERFLOW = (
    "the projections overflowed: the input is too large to embed; "
    "scale the dataset (see kappa_bound)"
)


def _row_blocks(matrix: np.ndarray):
    """``(lo, block)`` for C-ordered float64 copies of about 512 KiB of
    rows of the (k, n) ``matrix`` at a time, so no (k, n) temporary is
    made. Each worker thread of :func:`_embed_blocks` makes such
    temporaries at once, and at this size they stay in cache."""
    k, n = matrix.shape
    step = max(1, (1 << 16) // max(n, 1))
    for lo in range(0, k, step):
        yield lo, np.ascontiguousarray(matrix[lo : lo + step], dtype=np.float64)


def _finite_row_norms(matrix: np.ndarray) -> np.ndarray:
    """Row l2 norms, bit for bit as ``np.linalg.norm(axis=1)`` gives them
    for the C-ordered float64 matrix whatever the layout of ``matrix``,
    checking every entry and every norm finite on the way."""
    norms = np.empty(matrix.shape[0])
    for lo, block in _row_blocks(matrix):
        out = norms[lo : lo + len(block)]
        with np.errstate(over="ignore", invalid="ignore"):
            np.sqrt(np.add.reduce(block * block, axis=1), out=out)
        # A NaN or infinite entry makes the norm of its row NaN or
        # infinite, so the entries need a scan only when a norm is.
        if not np.isfinite(out).all():
            if not np.isfinite(block).all():
                raise InputError(_NOT_FINITE)
            raise InputError(_NORMS_OVERFLOW)
    return norms


def _row_peaks(matrix: np.ndarray) -> np.ndarray:
    """Each row's largest |entry| (0.0 for an empty row)."""
    peaks = np.empty(matrix.shape[0])
    for lo, block in _row_blocks(matrix):
        np.abs(block).max(axis=1, out=peaks[lo : lo + len(block)], initial=0.0)
    return peaks


@dataclass(frozen=True, eq=False)
class Dataset:
    """k finite vectors of dimension n, their norms, and bookkeeping about
    applied scaling.

    Checked when made: ``vectors`` becomes a read-only float64 (k, n) view
    of the given matrix (float64 input is not copied), every entry must be
    finite, and ``norms`` holds the row l2 norms from that same pass, bit
    for bit as ``np.linalg.norm(axis=1)`` gives them, which must be finite
    too. ``k`` and ``n`` are read from the shape. ``scale_applied`` is the
    multiplier that produced ``vectors`` from the user's original data (1.0
    when nothing was rescaled); ``kappa`` is the radius of the l2 ball the
    vectors are known to lie in, by default the largest norm. Since the
    matrix is viewed, not copied, the caller must not change it through
    another name afterwards.
    """

    vectors: np.ndarray
    scale_applied: float = 1.0
    kappa: float | None = None
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64).view()
        if vectors.ndim != 2:
            raise ShapeError("expected a (k, n) matrix")
        vectors.flags.writeable = False
        norms = _finite_row_norms(vectors)
        norms.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "norms", norms)
        if self.kappa is None:
            object.__setattr__(self, "kappa", float(norms.max(initial=0.0)))

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def peaks(self) -> np.ndarray:
        """Each row's largest |entry|, computed blockwise when first read."""
        return _row_peaks(self.vectors)

    def block_reader(self, rows: int):
        """``read(lo, hi)`` of :func:`_embed_blocks`: views of rows lo..hi-1
        and their norms (``rows`` bounds hi - lo; views need no buffer)."""
        return lambda lo, hi: (self.vectors[lo:hi], self.norms[lo:hi])


# The library's name for making a checked dataset from a (k, n) matrix.
dataset_from_matrix = Dataset


def kappa_bound(mu: float, beta: float, m: int) -> float:
    """Ball radius under which ``||Ax||_inf <= mu`` holds w.p. >= 1 - e**-beta.

    Returns ``mu / (2 * sqrt(beta + ln(2m)))``.
    """
    if not (0.0 < mu <= 1.0):
        raise ParameterError("mu must lie in (0, 1]")
    if beta <= 0.0:
        raise ParameterError("beta must be positive")
    if m < 1:
        raise ParameterError("m must be positive")
    return mu / (2.0 * math.sqrt(beta + math.log(2.0 * m)))


def scale_dataset(raw: np.ndarray, kappa: float) -> Dataset:
    """Rescale so the largest l2 norm equals ``kappa``; remember the factor."""
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ParameterError("kappa must be positive and finite")
    base = Dataset(raw)
    if base.k == 0 or base.kappa == 0.0:
        raise DegenerateInputError("cannot scale an empty or all-zero dataset")
    multiplier = kappa / base.kappa
    return Dataset(base.vectors * multiplier, scale_applied=multiplier, kappa=kappa)


@dataclass(frozen=True)
class EmbeddingModel:
    """Everything needed to reproduce an embedding from seeds.

    Models are immutable and checked when made; ``dataclasses.replace``
    gives a changed copy, checked again. :attr:`operator` is the
    projection: ``explicit`` when the model was loaded from a file written
    with verbatim storage, else regenerated from ``(matrix_seed,
    diagonal_seed)`` the first time it is read, unless the seeded operator
    last drawn in the process has the same fields. The geometry is stated
    once: ``n_pad`` follows from ``method`` and ``n``, and ``m``, ``p``,
    ``r`` and ``lambda_tilde`` are read from the condensation.
    """

    method: str
    n: int
    sparsity: float
    wellspread_const: float
    matrix_seed: int
    diagonal_seed: int
    quantizer: QuantizerSpec
    condensation: CondensationSpec
    explicit: Projection | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}")
        if self.n < 1:
            raise ParameterError("n must be positive")
        if self.quantizer.order != self.condensation.r:
            raise ParameterError("quantizer order disagrees with condensation r")
        if not (0.0 < self.sparsity <= 1.0):
            raise ParameterError("sparsity must lie in (0, 1]")
        if not (math.isfinite(self.wellspread_const) and self.wellspread_const > 0.0):
            raise ParameterError("wellspread_const must be positive and finite")
        op = self.explicit
        if op is not None and (op.n, op.matrix.rows) != (self.n, self.m):
            raise ShapeError(f"explicit projection does not map {self.n} to {self.m}")
        if op is not None and (op.signs is None) != (self.method == "sparse"):
            raise ParameterError(f"explicit diagonal signs disagree with {self.method}")

    @property
    def n_pad(self) -> int:
        """Input dimension after padding: n, or for fjlt the next power of two."""
        return self.n if self.method == "sparse" else padded_dim(self.n)

    @property
    def m(self) -> int:
        return self.condensation.m

    @property
    def p(self) -> int:
        return self.condensation.p

    @property
    def r(self) -> int:
        return self.condensation.r

    @property
    def lambda_tilde(self) -> int:
        return self.condensation.lambda_tilde

    @cached_property
    def operator(self) -> Projection:
        """The model's projection: the explicit one, else the seeded one
        from :func:`_seeded_operator`, which models with the same operator
        fields share."""
        if self.explicit is not None:
            return self.explicit
        return _seeded_operator(
            self.method, self.n, self.n_pad, self.m, self.sparsity,
            self.matrix_seed, self.diagonal_seed,
        )


@functools.lru_cache(maxsize=1)
def _seeded_operator(
    method: str, n: int, n_pad: int, m: int, sparsity: float,
    matrix_seed: int, diagonal_seed: int,
) -> Projection:
    """The projection these fields of a seeded model fix, drawn once per
    process for as long as it is the last one asked for.

    The quantizer and the condensation (beyond ``m``) do not shape the
    operator, so models that differ only there share it. Its arrays are
    read-only, so sharing is safe. One entry bounds the memory: at most one
    operator stays alive beyond those that live models hold.
    """
    # Looked up in this module when called, so a wrapper of
    # pipeline.build_sparse_gaussian sees every draw.
    matrix = build_sparse_gaussian(m, n_pad, sparsity, matrix_seed)
    if method == "sparse":
        return Projection(n, matrix)
    return Projection(n, matrix, sign_diagonal(n_pad, diagonal_seed))


def derive_seeds(seed: int) -> tuple[int, int]:
    """Split one user seed into (matrix_seed, diagonal_seed), both u64."""
    state = seed_sequence(seed).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def build_model(
    method: str,
    n: int,
    p: int,
    lambda_tilde: int,
    r: int,
    sigma: int = 6,
    mu: float = 0.95,
    seed: int = 0,
    sparsity: float | None = None,
    wellspread_const: float = 1.0,
) -> EmbeddingModel:
    """Assemble a model; sparsity defaults to the recommended level.

    The default sparsity plugs the condensation kernel's
    ``(||v||_inf/||v||_2)**2`` ratio and the heuristic accuracy target
    ``eps = p**-0.5`` into :func:`csq.transforms.recommended_sparsity`.
    """
    matrix_seed, diagonal_seed = derive_seeds(seed)
    model = EmbeddingModel(
        method=method,
        n=n,
        sparsity=1.0 if sparsity is None else float(sparsity),
        wellspread_const=float(wellspread_const),
        matrix_seed=matrix_seed,
        diagonal_seed=diagonal_seed,
        quantizer=build_quantizer(r, sigma=sigma, mu=mu),
        condensation=build_condensation(r, lambda_tilde, p),
    )
    eps = 1.0 / math.sqrt(p)
    # The sparsity recommendation is only meaningful for accuracy targets
    # below 1/2; with p <= 4 blocks the default stays dense.
    if sparsity is None and eps < 0.5:
        sparsity = recommended_sparsity(
            model.n_pad,
            eps=eps,
            v_inf_over_v2_sq=model.condensation.kernel_inf_over_l2_sq(),
            wellspread_const=wellspread_const,
            fjlt_mode=(method == "fjlt"),
        )
        model = dataclasses.replace(model, sparsity=sparsity)
    return model


@dataclass
class EmbedDiagnostics:
    """Per-point health flags gathered while embedding, and how it ran.

    ``kernels`` is ``"native"`` (the compiled block kernels, on ``workers``
    threads, in the build ``isa`` names: ``"avx2"`` or ``"baseline"``) or
    ``"numpy"`` (the numpy stages on one thread, ``isa`` empty;
    ``kernels_note`` says why the compiled kernels are unavailable).
    ``stage_ms`` maps each of :data:`STAGES` to the milliseconds spent in
    it, summed over the threads: reading the rows with their norms and
    peaks (on the compiled kernels, the kernel's own ``pread`` of each
    tile of a file and its copy of the rows into the tile, which takes
    their norms and peaks; on the numpy kernels, a file block's
    ``preadv`` and ``Dataset`` check), preconditioning (the pad and the
    transform; nothing for ``sparse`` on the compiled kernels),
    projection, quantizing with condensing and packing, and handing the
    records to ``write``.
    """

    amplitude_violations: np.ndarray
    wellspread_failures: np.ndarray
    wellspread_failure_fraction: float
    implied_eps: float
    kernels: str = "numpy"
    workers: int = 1
    kernels_note: str = ""
    isa: str = ""
    stage_ms: dict = field(default_factory=dict)


@dataclass
class EmbedResult:
    codes: Codes
    condensed: Sketches
    diagnostics: EmbedDiagnostics


def _embed_numpy(model: EmbeddingModel, vectors: np.ndarray, ns: np.ndarray):
    """(CSQD records, packed codes, amplitude violations) of a block of
    points; ``ns`` (3) is increased by the nanoseconds of the three
    kernel stages."""
    op, spec = model.operator, model.condensation
    try:
        # Overflow is refused below, so NumPy's warnings about it would
        # only repeat the refusal.
        with np.errstate(over="ignore", invalid="ignore"):
            t0 = time.perf_counter_ns()
            x = vectors if op.signs is None else op.precondition(vectors)
            t1 = time.perf_counter_ns()
            projections = sparse_matmat(op.matrix, x)
            t2 = time.perf_counter_ns()
            quant = quantize_batch(model.quantizer, projections)
    except InputError as exc:
        # The vectors are finite, so the transform or the projection
        # overflowed.
        raise InputError(_OVERFLOW) from exc
    records = pack_rows(condense_signs_batch(spec, quant.codes), spec.bit_width)
    bits = Codes.from_signs(quant.codes).bits
    ns += (t1 - t0, t2 - t1, time.perf_counter_ns() - t2)
    return records, bits, quant.amplitude_violations


def _embed_block(kern, model: EmbeddingModel, source, read, lo: int, hi: int, out, ns):
    """Embed rows lo..hi-1 of ``source``: returns their CSQD records, CSQC
    records, amplitude violations, l2 norms and peaks (each row's largest
    |entry|, for the sparse method's well-spread check; None for fjlt).
    ``ns``, the thread's row of stage nanoseconds, gains the time of the
    first four stages.

    On the numpy kernels ``read`` is the thread's ``source.block_reader``.
    The compiled kernel reads the rows itself: a :class:`Dataset`'s in
    memory, a CSQV file's (a :class:`csq.store.VectorFile`) with
    ``pread``. It writes into ``out``, the thread's buffers of records,
    bits, projection peaks, norms and peaks, and measures each row as it
    loads it; a block with a non-finite entry, a norm that overflows or
    projections that overflow is refused here, in that order, with the
    messages of :class:`Dataset` and :func:`embed_dataset`.
    """
    if kern is None:
        t0 = time.perf_counter_ns()
        vectors, norms = read(lo, hi)
        ns[0] += time.perf_counter_ns() - t0
        records, bits, loud = _embed_numpy(model, vectors, ns[1:4])
        peaks = _row_peaks(vectors) if model.method == "sparse" else None
        return records, bits, loud, norms, peaks
    records, bits, projected, norms, peaks = (
        None if a is None else a[: hi - lo] for a in out
    )
    if isinstance(source, Dataset):
        x = np.ascontiguousarray(source.vectors[lo:hi])
        kern.embed_block(model, x, records, bits, projected, norms, peaks, ns[:4])
    else:
        try:
            kern.embed_block(
                model, None, records, bits, projected, norms, peaks, ns[:4],
                fd=source.fileno(), offset=source.offset(lo),
            )
        except EOFError:
            raise CorruptionError(f"{source.path}: truncated file") from None
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(source.path)) from None
    if np.isnan(norms).any():
        raise InputError(_NOT_FINITE)
    if np.isinf(norms).any():
        raise InputError(_NORMS_OVERFLOW)
    if not np.isfinite(projected).all():
        raise InputError(_OVERFLOW)
    return records, bits, projected > model.quantizer.mu, norms, peaks


def _embed_blocks(model: EmbeddingModel, source, write):
    """Embed the ``source.k`` rows of ``source``, ``_BLOCK`` at a time;
    returns the diagnostics and the largest row norm.

    ``source`` is a :class:`Dataset` or a :class:`csq.store.VectorFile`:
    it has ``k``, ``n`` and ``block_reader(rows)``, which gives a thread
    of the numpy kernels its own ``read(lo, hi)``: rows lo..hi-1 (at most
    ``rows`` of them), checked finite, and their l2 norms. The compiled
    kernel reads the rows itself (see :func:`_embed_block`), a file's with
    ``pread`` into a 16-row staging area, so no block of input rows is
    ever buffered. Each block goes from start to finish on one thread: it
    is read, checked, embedded, and handed to ``write(lo, records, bits)``
    as CSQD sketch records (b, ceil(p * bit_width / 8)) and CSQC code
    records (b, ceil(m/8)) in buffers the thread reuses once ``write``
    returns. Threads call ``write`` at once, for disjoint rows.

    The compiled kernels run on up to one thread per CPU, thread w taking
    blocks w, w + workers, ...; the numpy stages run on one. Both do the
    same floating-point operations per point, so the outputs, the norms
    and the peaks depend on neither the block size, the thread count nor
    the kernel set. A thread stops at its first failing block and skips
    the blocks above the lowest failure seen so far; once every thread
    has stopped, the error of the lowest failing block is raised,
    whatever the timing.
    """
    if source.n != model.n:
        raise ShapeError(f"dataset dim {source.n} != model dim {model.n}")
    # Imported here, not at the top: the loader's modules cost import time
    # that `import csq` should not pay.
    from . import _native

    kern = _native.load()
    k = source.k
    workers = 1
    if kern is not None:
        workers = max(1, min(_native._worker_count(), -(-k // _BLOCK)))
    model.operator  # Built once, here, rather than by each thread's first block.
    threshold = None
    if model.method == "sparse":
        threshold = model.wellspread_const / math.sqrt(model.n)
    violations = np.zeros(k, dtype=bool)
    wellspread = np.zeros(k, dtype=bool)
    kappas = [0.0] * workers
    # Each thread's nanoseconds per stage.
    ns = np.zeros((workers, len(STAGES)), dtype=np.int64)
    # (first row, error) of each thread's failing block; row k if none.
    failures = [(k, None)] * workers
    rows = min(_BLOCK, k)
    starts = range(0, k, _BLOCK)

    # Each thread's reader or kernel buffers are made here, on the calling
    # thread, so that their memory returns to its heap, which later work
    # reuses, rather than to the worker thread's.
    readers = [None] * workers
    outputs = [None] * workers
    if kern is None:
        readers = [source.block_reader(rows)]
    else:
        outputs = [
            (
                np.empty((rows, model.condensation.record_bytes), dtype=np.uint8),
                np.empty((rows, (model.m + 7) // 8), dtype=np.uint8),
                np.empty(rows),
                np.empty(rows),
                np.empty(rows) if threshold is not None else None,
            )
            for _ in range(workers)
        ]

    def run(w: int) -> None:
        for lo in starts[w::workers]:
            if lo > min(row for row, _ in failures):
                return
            hi = min(lo + _BLOCK, k)
            try:
                records, bits, loud, norms, peaks = _embed_block(
                    kern, model, source, readers[w], lo, hi, outputs[w], ns[w]
                )
                violations[lo:hi] = loud
                if threshold is not None:
                    # The tiny slack keeps exact-boundary points (norm
                    # computed with rounding) from being flagged.
                    wellspread[lo:hi] = peaks > threshold * norms * (1.0 + 1e-9)
                kappas[w] = max(kappas[w], float(norms.max(initial=0.0)))
                t0 = time.perf_counter_ns()
                write(lo, records, bits)
                ns[w, 4] += time.perf_counter_ns() - t0
            except Exception as exc:  # raised below, lowest block first
                failures[w] = (lo, exc)
                return

    if workers == 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(run, w) for w in range(workers)]:
                future.result()
    error = min(failures, key=lambda failure: failure[0])[1]
    if error is not None:
        raise error
    if wellspread.any():
        warnings.warn(
            f"{int(wellspread.sum())} of {k} points are not "
            "well spread; the norm concentration behind the distance "
            "estimates may degrade. Consider method='fjlt'.",
            RuntimeWarning,
            stacklevel=3,
        )
    diagnostics = EmbedDiagnostics(
        amplitude_violations=violations,
        wellspread_failures=wellspread,
        wellspread_failure_fraction=float(wellspread.mean()) if k else 0.0,
        implied_eps=1.0 / math.sqrt(model.p),
        kernels="native" if kern else "numpy",
        workers=workers,
        kernels_note="" if kern else _native.failure() or "native kernels not loaded",
        isa=kern.isa if kern else "",
        stage_ms=dict(zip(STAGES, (ns.sum(axis=0) / 1e6).tolist())),
    )
    return diagnostics, max(kappas)


def embed_dataset(model: EmbeddingModel, data: Dataset) -> EmbedResult:
    """Embed every dataset row; see the module docstring for the stages.

    Amplitude violations (projections louder than the quantizer budget) and
    well-spreadness failures are reported, not raised: the underlying
    guarantees are probabilistic and the embedding remains usable.

    The compiled kernels run when they can be built and loaded (see
    :mod:`csq._native`), else the numpy ones; both give the same bytes.
    """
    k, spec = data.k, model.condensation
    records = np.empty((k, spec.record_bytes), dtype=np.uint8)
    bits = np.empty((k, (model.m + 7) // 8), dtype=np.uint8)

    def write(lo: int, block_records: np.ndarray, block_bits: np.ndarray) -> None:
        records[lo : lo + len(block_records)] = block_records
        bits[lo : lo + len(block_bits)] = block_bits

    diagnostics, _ = _embed_blocks(model, data, write)
    return EmbedResult(
        codes=Codes(model.m, bits),
        condensed=Sketches.of(spec, unpack_rows(records, spec.p, spec.bit_width)),
        diagnostics=diagnostics,
    )


def estimate_distance(
    model: EmbeddingModel, a: CondensedCode, b: CondensedCode
) -> float:
    """Distance estimate between two sketches produced under ``model``.

    The absolute differences of the integer entries are summed exactly and
    the total is scaled by ``norm_factor`` in one floating-point
    multiplication, so the result is a deterministic function of the
    entries.
    """
    spec = model.condensation
    check_geometry(a, spec)
    check_geometry(b, spec)
    return int(np.abs(a.entries - b.entries).sum()) * spec.norm_factor


def sign_msq_baseline_embed(g_seed: int, m: int, x: np.ndarray) -> BinaryCode:
    """Memoryless baseline: signs of a dense Gaussian projection of x."""
    if m < 1:
        raise ParameterError("m must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("x must be a 1-d vector")
    if not np.all(np.isfinite(x)):
        raise InputError("x must be finite")
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise InputError("baseline embedding requires a nonzero vector")
    rng = np.random.default_rng(seed_sequence(g_seed))
    g = rng.standard_normal((m, x.shape[0]))
    z = g @ (x / norm)
    signs = np.where(z >= 0.0, 1, -1).astype(np.int8)
    return BinaryCode.from_signs(signs)


def hamming_angular_distance(qa: BinaryCode, qb: BinaryCode) -> float:
    """Fraction of differing bits; estimates arccos(cos-similarity)/pi."""
    if qa.length != qb.length:
        raise ShapeError("codes must have equal length")
    if qa.length == 0:
        raise ParameterError("codes must be nonempty")
    diff = np.bitwise_xor(qa.bits, qb.bits)
    differing = int(np.unpackbits(diff, count=qa.length, bitorder="little").sum())
    return differing / qa.length
