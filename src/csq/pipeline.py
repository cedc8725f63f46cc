"""End-to-end embedding: project, quantize, condense, estimate distances.

A model bundles a random projection (sparse Gaussian, or the same matrix
behind a Walsh-Hadamard/sign preconditioner), an order-r one-bit quantizer
and a condensation. Embedding a dataset yields one binary code and one
condensed integer sketch per point; the l1 pseudometric on sketches
approximates Euclidean distances of the (suitably scaled) inputs.

Scaling matters: the quantizer's guarantee needs ``||Ax||_inf <= mu``,
which holds with high probability once every point lies in the l2 ball of
radius :func:`kappa_bound`. Estimates are reported in the scaled
coordinates; divide by ``Dataset.scale_applied`` for original units.

A memoryless sign baseline (dense Gaussian projection, Hamming distance)
is included for comparison benchmarks.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

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
    l1_distance,
)
from .errors import (
    DegenerateInputError,
    InputError,
    ParameterError,
    ShapeError,
)
from .sigma_delta import QuantizerSpec, build_quantizer, quantize_batch
from .transforms import (
    FjltOperator,
    SparseGaussianMatrix,
    build_fjlt,
    build_sparse_gaussian,
    padded_dim,
    recommended_sparsity,
    sparse_matmat,
)

FILE_VERSION = 1

# Points per call of the compiled embed kernels, the unit of work of one
# thread; 256 to 1024 measured the same.
_BLOCK = 512

METHODS = ("sparse", "fjlt")


@dataclass
class Dataset:
    """k vectors of dimension n plus bookkeeping about applied scaling.

    ``scale_applied`` is the multiplier that produced ``vectors`` from the
    user's original data (1.0 when nothing was rescaled); ``kappa`` is the
    radius of the l2 ball the vectors are known to lie in.
    """

    k: int
    n: int
    vectors: np.ndarray
    scale_applied: float = 1.0
    kappa: float = 0.0


def _finite_row_norms(
    matrix: np.ndarray, peaks: np.ndarray | None = None
) -> np.ndarray:
    """Row l2 norms, bit for bit as ``np.linalg.norm(axis=1)`` gives them
    for the C-ordered float64 matrix whatever the layout of ``matrix``,
    computed (and checked finite) one block of about 2 MiB of rows at a
    time, so no (k, n) temporary is made. ``peaks``, when given, gets each
    row's largest |entry| from the same blocks."""
    k, n = matrix.shape
    norms = np.empty(k)
    step = max(1, (1 << 18) // max(n, 1))
    for lo in range(0, k, step):
        block = np.ascontiguousarray(matrix[lo : lo + step], dtype=np.float64)
        if not np.isfinite(block).all():
            raise InputError("dataset entries must be finite")
        norms[lo : lo + step] = np.sqrt(np.add.reduce(block * block, axis=1))
        if peaks is not None:
            np.abs(block).max(axis=1, out=peaks[lo : lo + step], initial=0.0)
    return norms


def dataset_from_matrix(matrix: np.ndarray) -> Dataset:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError("expected a (k, n) matrix")
    kappa = float(_finite_row_norms(matrix).max(initial=0.0))
    return Dataset(k=matrix.shape[0], n=matrix.shape[1], vectors=matrix, kappa=kappa)


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
    if kappa <= 0.0:
        raise ParameterError("kappa must be positive")
    base = dataset_from_matrix(raw)
    if base.k == 0 or base.kappa == 0.0:
        raise DegenerateInputError("cannot scale an empty or all-zero dataset")
    multiplier = kappa / base.kappa
    return Dataset(
        k=base.k,
        n=base.n,
        vectors=base.vectors * multiplier,
        scale_applied=multiplier,
        kappa=kappa,
    )


@dataclass
class EmbeddingModel:
    """Everything needed to reproduce an embedding from seeds.

    The projection matrix is regenerated on demand from
    ``(matrix_seed, diagonal_seed)`` unless explicit arrays were loaded from
    a model file written with verbatim storage. :func:`model_operator`
    caches the result on the model, keyed on the fields it is built from.
    The geometry is stated once: ``n_pad`` follows from ``method`` and
    ``n``, and ``m``, ``p``, ``r`` and ``lambda_tilde`` are read from the
    condensation.
    """

    method: str
    n: int
    sparsity: float
    wellspread_const: float
    matrix_seed: int
    diagonal_seed: int
    quantizer: QuantizerSpec
    condensation: CondensationSpec
    explicit_matrix: SparseGaussianMatrix | None = field(default=None, repr=False)
    explicit_signs: np.ndarray | None = field(default=None, repr=False)
    _operator: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}")
        if self.quantizer.order != self.condensation.r:
            raise ParameterError("quantizer order disagrees with condensation r")
        if not (0.0 < self.sparsity <= 1.0):
            raise ParameterError("sparsity must lie in (0, 1]")


def derive_seeds(seed: int) -> tuple[int, int]:
    """Split one user seed into (matrix_seed, diagonal_seed), both u64."""
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
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
    sparsity_multiplier: float = 1.0,
) -> EmbeddingModel:
    """Assemble a model; sparsity defaults to the recommended level.

    The default sparsity plugs the condensation kernel's
    ``(||v||_inf/||v||_2)**2`` ratio and the heuristic accuracy target
    ``eps = p**-0.5`` into :func:`csq.transforms.recommended_sparsity`.
    """
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}")
    if n < 1:
        raise ParameterError("n must be positive")
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
        model.sparsity = recommended_sparsity(
            model.n_pad,
            eps=eps,
            v_inf_over_v2_sq=model.condensation.kernel_inf_over_l2_sq(),
            wellspread_const=wellspread_const,
            fjlt_mode=(method == "fjlt"),
            multiplier=sparsity_multiplier,
        )
    model.validate()
    return model


def model_operator(model: EmbeddingModel) -> SparseGaussianMatrix | FjltOperator:
    """Materialize the projection (explicit arrays win over regeneration).

    The operator is cached on the model and rebuilt when a field it is built
    from changes: method, shape, sparsity, seeds, or the identity of the
    explicit arrays.
    """
    key = (
        model.method, model.n, model.m, model.sparsity,
        model.matrix_seed, model.diagonal_seed,
    )
    explicit = (model.explicit_matrix, model.explicit_signs)
    cached = model._operator
    if (
        cached is not None
        and cached[0] == key
        and all(a is b for a, b in zip(cached[1], explicit))
    ):
        return cached[2]
    op = _build_operator(model)
    model._operator = (key, explicit, op)
    return op


def _build_operator(model: EmbeddingModel) -> SparseGaussianMatrix | FjltOperator:
    if model.method == "sparse":
        if model.explicit_matrix is not None:
            return model.explicit_matrix
        return build_sparse_gaussian(
            model.m, model.n, model.sparsity, model.matrix_seed
        )
    if model.explicit_matrix is not None and model.explicit_signs is not None:
        from .transforms import RandomSignDiagonal

        diagonal = RandomSignDiagonal(
            dim=model.n_pad,
            seed=model.diagonal_seed,
            signs=model.explicit_signs.astype(np.float64),
        )
        return FjltOperator(
            input_dim=model.n, matrix=model.explicit_matrix, diagonal=diagonal
        )
    return build_fjlt(
        model.m, model.n, model.sparsity, model.matrix_seed, model.diagonal_seed
    )


@dataclass
class EmbedDiagnostics:
    """Per-point health flags gathered while embedding, and how it ran.

    ``kernels`` is ``"native"`` (the compiled block kernels, on ``workers``
    threads) or ``"numpy"`` (one whole-dataset pass; ``kernels_note`` says
    why the compiled kernels are unavailable).
    """

    amplitude_violations: np.ndarray
    wellspread_failures: np.ndarray
    wellspread_failure_fraction: float
    implied_eps: float
    kernels: str = "numpy"
    workers: int = 1
    kernels_note: str = ""


@dataclass
class EmbedResult:
    codes: Codes
    condensed: Sketches
    diagnostics: EmbedDiagnostics


def project_dataset(model: EmbeddingModel, vectors: np.ndarray) -> np.ndarray:
    """Apply the model's linear map to rows of ``vectors`` -> (k, m).

    The result is the ``.T`` view of a C-ordered (m, k) array: the embed
    stages carry points on the last axis.
    """
    op = model_operator(model)
    if isinstance(op, FjltOperator):
        return sparse_matmat(op.matrix, op.precondition(vectors))
    return sparse_matmat(op, vectors)


def _worker_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _embed_numpy(model: EmbeddingModel, vectors: np.ndarray):
    """(entries, packed codes, amplitude violations) of every point at once."""
    projections = project_dataset(model, vectors)
    quant = quantize_batch(model.quantizer, projections)
    entries = condense_signs_batch(model.condensation, quant.codes)
    bits = Codes.from_signs(quant.codes).bits
    return entries, bits, quant.amplitude_violations


def _embed_blocks(kern, model: EmbeddingModel, vectors: np.ndarray, workers: int):
    """:func:`_embed_numpy` with the compiled kernels, ``_BLOCK`` points at
    a time on ``workers`` threads.

    Each thread owns its buffers and writes the rows of its blocks (every
    ``workers``-th block) into the shared outputs, so the result does not
    depend on the block size or the thread count. The kernels do the same
    floating-point operations as the numpy ones, so it equals
    :func:`_embed_numpy` bit for bit.
    """
    from . import _native

    op = model_operator(model)
    if isinstance(op, FjltOperator):
        matrix, signs = op.matrix, np.ascontiguousarray(op.diagonal.signs, np.float64)
    else:
        matrix, signs = op, None
    csr = _native.checked_csr(matrix)
    n_pad, m = matrix.cols, matrix.rows
    # The scale fwht_inplace applies.
    scale = 1.0 / math.sqrt(n_pad)
    spec = model.quantizer
    kernel = np.ascontiguousarray(model.condensation.kernel, dtype=np.int64)
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    k = vectors.shape[0]
    entries = np.empty((k, model.p), dtype=np.int64)
    bits = np.empty((k, (m + 7) // 8), dtype=np.uint8)
    violations = np.empty(k, dtype=bool)
    starts = range(0, k, _BLOCK)
    # Allocated here rather than in the threads, so that the memory comes
    # back to this thread's heap when the embed is done.
    buffers = [
        (np.empty(kern.scratch_size(n_pad, m, spec.reach)), np.empty(_BLOCK))
        for _ in range(workers)
    ]

    def run(first: int) -> None:
        scratch, peaks = buffers[first]
        for lo in starts[first::workers]:
            hi = min(lo + _BLOCK, k)
            if not kern.embed_block(
                vectors[lo:hi], signs, scale, csr, spec, kernel, scratch,
                entries[lo:hi], bits[lo:hi], peaks,
            ):
                raise InputError("input vectors must be finite")
            if not np.all(np.isfinite(peaks[: hi - lo])):
                raise InputError("input must be finite")
            violations[lo:hi] = peaks[: hi - lo] > spec.mu

    if workers == 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(run, w) for w in range(workers)]:
                future.result()
    return entries, bits, violations


def embed_dataset(model: EmbeddingModel, data: Dataset) -> EmbedResult:
    """Embed every dataset row; see the module docstring for the stages.

    Amplitude violations (projections louder than the quantizer budget) and
    well-spreadness failures are reported, not raised: the underlying
    guarantees are probabilistic and the embedding remains usable.

    The compiled kernels run when they can be built and loaded (see
    :mod:`csq._native`), else the numpy ones; both give the same bytes.
    """
    if data.n != model.n:
        raise ShapeError(f"dataset dim {data.n} != model dim {model.n}")
    k = data.k
    wellspread_failures = np.zeros(k, dtype=bool)
    if model.method == "sparse" and k:
        peaks = np.empty(k)
        norms = _finite_row_norms(data.vectors, peaks)
        threshold = model.wellspread_const / math.sqrt(model.n)
        # The tiny slack keeps exact-boundary points (norm computed with
        # rounding) from being flagged.
        wellspread_failures = peaks > threshold * norms * (1.0 + 1e-9)
        if wellspread_failures.any():
            warnings.warn(
                f"{int(wellspread_failures.sum())} of {k} points are not "
                "well spread; the norm concentration behind the distance "
                "estimates may degrade. Consider method='fjlt'.",
                RuntimeWarning,
                stacklevel=2,
            )

    # Imported here, not at the top: the loader's modules cost import time
    # that `import csq` should not pay.
    from . import _native

    kern = _native.load()
    if kern is None:
        workers = 1
        entries, bits, violations = _embed_numpy(model, data.vectors)
    else:
        workers = max(1, min(_worker_count(), -(-k // _BLOCK)))
        entries, bits, violations = _embed_blocks(kern, model, data.vectors, workers)
    diagnostics = EmbedDiagnostics(
        amplitude_violations=violations,
        wellspread_failures=wellspread_failures,
        wellspread_failure_fraction=float(wellspread_failures.mean()) if k else 0.0,
        implied_eps=1.0 / math.sqrt(model.p),
        kernels="native" if kern else "numpy",
        workers=workers,
        kernels_note="" if kern else _native.failure() or "native kernels not loaded",
    )
    return EmbedResult(
        codes=Codes(model.m, bits),
        condensed=Sketches.of(model.condensation, entries),
        diagnostics=diagnostics,
    )


def estimate_distance(
    model: EmbeddingModel, a: CondensedCode, b: CondensedCode
) -> float:
    """Distance estimate between two sketches produced under ``model``."""
    check_geometry(a, model.condensation)
    return l1_distance(a, b)


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
    rng = np.random.default_rng(g_seed)
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
    differing = int(np.unpackbits(diff, count=qa.length).sum())
    return differing / qa.length
