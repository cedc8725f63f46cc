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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .condense import (
    BinaryCode,
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


def dataset_from_matrix(matrix: np.ndarray) -> Dataset:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError("expected a (k, n) matrix")
    if not np.all(np.isfinite(matrix)):
        raise InputError("dataset entries must be finite")
    norms = np.linalg.norm(matrix, axis=1) if matrix.shape[0] else np.zeros(0)
    kappa = float(norms.max()) if norms.size else 0.0
    return Dataset(
        k=matrix.shape[0], n=matrix.shape[1], vectors=matrix, kappa=kappa
    )


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
    a model file written with verbatim storage.
    """

    method: str
    n: int
    n_pad: int
    m: int
    p: int
    r: int
    lambda_tilde: int
    sparsity: float
    wellspread_const: float
    matrix_seed: int
    diagonal_seed: int
    quantizer: QuantizerSpec
    condensation: CondensationSpec
    version: int = FILE_VERSION
    explicit_matrix: SparseGaussianMatrix | None = field(default=None, repr=False)
    explicit_signs: np.ndarray | None = field(default=None, repr=False)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}")
        if self.m != self.condensation.m or self.p != self.condensation.p:
            raise ParameterError("condensation disagrees with model geometry")
        if self.r != self.quantizer.order or self.r != self.condensation.r:
            raise ParameterError("quantizer order disagrees with model r")
        if self.lambda_tilde != self.condensation.lambda_tilde:
            raise ParameterError("lambda_tilde disagrees with condensation")
        if self.method == "sparse" and self.n_pad != self.n:
            raise ParameterError("sparse method requires n_pad == n")
        if self.method == "fjlt" and self.n_pad != padded_dim(self.n):
            raise ParameterError("fjlt n_pad must be the next power of two")
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
    quantizer = build_quantizer(r, sigma=sigma, mu=mu)
    condensation = build_condensation(r, lambda_tilde, p)
    n_pad = n if method == "sparse" else padded_dim(n)
    if sparsity is None:
        eps = 1.0 / math.sqrt(p)
        if eps >= 0.5:
            # The sparsity recommendation is only meaningful for accuracy
            # targets below 1/2; with p <= 4 blocks fall back to dense.
            sparsity = 1.0
        else:
            sparsity = recommended_sparsity(
                n_pad,
                eps=eps,
                v_inf_over_v2_sq=condensation.kernel_inf_over_l2_sq(),
                wellspread_const=wellspread_const,
                fjlt_mode=(method == "fjlt"),
                multiplier=sparsity_multiplier,
            )
    matrix_seed, diagonal_seed = derive_seeds(seed)
    model = EmbeddingModel(
        method=method,
        n=n,
        n_pad=n_pad,
        m=condensation.m,
        p=p,
        r=r,
        lambda_tilde=lambda_tilde,
        sparsity=float(sparsity),
        wellspread_const=float(wellspread_const),
        matrix_seed=matrix_seed,
        diagonal_seed=diagonal_seed,
        quantizer=quantizer,
        condensation=condensation,
    )
    model.validate()
    return model


def model_operator(model: EmbeddingModel) -> SparseGaussianMatrix | FjltOperator:
    """Materialize the projection (explicit arrays win over regeneration)."""
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
    """Per-point health flags gathered while embedding."""

    amplitude_violations: np.ndarray
    wellspread_failures: np.ndarray
    wellspread_failure_fraction: float
    implied_eps: float


@dataclass
class EmbedResult:
    codes: list[BinaryCode]
    condensed: Sketches
    diagnostics: EmbedDiagnostics


def project_dataset(model: EmbeddingModel, vectors: np.ndarray) -> np.ndarray:
    """Apply the model's linear map to rows of ``vectors`` -> (k, m)."""
    op = model_operator(model)
    if isinstance(op, FjltOperator):
        return sparse_matmat(op.matrix, op.precondition(vectors))
    return sparse_matmat(op, vectors)


def embed_dataset(model: EmbeddingModel, data: Dataset) -> EmbedResult:
    """Embed every dataset row; see the module docstring for the stages.

    Amplitude violations (projections louder than the quantizer budget) and
    well-spreadness failures are reported, not raised: the underlying
    guarantees are probabilistic and the embedding remains usable.
    """
    if data.n != model.n:
        raise ShapeError(f"dataset dim {data.n} != model dim {model.n}")
    k = data.k
    implied_eps = 1.0 / math.sqrt(model.p)
    if k == 0:
        return EmbedResult(
            codes=[],
            condensed=Sketches.from_codes(model.condensation, []),
            diagnostics=EmbedDiagnostics(
                amplitude_violations=np.zeros(0, dtype=bool),
                wellspread_failures=np.zeros(0, dtype=bool),
                wellspread_failure_fraction=0.0,
                implied_eps=implied_eps,
            ),
        )

    wellspread_failures = np.zeros(k, dtype=bool)
    if model.method == "sparse":
        norms = np.linalg.norm(data.vectors, axis=1)
        peaks = np.abs(data.vectors).max(axis=1)
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

    projections = project_dataset(model, data.vectors)
    quant = quantize_batch(model.quantizer, projections)
    condensed = Sketches.of(
        model.condensation, condense_signs_batch(model.condensation, quant.codes)
    )
    codes = [BinaryCode.from_signs(quant.codes[i]) for i in range(k)]
    diagnostics = EmbedDiagnostics(
        amplitude_violations=quant.amplitude_violations,
        wellspread_failures=wellspread_failures,
        wellspread_failure_fraction=float(wellspread_failures.mean()),
        implied_eps=implied_eps,
    )
    return EmbedResult(codes=codes, condensed=condensed, diagnostics=diagnostics)


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
