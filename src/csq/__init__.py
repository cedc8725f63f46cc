"""Binary embedding with noise-shaping quantization and condensed sketches."""

from .condense import (
    BinaryCode,
    Codes,
    CondensationSpec,
    CondensedCode,
    Sketches,
    build_condensation,
    operator_bound,
    pairwise_l1_blocks,
)
from .errors import (
    CapacityError,
    CorruptionError,
    CsqError,
    DegenerateInputError,
    FormatError,
    IncompatibilityError,
    InputError,
    ParameterError,
    ShapeError,
)
from .pipeline import (
    Dataset,
    EmbeddingModel,
    build_model,
    dataset_from_matrix,
    embed_dataset,
    estimate_distance,
    hamming_angular_distance,
    kappa_bound,
    scale_dataset,
    sign_msq_baseline_embed,
)
from .sigma_delta import (
    QuantizerSpec,
    build_quantizer,
    quantize_batch,
    reconstruct_state,
    stability_scan,
)
from .store import (
    read_codes,
    read_condensed,
    read_curve,
    read_model,
    read_vectors,
    write_codes,
    write_condensed,
    write_curve,
    write_model,
    write_vectors,
)
from .transforms import (
    Projection,
    SparseGaussianMatrix,
    build_sparse_gaussian,
    fwht_inplace,
    padded_dim,
    recommended_sparsity,
    sign_diagonal,
    sparse_matmat,
    sparse_matvec,
)

__version__ = "0.1.0"

# The names of the bench module, imported on first use (see __getattr__):
# only benchmarks need it, and its import would slow every `import csq`.
_BENCH_NAMES = (
    "BenchCell",
    "BenchConfig",
    "best_p_per_m",
    "mape",
    "run_mape_bench",
    "run_stability_bench",
    "synth_wellspread",
)

__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | {"bench", *_BENCH_NAMES}
)


def __getattr__(name: str):
    if name == "bench" or name in _BENCH_NAMES:
        import importlib

        bench = importlib.import_module(".bench", __name__)
        return bench if name == "bench" else getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
