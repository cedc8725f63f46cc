"""Binary embedding with noise-shaping quantization and condensed sketches."""

from .bench import (
    BenchCell,
    BenchConfig,
    best_p_per_m,
    mape,
    run_mape_bench,
    run_stability_bench,
    synth_wellspread,
)
from .condense import (
    BinaryCode,
    Codes,
    CondensationSpec,
    CondensedCode,
    Sketches,
    build_condensation,
    condense,
    l1_distance,
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
    QuantizationResult,
    QuantizerSpec,
    build_quantizer,
    quantize,
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

__all__ = [name for name in dir() if not name.startswith("_")]
