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
    pack_condensed,
    pairwise_l1_blocks,
    unpack_condensed,
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
    reconstruct_state_batch,
    reconstruct_state_u,
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
    FjltOperator,
    RandomSignDiagonal,
    SparseGaussianMatrix,
    apply_fjlt,
    build_fjlt,
    build_sign_diagonal,
    build_sparse_gaussian,
    fwht_inplace,
    padded_dim,
    recommended_sparsity,
    sparse_matmat,
    sparse_matvec,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
