"""The compiled kernels' cases of ``test_kernels.py``, the CLI's output
byte pins of ``csq embed`` (at any block size too, and for two jobs in one
process), the explicit model and ``csq query --all-pairs``, the embed
files against the oracles and the embed failures, again on the kernels
compiled without their AVX2 clones.

On a host with AVX2 the loaded library always runs its AVX2 build, whose
tile stages work on vectors of four doubles; here the loader hands out the
baseline build instead (``baseline_loader``), with vectors of two, so the
same oracles and sha256 pins check it too.
"""

import pytest

from test_cli import (  # noqa: F401
    test_back_to_back_embeds_draw_the_operator_once,
    test_all_pairs_csv_bytes_are_pinned,
    test_embed_files_match_oracles_at_any_block_size,
    test_embed_output_bytes_are_pinned,
    test_embed_output_bytes_hold_at_any_block_size,
    test_explicit_model_bytes_are_pinned,
    test_failed_embed_publishes_nothing,
    test_the_lowest_failing_block_is_reported,
)
from test_kernels import (  # noqa: F401
    kernels,
    test_embed_block_edges_match_oracles,
    test_embed_matches_row_layout_oracles,
    test_native_fused_quantizer_matches_the_numpy_stages,
    test_native_precondition_at_every_padded_size,
    test_native_precondition_matches_oracle,
    test_native_project_matches_bincount,
    test_native_quantize_exact_sign_ties,
    test_native_records_match_the_documented_layout,
    test_native_rows_are_measured_as_numpy_measures_them,
    test_native_rows_flag_non_finite_entries_and_overflowing_norms,
)

pytestmark = pytest.mark.usefixtures("baseline_loader")
