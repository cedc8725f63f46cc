"""Every case of ``test_kernels.py``, the CLI's output byte pins of
``csq embed`` (at any block size too, and for two jobs in one process)
and ``csq query --all-pairs``, the embed files against the oracles, the
embed failures, the all-pairs CSV against per-pair estimates and Python
formatting and at the route's cut-over, the exact or refused sums of wide sketches in ``csq query``,
and the explicit-model round trip, again on the numpy kernels.

The cases in ``test_kernels.py`` run on the compiled kernels whenever
they build; here the loader reports that they do not exist, so the same
oracles and sha256 pins check the numpy fallback. The cases that call
the compiled kernels directly skip.
"""

import pytest

from test_cli import (  # noqa: F401
    test_back_to_back_embeds_draw_the_operator_once,
    test_all_pairs_csv_bytes_are_pinned,
    test_all_pairs_cutover_keeps_the_bytes,
    test_all_pairs_lines_match_python_formatting,
    test_embed_files_match_oracles_at_any_block_size,
    test_embed_output_bytes_are_pinned,
    test_embed_output_bytes_hold_at_any_block_size,
    test_failed_embed_publishes_nothing,
    test_query_all_pairs_equals_per_pair_estimates,
    test_the_lowest_failing_block_is_reported,
    test_wide_sketch_sums_are_exact_or_refused,
)
from test_kernels import *  # noqa: F401,F403
from test_store import test_model_round_trip_explicit_matrix  # noqa: F401

pytestmark = pytest.mark.usefixtures("numpy_kernels")
