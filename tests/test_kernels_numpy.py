"""Every case of ``test_kernels.py``, the CLI's output byte pins of
``csq embed`` and ``csq query --all-pairs``, the all-pairs CSV against
per-pair estimates and Python formatting, and the explicit-model round
trip, again on the numpy kernels.

The cases in ``test_kernels.py`` run on the compiled kernels whenever
they build; here the loader reports that they do not exist, so the same
oracles and sha256 pins check the numpy fallback. The cases that call
the compiled kernels directly skip.
"""

import pytest

from test_cli import (  # noqa: F401
    test_all_pairs_csv_bytes_are_pinned,
    test_all_pairs_lines_match_python_formatting,
    test_embed_output_bytes_are_pinned,
    test_query_all_pairs_equals_per_pair_estimates,
)
from test_kernels import *  # noqa: F401,F403
from test_store import test_model_round_trip_explicit_matrix  # noqa: F401

pytestmark = pytest.mark.usefixtures("numpy_kernels")
