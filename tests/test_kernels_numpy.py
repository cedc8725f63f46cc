"""Every case of ``test_kernels.py``, and the CLI's output byte pins, again
on the numpy kernels.

The cases in ``test_kernels.py`` run on the compiled kernels whenever
they build; here the loader reports that they do not exist, so the same
oracles and sha256 pins check the numpy fallback. The cases that call
the compiled kernels directly skip.
"""

import pytest

from test_cli import test_embed_output_bytes_are_pinned  # noqa: F401
from test_kernels import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("numpy_kernels")
