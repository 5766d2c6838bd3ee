"""The one place numpy is imported.

numpy is a declared dependency (``pyproject.toml``); every columnar
consumer — the batch traffic generator, the batch fast-path lane, the
vectorized Lindley replay, the forensics window aggregation, the trace
exports' column renderer, the payload kernel's ``np.random.MT19937``
(reached only when a payload is drawn) — takes ``np`` from here.
"""

from __future__ import annotations

import numpy as np  # noqa: F401 - re-exported

#: constant: read by ``bench/run.py``, which predates the hard dependency
HAVE_NUMPY = True
