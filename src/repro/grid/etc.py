"""Expected-Time-to-Compute (ETC) model.

The heuristics and the GA both operate on an ETC matrix: entry (j, s)
is the *execution time* of job j on site s.  Under the aggregate-speed
site abstraction this is simply ``workload_j / speed_s``, vectorised
with no Python loops.  The engine builds one (N, S) table per run and
gathers each batch's rows from it: the quotients are elementwise, so a
gathered row equals one computed for the batch alone.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_1d

__all__ = ["etc_matrix"]


def etc_matrix(workloads, speeds) -> np.ndarray:
    """Execution-time matrix, shape (J, S): ``workloads[:,None]/speeds``.

    Raises if any workload is negative or any speed is non-positive.
    """
    w = check_1d("workloads", workloads)
    v = check_1d("speeds", speeds)
    if (w < 0).any():
        raise ValueError("workloads must be non-negative")
    if (v <= 0).any():
        raise ValueError("speeds must be strictly positive")
    return w[:, None] / v[None, :]
