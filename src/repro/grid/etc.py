"""Expected-Time-to-Compute (ETC) model.

The heuristics and the GA both operate on an ETC matrix: entry (j, s)
is the *execution time* of job j on site s.  Under the aggregate-speed
site abstraction this is simply ``workload_j / speed_s``, vectorised
with no Python loops.  The engine builds one (N, S) table per run and
gathers each batch's rows from it: the quotients are elementwise, so a
gathered row equals one computed for the batch alone.

``completion_matrix`` adds the site ready times to produce the
*expected completion times* the heuristics minimise.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_1d

__all__ = ["etc_matrix", "completion_matrix", "masked_completion"]


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


def completion_matrix(etc: np.ndarray, ready, now: float = 0.0) -> np.ndarray:
    """Expected completion times: ``max(ready, now) + etc``.

    ``ready`` is the per-site next-available-time vector; a site that
    freed up in the past cannot start a job before ``now``.
    """
    etc = np.asarray(etc, dtype=float)
    r = check_1d("ready", ready)
    if etc.ndim != 2 or etc.shape[1] != r.shape[0]:
        raise ValueError(
            f"etc shape {etc.shape} incompatible with {r.shape[0]} sites"
        )
    return np.maximum(r, now)[None, :] + etc


def masked_completion(completion: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """Set ineligible (job, site) completion entries to +inf.

    Returns a new array; the heuristics then take row-wise minima
    without special-casing eligibility.
    """
    completion = np.asarray(completion, dtype=float)
    eligible = np.asarray(eligible, dtype=bool)
    if completion.shape != eligible.shape:
        raise ValueError(
            f"completion {completion.shape} and eligibility {eligible.shape} "
            "must have the same shape"
        )
    out = completion.copy()
    out[~eligible] = np.inf
    return out
