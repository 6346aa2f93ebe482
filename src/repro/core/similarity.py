"""Vector similarity for history-table matching (paper Eq. 2).

The paper defines, for two k-element vectors a and b::

    Similarity(a, b) = 1 - sum_i |a_i - b_i| / max{max_i a_i, max_i b_i}

Taken literally the numerator grows with k while the denominator does
not, so for k > 1 the value is typically far below 0 and a fixed 0.8
threshold would never match anything.  We therefore provide both:

* ``normalized=True`` (default): divide the summed deviation by k,
  i.e. ``1 - mean|a_i - b_i| / max{...}`` — the only reading under
  which Table 1's 0.8 threshold behaves as described;
* ``normalized=False``: the literal formula, for fidelity studies.

An entry's overall similarity to the incoming batch is the *average*
of the three per-parameter similarities — site ready times, flattened
ETC matrix, job security demands — exactly the three inputs the paper
stores per lookup-table entry.
"""

from __future__ import annotations

import numpy as np

__all__ = ["vector_similarity", "population_similarity", "batch_similarity"]


def vector_similarity(a, b, *, normalized: bool = True) -> float:
    """Eq. 2 similarity between equal-length non-negative vectors.

    Returns 1.0 for two identical vectors (including all-zero ones);
    values may be negative for very dissimilar vectors.
    """
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.shape != bv.shape:
        raise ValueError(
            f"vectors must have equal length, got {av.size} and {bv.size}"
        )
    if av.size == 0:
        raise ValueError("similarity of empty vectors is undefined")
    denom = max(av.max(), bv.max())
    if denom <= 0:
        # Both vectors are entirely <= 0; identical-zero means similar.
        return 1.0 if np.array_equal(av, bv) else 0.0
    total = float(np.abs(av - bv).sum())
    if normalized:
        total /= av.size
    return 1.0 - total / denom


def population_similarity(stack, vec, *, normalized: bool = True) -> np.ndarray:
    """Eq. 2 similarity of every row of ``stack`` against ``vec``.

    ``stack`` is a (K, n) matrix of K stored vectors; the return value
    is a (K,) array where entry k equals
    ``vector_similarity(stack[k], vec)`` exactly (same operations in
    the same order, so the results are bit-identical).  This is the
    validating entry point; the vectorised :meth:`HistoryTable.query
    <repro.core.history.HistoryTable.query>` runs the same kernel on
    its own row buffers: one numpy pass replaces K Python-level
    comparisons.
    """
    m = np.asarray(stack, dtype=float)
    v = np.asarray(vec, dtype=float).ravel()
    if m.ndim != 2:
        raise ValueError(f"stack must be 2-D (K, n), got shape {m.shape}")
    if m.shape[1] != v.size:
        raise ValueError(
            f"stack rows have length {m.shape[1]}, vector has {v.size}"
        )
    if v.size == 0:
        raise ValueError("similarity of empty vectors is undefined")
    if m.shape[0] == 0:
        return np.empty(0, dtype=float)
    return _row_similarity(m, v, normalized)


def _row_similarity(m: np.ndarray, v: np.ndarray, normalized: bool) -> np.ndarray:
    """:func:`population_similarity` without its validation: ``m`` a
    non-empty (K, n) float matrix, ``v`` an (n,) float vector, n > 0.

    The history table's query calls this on its own row buffers.  The
    error-state context is entered only when some row is degenerate,
    the one case that divides by zero.
    """
    denom = np.maximum(m.max(axis=1), v.max())
    totals = np.abs(m - v[None, :]).sum(axis=1)
    if normalized:
        totals = totals / v.size
    degenerate = denom <= 0  # both rows entirely <= 0 (see above)
    if not degenerate.any():
        return 1.0 - totals / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = 1.0 - totals / denom
    sims[degenerate] = np.where(
        (m[degenerate] == v[None, :]).all(axis=1), 1.0, 0.0
    )
    return sims


def batch_similarity(
    ready_a,
    etc_a,
    sd_a,
    ready_b,
    etc_b,
    sd_b,
    *,
    normalized: bool = True,
) -> float:
    """Average Eq. 2 similarity over the three lookup parameters.

    The two batches must have identical shapes (same number of jobs
    and sites); shape-incompatible entries are filtered out before
    this is called.
    """
    etc_a = np.asarray(etc_a, dtype=float)
    etc_b = np.asarray(etc_b, dtype=float)
    if etc_a.shape != etc_b.shape:
        raise ValueError(
            f"ETC shapes differ: {etc_a.shape} vs {etc_b.shape}"
        )
    sims = (
        vector_similarity(ready_a, ready_b, normalized=normalized),
        vector_similarity(etc_a.ravel(), etc_b.ravel(), normalized=normalized),
        vector_similarity(sd_a, sd_b, normalized=normalized),
    )
    return float(np.mean(sims))
