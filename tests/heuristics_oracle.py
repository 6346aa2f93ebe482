"""Test-local oracle for the Min-Min/Max-Min and Sufferage heuristics.

The numpy round loops these heuristics shipped with before their
per-round work was trimmed, kept verbatim, together with the masked
completion matrix they consumed: Eq. 1 eligibility as ``pfail <= tol +
1e-12`` and completion as ``max(ready, now) + etc``.  The shipped
schedulers must return exactly the same ``assignment`` and ``order``.
Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.grid.batch import Batch
from repro.grid.security import failure_probability, risk_tolerance


def oracle_eligibility(
    security_demands, security_levels, *, mode, f, lam, secure_only=None
) -> np.ndarray:
    """Boolean (J, S) eligibility: Eq. 1 probability against the mode."""
    sd = np.asarray(security_demands, dtype=float).reshape(-1, 1)
    sl = np.asarray(security_levels, dtype=float).reshape(1, -1)
    tol = risk_tolerance(mode, f)
    pfail = failure_probability(sd, sl, lam=lam)
    elig = pfail <= tol + 1e-12
    if secure_only is not None:
        mask = np.asarray(secure_only, dtype=bool).reshape(-1, 1)
        strict = sd <= sl
        elig = np.where(mask, strict, elig)
    return elig


def oracle_masked_completion(batch: Batch, *, mode, f, lam) -> np.ndarray:
    """``max(ready, now) + etc`` with ineligible entries at +inf."""
    comp = np.maximum(batch.ready, batch.now)[None, :] + batch.etc
    elig = oracle_eligibility(
        batch.security_demands,
        batch.site_security,
        mode=mode,
        f=f,
        lam=lam,
        secure_only=batch.secure_only,
    )
    comp[~elig] = np.inf
    return comp


def oracle_greedy(batch: Batch, *, pick, mode, f, lam):
    """Min-Min (``pick="min"``) or Max-Min (``"max"``): (assignment, order)."""
    comp = oracle_masked_completion(batch, mode=mode, f=f, lam=lam)
    n_jobs = batch.n_jobs
    comp = comp.copy()
    etc = batch.etc
    ready = np.maximum(batch.ready, batch.now).astype(float).copy()
    assignment = np.full(n_jobs, -1, dtype=int)
    order: list[int] = []
    left = np.ones(n_jobs, dtype=bool)
    # Jobs with no eligible site are deferred outright.
    feasible = np.isfinite(comp).any(axis=1)
    left &= feasible

    while left.any():
        best_site = np.argmin(comp, axis=1)
        best_val = comp[np.arange(n_jobs), best_site]
        candidates = np.where(left, best_val, np.inf if pick == "min" else -np.inf)
        j = int(np.argmin(candidates) if pick == "min" else np.argmax(candidates))
        s = int(best_site[j])
        assignment[j] = s
        order.append(j)
        left[j] = False
        ready[s] = best_val[j]
        # Only the chosen site's column changes.
        col = ready[s] + etc[:, s]
        col[np.isinf(comp[:, s])] = np.inf
        comp[:, s] = col

    return assignment, np.array(order, dtype=int)


def oracle_sufferage(batch: Batch, *, mode, f, lam):
    """Sufferage: (assignment, order)."""
    n_jobs = batch.n_jobs
    comp = oracle_masked_completion(batch, mode=mode, f=f, lam=lam)
    etc = batch.etc
    ready = np.maximum(batch.ready, batch.now).astype(float).copy()
    assignment = np.full(n_jobs, -1, dtype=int)
    order: list[int] = []
    left = np.isfinite(comp).any(axis=1)

    while left.any():
        best_site = np.argmin(comp, axis=1)
        best_val = comp[np.arange(n_jobs), best_site]
        # Second-best completion: mask out each job's best column.
        masked = comp.copy()
        masked[np.arange(n_jobs), best_site] = np.inf
        second_val = masked.min(axis=1)
        # inf when only one eligible site; infeasible rows (both
        # values inf) would give NaN, mask them to -inf instead.
        with np.errstate(invalid="ignore"):
            sufferage = np.where(
                np.isfinite(best_val), second_val - best_val, -np.inf
            )

        # Choose the unassigned job with the largest sufferage;
        # break ties by earliest best completion, then job index.
        sv = np.where(left, sufferage, -np.inf)
        top = sv.max()
        tied = np.flatnonzero(sv == top)
        j = int(tied[np.argmin(best_val[tied])])
        s = int(best_site[j])
        assignment[j] = s
        order.append(j)
        left[j] = False
        ready[s] = best_val[j]
        col = ready[s] + etc[:, s]
        col[np.isinf(comp[:, s])] = np.inf
        comp[:, s] = col

    return assignment, np.array(order, dtype=int)
