"""The security-driven Min-Min heuristic (paper Section 2, item 1).

Classic Min-Min (Maheswaran et al.; Braun et al.): repeatedly

1. for every unscheduled job, find the site giving its earliest
   expected completion time (over *eligible* sites only),
2. pick the job whose earliest completion is smallest overall,
3. commit it to that site and advance the site's ready time.

Jobs with no eligible site under the active risk mode are deferred
(assignment ``-1``) for a later batch.
"""

from __future__ import annotations

import numpy as np

from repro.grid.batch import Batch, ScheduleResult
from repro.heuristics.base import SecurityDrivenScheduler

__all__ = ["MinMinScheduler"]


class MinMinScheduler(SecurityDrivenScheduler):
    """Min-Min under a secure / risky / f-risky mode."""

    algorithm = "Min-Min"

    def schedule(self, batch: Batch) -> ScheduleResult:
        comp = self.masked_completion(batch)
        return _greedy_by_completion(batch, comp, pick="min")


def _greedy_by_completion(
    batch: Batch, comp: np.ndarray, *, pick: str
) -> ScheduleResult:
    """Shared Min-Min / Max-Min core.

    ``comp`` is the masked completion matrix, owned by the caller and
    updated in place; ``pick`` selects whether the job with the
    smallest ("min", Min-Min) or largest ("max", Max-Min) earliest
    completion is committed each round.
    """
    n_jobs = comp.shape[0]
    etc = batch.etc
    assignment = np.full(n_jobs, -1, dtype=int)
    # Jobs with no eligible site are deferred outright.
    left = np.isfinite(comp).any(axis=1)
    order = np.empty(int(left.sum()), dtype=int)
    blocked = np.isinf(comp)
    rows = np.arange(n_jobs)
    if pick == "min":
        idle, choose = np.inf, np.ndarray.argmin
    else:
        idle, choose = -np.inf, np.ndarray.argmax

    for k in range(order.size):
        best_site = comp.argmin(axis=1)
        best_val = comp[rows, best_site]
        j = int(choose(np.where(left, best_val, idle)))
        s = int(best_site[j])
        assignment[j] = s
        order[k] = j
        left[j] = False
        # Only the chosen site's column changes: its ready time is now
        # the committed job's completion.
        col = comp[:, s]
        np.add(best_val[j], etc[:, s], out=col)
        col[blocked[:, s]] = np.inf

    return ScheduleResult(assignment=assignment, order=order)
