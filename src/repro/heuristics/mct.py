"""Minimum Completion Time (MCT) heuristic (Braun et al. baseline).

Jobs are taken in batch (arrival) order; each is immediately committed
to the eligible site with the earliest expected completion time.  One
pass, no reordering — the cheapest non-trivial online mapper, used as
an extension baseline.
"""

from __future__ import annotations

import numpy as np

from repro.grid.batch import Batch, ScheduleResult
from repro.heuristics.base import SecurityDrivenScheduler

__all__ = ["MCTScheduler"]


class MCTScheduler(SecurityDrivenScheduler):
    """MCT under a secure / risky / f-risky mode."""

    algorithm = "MCT"

    def schedule(self, batch: Batch) -> ScheduleResult:
        comp = self.masked_completion(batch)
        etc = batch.etc
        ready = batch.ready.copy()
        assignment = np.full(batch.n_jobs, -1, dtype=int)
        order: list[int] = []
        elig = np.isfinite(comp)

        for j in range(batch.n_jobs):
            row = np.where(elig[j], ready + etc[j], np.inf)
            if not np.isfinite(row).any():
                continue
            s = int(np.argmin(row))
            assignment[j] = s
            order.append(j)
            ready[s] = row[s]

        return ScheduleResult(
            assignment=assignment, order=np.array(order, dtype=int)
        )
