"""Opportunistic Load Balancing (OLB) heuristic (Braun et al. baseline).

Each job (in batch order) goes to the eligible site that becomes ready
soonest, regardless of how fast the site is.  Balances occupancy, not
completion times.
"""

from __future__ import annotations

import numpy as np

from repro.grid.batch import Batch, ScheduleResult
from repro.heuristics.base import SecurityDrivenScheduler

__all__ = ["OLBScheduler"]


class OLBScheduler(SecurityDrivenScheduler):
    """OLB under a secure / risky / f-risky mode."""

    algorithm = "OLB"

    def schedule(self, batch: Batch) -> ScheduleResult:
        elig = self.eligibility(batch)
        ready = batch.ready.copy()
        assignment = np.full(batch.n_jobs, -1, dtype=int)
        order: list[int] = []

        for j in range(batch.n_jobs):
            row = np.where(elig[j], ready, np.inf)
            if not np.isfinite(row).any():
                continue
            s = int(np.argmin(row))
            assignment[j] = s
            order.append(j)
            ready[s] += batch.etc[j, s]

        return ScheduleResult(
            assignment=assignment, order=np.array(order, dtype=int)
        )
