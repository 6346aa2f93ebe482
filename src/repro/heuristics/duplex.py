"""Duplex heuristic (Braun et al. baseline, extension).

Duplex runs Min-Min and Max-Min on the batch and keeps whichever
schedule has the smaller batch makespan — hedging between "short jobs
first" and "long jobs first" per batch at twice the cost of either.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitness import assignment_makespan
from repro.grid.batch import Batch, ScheduleResult
from repro.grid.security import DEFAULT_LAMBDA, RiskMode
from repro.heuristics.base import SecurityDrivenScheduler
from repro.heuristics.maxmin import MaxMinScheduler
from repro.heuristics.minmin import MinMinScheduler

__all__ = ["DuplexScheduler"]


class DuplexScheduler(SecurityDrivenScheduler):
    """Best of Min-Min and Max-Min per batch, by batch makespan."""

    algorithm = "Duplex"

    def __init__(
        self,
        mode: RiskMode | str = RiskMode.SECURE,
        *,
        f: float = 0.5,
        lam: float = DEFAULT_LAMBDA,
    ) -> None:
        super().__init__(mode, f=f, lam=lam)
        self._members = (
            MinMinScheduler(mode, f=f, lam=lam),
            MaxMinScheduler(mode, f=f, lam=lam),
        )

    def schedule(self, batch: Batch) -> ScheduleResult:
        best: ScheduleResult | None = None
        best_ms = np.inf
        for member in self._members:
            result = member.schedule(batch)
            assignment = np.asarray(result.assignment)
            mask = assignment >= 0
            if not mask.any():
                if best is None:
                    best = result
                continue
            ms = assignment_makespan(
                assignment[mask], batch.etc[mask], batch.ready
            )
            if ms < best_ms:
                best, best_ms = result, ms
        assert best is not None  # at least one member always returns
        return best
