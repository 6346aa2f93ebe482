"""The security-driven Sufferage heuristic (paper Section 2, item 2).

Sufferage (Maheswaran et al.) commits, each round, the job that would
"suffer" most if denied its best site: its *sufferage value* is the
difference between its second-earliest and earliest expected
completion times.  A job with exactly one eligible site suffers
unboundedly (it has no second choice), so it gets priority — we give
it an infinite sufferage value, with the completion time as a
deterministic tie-breaker.
"""

from __future__ import annotations

import numpy as np

from repro.grid.batch import Batch, ScheduleResult
from repro.heuristics.base import SecurityDrivenScheduler

__all__ = ["SufferageScheduler"]


class SufferageScheduler(SecurityDrivenScheduler):
    """Sufferage under a secure / risky / f-risky mode."""

    algorithm = "Sufferage"

    def schedule(self, batch: Batch) -> ScheduleResult:
        n_jobs, n_sites = batch.etc.shape
        comp = self.masked_completion(batch)
        etc = batch.etc
        assignment = np.full(n_jobs, -1, dtype=int)
        left = np.isfinite(comp).any(axis=1)
        order = np.empty(int(left.sum()), dtype=int)
        blocked = np.isinf(comp)
        # Sufferage of the unassigned jobs; committed and infeasible
        # jobs stay at -inf so they never win a round.
        sv = np.full(n_jobs, -np.inf)
        if n_sites == 1:
            second_val = np.full(n_jobs, np.inf)  # no second choice

        for k in range(order.size):
            if n_sites > 1:
                # Earliest and second-earliest completion per job: a
                # selection, not arithmetic, so the values are exact.
                part = comp.copy()
                part.partition(1, axis=1)
                best_val, second_val = part[:, 0], part[:, 1]
            else:
                best_val = comp[:, 0]
            # inf when only one eligible site (no second choice).
            np.subtract(second_val, best_val, out=sv, where=left)

            # Choose the unassigned job with the largest sufferage;
            # break ties by earliest best completion, then job index.
            tied = (sv == sv.max()).nonzero()[0]
            j = int(tied[best_val[tied].argmin()])
            s = int(comp[j].argmin())
            assignment[j] = s
            order[k] = j
            left[j] = False
            sv[j] = -np.inf
            col = comp[:, s]
            np.add(best_val[j], etc[:, s], out=col)
            col[blocked[:, s]] = np.inf

        return ScheduleResult(assignment=assignment, order=order)
