"""Time-resolved metrics derived from a simulation result.

The paper reports end-of-run aggregates;
:func:`due_date_violations` adds the one view a dynamic scenario's
``due=`` knob (:mod:`repro.workloads.dynamics`) calls for: the jobs
that finished after their due dates.
"""

from __future__ import annotations

from repro.grid.engine import SimulationResult
from repro.grid.job import JobState

__all__ = ["due_date_violations"]


def due_date_violations(
    result: SimulationResult,
) -> tuple[tuple[int, float], ...]:
    """Jobs that finished after their assigned due date.

    Consumes the due dates a dynamic scenario's ``due=`` knob attached
    to the run (``result.timeline.due_dates``); returns
    ``(job_id, lateness)`` pairs in job-id order, lateness strictly
    positive.  Cancelled jobs never violate (they withdrew), and jobs
    without a due date are skipped.  Raises ``ValueError`` when the
    result carries no timeline or the timeline assigns no due dates —
    "zero violations" and "due dates were never in play" must not be
    conflated.
    """
    timeline = result.timeline
    if timeline is None or not timeline.due_dates:
        raise ValueError(
            "the run has no due dates; generate the scenario with the "
            "due= dynamics knob (see repro.workloads.dynamics)"
        )
    due = timeline.due_map()
    out = []
    for rec in result.records:
        if rec.state is JobState.CANCELLED:
            continue
        deadline = due.get(rec.job.job_id)
        if deadline is None:
            continue
        lateness = float(rec.completion) - float(deadline)
        if lateness > 0:
            out.append((rec.job.job_id, lateness))
    return tuple(sorted(out))
