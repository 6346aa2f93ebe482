"""Dynamic-events timeline: the churn a director layers onto a run.

A :class:`DynamicTimeline` is the engine-facing description of
everything that happens to a scenario *beyond* its static job batch:
job cancellations, site outage windows, per-job execution-time
factors, and due dates.  It is deliberately a plain frozen value —
the director (:mod:`repro.workloads.dynamics`) draws one from seeded
RNG streams, the engine consumes it, and the trace codec
(:mod:`repro.grid.trace`) round-trips it bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive

__all__ = ["SiteOutage", "DynamicTimeline"]


@dataclass(frozen=True, slots=True)
class SiteOutage:
    """One breakdown window: ``site_id`` is unavailable on
    ``[start, end)``; capacity returns at ``end``."""

    site_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.site_id < 0:
            raise ValueError(f"site_id must be non-negative, got {self.site_id}")
        check_non_negative("start", self.start)
        if not self.end > self.start:
            raise ValueError(
                f"outage end must exceed start, got [{self.start}, {self.end}]"
            )


@dataclass(frozen=True)
class DynamicTimeline:
    """Everything dynamic about one run, as immutable event data.

    Parameters
    ----------
    cancels:
        ``(job_id, time)`` pairs — the job is withdrawn at ``time`` if
        it is still waiting in the queue (a running or finished job is
        past the point of no return and the cancel is a no-op).
    outages:
        :class:`SiteOutage` windows per site; may overlap in time
        across sites but must be disjoint and ordered within one site.
    exec_factors:
        ``(job_id, factor)`` pairs — the job's execution time is
        multiplied by ``factor`` (processing-time variability).
    due_dates:
        ``(job_id, due)`` pairs consumed by the metrics layer (the
        engine itself never preempts on a due date).
    online:
        When true the engine abandons the periodic batch tick and
        re-schedules the residual job set on every disruptive event.
    """

    cancels: tuple[tuple[int, float], ...] = ()
    outages: tuple[SiteOutage, ...] = ()
    exec_factors: tuple[tuple[int, float], ...] = ()
    due_dates: tuple[tuple[int, float], ...] = ()
    online: bool = False

    def __post_init__(self) -> None:
        for job_id, time in self.cancels:
            if job_id < 0:
                raise ValueError(f"cancel job_id must be non-negative, got {job_id}")
            check_non_negative("cancel time", time)
        by_site: dict[int, float] = {}
        for outage in self.outages:
            prev_end = by_site.get(outage.site_id)
            if prev_end is not None and outage.start < prev_end:
                raise ValueError(
                    f"site {outage.site_id} outages must be ordered and "
                    f"disjoint; window starting at {outage.start} overlaps "
                    f"one ending at {prev_end}"
                )
            by_site[outage.site_id] = outage.end
        for job_id, factor in self.exec_factors:
            if job_id < 0:
                raise ValueError(f"factor job_id must be non-negative, got {job_id}")
            check_positive("exec factor", factor)
        for job_id, due in self.due_dates:
            if job_id < 0:
                raise ValueError(f"due job_id must be non-negative, got {job_id}")
            check_non_negative("due date", due)

    def due_map(self) -> dict[int, float]:
        """``job_id -> due date`` lookup for the metrics layer."""
        return {job_id: due for job_id, due in self.due_dates}

    def outages_for(self, site_id: int) -> tuple[SiteOutage, ...]:
        """This site's outage windows in chronological order."""
        return tuple(o for o in self.outages if o.site_id == site_id)
