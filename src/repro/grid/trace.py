"""Execution-trace recording and the versioned trace codec.

With ``GridSimulator(..., record_attempts=True)`` the engine logs one
:class:`Attempt` per dispatch — (job, site, start, end, outcome) — into
an :class:`AttemptLog`, which a recorded trace carries and replay
checks attempt by attempt.

:func:`save_trace` / :func:`load_trace` give a whole recorded run — the
grid, the job batch, the dynamic timeline, and the attempt stream — a
durable JSONL form (:class:`GridTrace`).  The codec is versioned like
the run store: the header line carries ``schema_version`` and a reader
refuses any version it does not know, writes are atomic (temp file +
rename), and a round-trip is bit-identical — which is what makes
``repro-grid replay`` able to re-execute a recorded run exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.grid.job import Job
from repro.grid.site import Grid, Site
from repro.grid.timeline import DynamicTimeline, SiteOutage
from repro.util.atomic import atomic_write_text

__all__ = [
    "Attempt",
    "AttemptLog",
    "GridTrace",
    "TRACE_SCHEMA_VERSION",
    "save_trace",
    "load_trace",
]


@dataclass(frozen=True, slots=True)
class Attempt:
    """One execution attempt of one job on one site."""

    job_id: int
    site_id: int
    start: float
    end: float
    failed: bool
    risky: bool  # SL < SD at dispatch time
    attempt_index: int  # 1 for the first try

    @property
    def duration(self) -> float:
        """Site occupancy of this attempt (seconds)."""
        return self.end - self.start


@dataclass
class AttemptLog:
    """Append-only log of attempts, ordered by dispatch."""

    attempts: list[Attempt] = field(default_factory=list)

    def record(self, attempt: Attempt) -> None:
        """Append one attempt (engine hook)."""
        if attempt.end < attempt.start:
            raise ValueError(
                f"attempt ends before it starts: {attempt}"
            )
        self.attempts.append(attempt)

    def __len__(self) -> int:
        return len(self.attempts)

    def __iter__(self):
        return iter(self.attempts)

    # -- selections ----------------------------------------------------
    def for_job(self, job_id: int) -> list[Attempt]:
        """All attempts of one job, in dispatch order."""
        return [a for a in self.attempts if a.job_id == job_id]

    def for_site(self, site_id: int) -> list[Attempt]:
        """All attempts executed on one site."""
        return [a for a in self.attempts if a.site_id == site_id]

    def failures(self) -> list[Attempt]:
        """All failed attempts."""
        return [a for a in self.attempts if a.failed]

    # -- totals ----------------------------------------------------------
    def wasted_time(self) -> float:
        """Total site-seconds consumed by failed attempts."""
        return float(sum(a.duration for a in self.attempts if a.failed))

    def total_busy_time(self) -> float:
        """Total site-seconds consumed by all attempts."""
        return float(sum(a.duration for a in self.attempts))


# ----------------------------------------------------------------------
# Versioned trace codec
# ----------------------------------------------------------------------

#: current trace file schema; bump on any incompatible row change
TRACE_SCHEMA_VERSION = 1
#: the ``kind`` tag that marks a file as a grid trace
TRACE_KIND = "grid-trace"


@dataclass(frozen=True)
class GridTrace:
    """One recorded run as a self-contained value.

    ``meta`` is an opaque JSON-able dict owned by the caller — the
    experiments layer stashes the scheduler ref, settings, variant and
    recorded report there; this module never interprets it, which
    keeps the grid layer free of upward dependencies.
    """

    meta: dict
    grid: Grid
    jobs: tuple[Job, ...]
    timeline: DynamicTimeline | None = None
    attempts: AttemptLog | None = None


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_trace(path: str | Path, trace: GridTrace) -> Path:
    """Write ``trace`` to ``path`` as versioned JSONL, atomically.

    Line 1 is the header (``schema_version``, ``kind``, ``meta``);
    every further line is one typed row.  The write goes through
    :func:`repro.util.atomic.atomic_write_text`, so a crash leaves
    either the complete trace or the previous file — never a prefix.
    """
    lines = [
        _dump(
            {
                "schema_version": TRACE_SCHEMA_VERSION,
                "kind": TRACE_KIND,
                "meta": trace.meta,
            }
        )
    ]
    for site in trace.grid.sites:
        lines.append(
            _dump(
                {
                    "row": "site",
                    "site_id": int(site.site_id),
                    "speed": float(site.speed),
                    "security_level": float(site.security_level),
                    "nodes": int(site.nodes),
                }
            )
        )
    for job in trace.jobs:
        lines.append(
            _dump(
                {
                    "row": "job",
                    "job_id": int(job.job_id),
                    "arrival": float(job.arrival),
                    "workload": float(job.workload),
                    "security_demand": float(job.security_demand),
                    "nodes": int(job.nodes),
                }
            )
        )
    if trace.timeline is not None:
        t = trace.timeline
        lines.append(_dump({"row": "timeline", "online": bool(t.online)}))
        for job_id, time in t.cancels:
            lines.append(
                _dump({"row": "cancel", "job_id": int(job_id), "time": float(time)})
            )
        for outage in t.outages:
            lines.append(
                _dump(
                    {
                        "row": "outage",
                        "site_id": int(outage.site_id),
                        "start": float(outage.start),
                        "end": float(outage.end),
                    }
                )
            )
        for job_id, factor in t.exec_factors:
            lines.append(
                _dump(
                    {"row": "factor", "job_id": int(job_id), "factor": float(factor)}
                )
            )
        for job_id, due in t.due_dates:
            lines.append(
                _dump({"row": "due", "job_id": int(job_id), "due": float(due)})
            )
    if trace.attempts is not None:
        lines.append(_dump({"row": "attempt-log"}))
        for a in trace.attempts:
            lines.append(
                _dump(
                    {
                        "row": "attempt",
                        "job_id": int(a.job_id),
                        "site_id": int(a.site_id),
                        "start": float(a.start),
                        "end": float(a.end),
                        "failed": bool(a.failed),
                        "risky": bool(a.risky),
                        "attempt_index": int(a.attempt_index),
                    }
                )
            )
    return atomic_write_text(Path(path), "\n".join(lines) + "\n")


def load_trace(path: str | Path) -> GridTrace:
    """Read a trace written by :func:`save_trace`.

    Mirrors the run store's migration policy: a header whose
    ``schema_version`` this reader does not support is refused rather
    than half-parsed, as is any unknown row type — a trace is evidence
    for a bit-identical replay, so "best effort" is the wrong failure
    mode.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path} is not a grid trace: empty file")
    head = json.loads(lines[0])
    if not isinstance(head, dict) or head.get("kind") != TRACE_KIND:
        raise ValueError(
            f"{path} is not a grid trace (missing kind={TRACE_KIND!r} header)"
        )
    version = head.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema_version {version!r} "
            f"(this reader supports {TRACE_SCHEMA_VERSION})"
        )
    meta = head.get("meta") or {}
    sites: list[Site] = []
    jobs: list[Job] = []
    cancels: list[tuple[int, float]] = []
    outages: list[SiteOutage] = []
    factors: list[tuple[int, float]] = []
    dues: list[tuple[int, float]] = []
    attempt_rows: list[Attempt] = []
    has_timeline = False
    has_attempts = False
    online = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = json.loads(line)
        kind = row.get("row")
        if kind == "site":
            sites.append(
                Site(
                    site_id=int(row["site_id"]),
                    speed=float(row["speed"]),
                    security_level=float(row["security_level"]),
                    nodes=int(row["nodes"]),
                )
            )
        elif kind == "job":
            jobs.append(
                Job(
                    job_id=int(row["job_id"]),
                    arrival=float(row["arrival"]),
                    workload=float(row["workload"]),
                    security_demand=float(row["security_demand"]),
                    nodes=int(row["nodes"]),
                )
            )
        elif kind == "timeline":
            has_timeline = True
            online = bool(row["online"])
        elif kind == "cancel":
            has_timeline = True
            cancels.append((int(row["job_id"]), float(row["time"])))
        elif kind == "outage":
            has_timeline = True
            outages.append(
                SiteOutage(
                    site_id=int(row["site_id"]),
                    start=float(row["start"]),
                    end=float(row["end"]),
                )
            )
        elif kind == "factor":
            has_timeline = True
            factors.append((int(row["job_id"]), float(row["factor"])))
        elif kind == "due":
            has_timeline = True
            dues.append((int(row["job_id"]), float(row["due"])))
        elif kind == "attempt-log":
            has_attempts = True
        elif kind == "attempt":
            has_attempts = True
            attempt_rows.append(
                Attempt(
                    job_id=int(row["job_id"]),
                    site_id=int(row["site_id"]),
                    start=float(row["start"]),
                    end=float(row["end"]),
                    failed=bool(row["failed"]),
                    risky=bool(row["risky"]),
                    attempt_index=int(row["attempt_index"]),
                )
            )
        else:
            raise ValueError(f"{path}:{lineno}: unknown trace row {kind!r}")
    if not sites:
        raise ValueError(f"{path} has no site rows")
    if not jobs:
        raise ValueError(f"{path} has no job rows")
    grid = Grid(tuple(sorted(sites, key=lambda s: s.site_id)))
    timeline = None
    if has_timeline:
        timeline = DynamicTimeline(
            cancels=tuple(cancels),
            outages=tuple(outages),
            exec_factors=tuple(factors),
            due_dates=tuple(dues),
            online=online,
        )
    log = None
    if has_attempts:
        log = AttemptLog()
        for a in attempt_rows:
            log.record(a)
    return GridTrace(
        meta=meta, grid=grid, jobs=tuple(jobs), timeline=timeline, attempts=log
    )
