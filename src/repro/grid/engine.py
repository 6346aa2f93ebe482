"""Discrete-event simulation engine for periodic online batch scheduling.

This implements the paper's Figure 1 system model:

1. jobs *arrive* over time and accumulate in the scheduler queue;
2. every ``batch_interval`` simulated seconds a *scheduling event*
   fires, the pluggable batch scheduler maps the queued jobs to sites,
   and the engine dispatches them;
3. dispatched jobs occupy their site serially in dispatch order; at
   the end of an attempt the Eq. 1 failure model decides success;
4. a failed job re-enters the queue flagged *secure-only* — the paper's
   fail-stop rule that a failed job "will not ... take any risk again".

The engine is scheduler-agnostic: anything exposing
``schedule(batch: Batch) -> ScheduleResult`` (see
:mod:`repro.heuristics.base`) plugs in, which is how the six
security-driven heuristics and the STGA are all evaluated on identical
event streams.

Dynamic runs pass a :class:`~repro.grid.timeline.DynamicTimeline` to
:meth:`GridSimulator.run`, which injects CANCEL / SITE_DOWN / SITE_UP
events and per-job execution-time factors, and — when the timeline is
*online* — replaces the periodic tick with event-driven rescheduling:
every disruptive event (arrival, completion, cancellation, site
recovery) re-runs the scheduler on the residual job set, and only the
jobs whose assigned site is free *now* are started.  A static run
(``timeline=None``) takes exactly the pre-existing code path.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.grid.batch import Batch, ScheduleResult, check_order_permutation
from repro.grid.etc import etc_matrix
from repro.grid.events import Event, EventKind, EventQueue
from repro.grid.job import Job, JobRecord, JobState
from repro.grid.reliability import ExponentialFailure, FailureLaw
from repro.grid.security import DEFAULT_LAMBDA
from repro.grid.site import Grid
from repro.grid.timeline import DynamicTimeline
from repro.grid.trace import Attempt, AttemptLog
from repro.util.rng import as_generator
from repro.util.timing import Stopwatch
from repro.util.validation import check_positive

__all__ = ["GridSimulator", "SimulationResult", "SchedulerDeadlock"]


class SchedulerDeadlock(RuntimeError):
    """Raised when queued jobs can never be placed and fallback is off."""


@dataclass
class SimulationResult:
    """Everything the metrics layer needs about one simulation run."""

    grid: Grid
    records: list[JobRecord]
    busy_time: np.ndarray  # (S,) seconds each site was occupied
    makespan: float  # max job completion time
    n_batches: int  # scheduling events that dispatched >= 1 job
    n_forced: int  # jobs placed by the engine fallback
    scheduler_seconds: float  # wall-clock time inside scheduler.schedule
    batch_sizes: list[int] = field(default_factory=list)
    #: per-attempt execution trace; populated only when the simulator
    #: was built with ``record_attempts=True``
    attempts: AttemptLog | None = None
    #: jobs withdrawn by a CANCEL event before ever running to
    #: completion (their records carry ``JobState.CANCELLED`` and NaN
    #: completion times; the metrics layer excludes them)
    n_cancelled: int = 0
    #: the dynamic timeline this run executed under, if any
    timeline: DynamicTimeline | None = None

    def completions(self) -> np.ndarray:
        """Vector of job completion times ``c_i``."""
        return np.array([r.completion for r in self.records], dtype=float)

    def arrivals(self) -> np.ndarray:
        """Vector of job arrival times ``a_i``."""
        return np.array([r.job.arrival for r in self.records], dtype=float)

    def first_starts(self) -> np.ndarray:
        """Vector of first-attempt start times ``b_i``."""
        return np.array([r.first_start for r in self.records], dtype=float)


class GridSimulator:
    """Simulate one workload under one scheduler on one grid.

    Parameters
    ----------
    grid:
        The resource sites.
    scheduler:
        Batch scheduler implementing ``schedule(Batch) -> ScheduleResult``.
    batch_interval:
        Seconds between scheduling events (paper: "jobs are
        accumulated and then scheduled in batches").
    lam:
        Eq. 1 failure-rate constant.
    failure_point:
        Where inside a doomed attempt the fail-stop occurs:
        ``"uniform"`` (default) draws the abort point uniformly over
        the attempt, ``"end"`` charges the full execution time.
    fallback:
        ``"force_max_sl"`` (default) places a job that no scheduler
        will accept (e.g. SD above every SL under secure mode) on the
        most secure site once the system would otherwise deadlock;
        ``"error"`` raises :class:`SchedulerDeadlock` instead.
    rng:
        Seed or generator for failure sampling.
    failure_law:
        Pluggable :class:`~repro.grid.reliability.FailureLaw`; the
        default is Eq. 1's exponential law with rate ``lam``.  Note
        the *schedulers'* f-risky eligibility always uses Eq. 1 — the
        scheduler's beliefs and the world's behaviour are decoupled on
        purpose (model-mismatch studies).
    record_attempts:
        Keep a per-attempt :class:`~repro.grid.trace.AttemptLog` in
        the result (costs one record per dispatch).
    """

    def __init__(
        self,
        grid: Grid,
        scheduler,
        *,
        batch_interval: float = 100.0,
        lam: float = DEFAULT_LAMBDA,
        failure_point: str = "uniform",
        fallback: str = "force_max_sl",
        rng: int | np.random.Generator | None = 0,
        failure_law: FailureLaw | None = None,
        record_attempts: bool = False,
    ) -> None:
        if not hasattr(scheduler, "schedule"):
            raise TypeError(
                f"scheduler {scheduler!r} lacks a schedule(batch) method"
            )
        if failure_point not in ("uniform", "end"):
            raise ValueError(
                f"failure_point must be 'uniform' or 'end', got {failure_point!r}"
            )
        if fallback not in ("force_max_sl", "error"):
            raise ValueError(
                f"fallback must be 'force_max_sl' or 'error', got {fallback!r}"
            )
        check_positive("batch_interval", batch_interval)
        check_positive("lam", lam)
        self.grid = grid
        self.scheduler = scheduler
        self.batch_interval = float(batch_interval)
        self.lam = float(lam)
        self.failure_point = failure_point
        self.fallback = fallback
        self.rng = as_generator(rng)
        if failure_law is None:
            failure_law = ExponentialFailure(lam=lam)
        if not isinstance(failure_law, FailureLaw):
            raise TypeError(
                f"failure_law must be a FailureLaw, got {failure_law!r}"
            )
        self.failure_law = failure_law
        self.record_attempts = record_attempts
        self.stopwatch = Stopwatch()

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job] | Iterable[Job],
        *,
        timeline: DynamicTimeline | None = None,
    ) -> SimulationResult:
        """Simulate ``jobs`` to completion and return the result.

        ``timeline`` layers a dynamic event stream onto the run; with
        the default ``None`` the simulation is the pure static model
        and its event stream, RNG draws and result are byte-identical
        to versions of this engine that predate dynamic scenarios.
        """
        jobs = list(jobs)
        if not jobs:
            raise ValueError("cannot simulate an empty workload")
        records = [JobRecord(job=j) for j in jobs]
        by_id = {j.job_id: i for i, j in enumerate(jobs)}
        if len(by_id) != len(jobs):
            raise ValueError("duplicate job_ids in workload")

        events = EventQueue()
        for j in jobs:
            events.push(Event(j.arrival, EventKind.ARRIVAL, j.job_id))

        online = timeline is not None and timeline.online
        self._exec_factors = {}
        outage_ends: dict[int, deque] = {}
        if timeline is not None:
            for jid, t in timeline.cancels:
                if jid not in by_id:
                    raise ValueError(f"timeline cancels unknown job {jid}")
                events.push(Event(t, EventKind.CANCEL, jid))
            for outage in timeline.outages:
                if outage.site_id >= self.grid.n_sites:
                    raise ValueError(
                        f"timeline outage names unknown site {outage.site_id}"
                    )
                events.push(Event(outage.start, EventKind.SITE_DOWN, outage.site_id))
                events.push(Event(outage.end, EventKind.SITE_UP, outage.site_id))
                outage_ends.setdefault(outage.site_id, deque()).append(outage.end)
            for jid, factor in timeline.exec_factors:
                if jid not in by_id:
                    raise ValueError(f"timeline factor names unknown job {jid}")
                self._exec_factors[jid] = factor

        # Per-job columns gathered batch-by-batch in _build_batch; the
        # secure flag mirrors records[i].secure_only (flipped only in
        # the failed-completion branch below).  The run's whole (N, S)
        # ETC table is built (and validated) once: a batch's rows are
        # the same elementwise quotients, gathered by index.
        self._workloads = np.array([j.workload for j in jobs], dtype=float)
        self._sds = np.array([j.security_demand for j in jobs], dtype=float)
        self._secure_flags = np.array([r.secure_only for r in records], dtype=bool)
        self._etc = etc_matrix(self._workloads, self.grid.speeds)
        self._site_security = self.grid.security_levels
        self._speeds = self.grid.speeds

        queue: list[int] = []  # pending job ids, FIFO
        outcome: dict[int, bool] = {}  # job_id -> attempt failed?
        self._log = AttemptLog() if self.record_attempts else None
        free = np.zeros(self.grid.n_sites, dtype=float)  # site ready times
        busy = np.zeros(self.grid.n_sites, dtype=float)
        running = 0
        tick_pending = False
        n_batches = 0
        n_forced = 0
        n_cancelled = 0
        batch_sizes: list[int] = []
        done = 0

        def ensure_tick(now: float) -> None:
            # Online mode replaces the periodic tick with an immediate
            # replan: SCHEDULE has the lowest same-timestamp priority,
            # so a tick at `now` still sees every co-timed event.
            nonlocal tick_pending
            if not tick_pending:
                delay = 0.0 if online else self.batch_interval
                events.push(Event(now + delay, EventKind.SCHEDULE))
                tick_pending = True

        while done < len(jobs):
            if not events:
                raise SchedulerDeadlock(
                    f"{len(jobs) - done} job(s) unfinished but no events remain"
                )
            ev = events.pop()
            now = ev.time

            if ev.kind is EventKind.ARRIVAL:
                queue.append(ev.payload)
                ensure_tick(now)
                continue

            if ev.kind is EventKind.CANCEL:
                # Reneging: only a job still waiting in the queue can
                # be withdrawn; running/finished jobs ignore it.
                try:
                    queue.remove(ev.payload)
                except ValueError:
                    continue
                rec = records[by_id[ev.payload]]
                rec.state = JobState.CANCELLED
                done += 1
                n_cancelled += 1
                if online and queue:
                    ensure_tick(now)
                continue

            if ev.kind is EventKind.SITE_DOWN:
                # Model an outage as an advance reservation: the site
                # accepts no new attempt before the matching SITE_UP.
                # Attempts already in flight drain normally.
                site = ev.payload
                end = outage_ends[site].popleft()
                free[site] = max(float(free[site]), end)
                continue

            if ev.kind is EventKind.SITE_UP:
                # Capacity is back; in online mode that is a replan
                # opportunity for whatever is still queued.
                if online and queue:
                    ensure_tick(now)
                continue

            if ev.kind is EventKind.COMPLETION:
                running -= 1
                idx = by_id[ev.payload]
                rec = records[idx]
                failed = outcome.pop(ev.payload)
                if failed:
                    rec.ever_failed = True
                    rec.secure_only = True
                    self._secure_flags[idx] = True
                    rec.state = JobState.FAILED
                    queue.append(ev.payload)
                    ensure_tick(now)
                else:
                    rec.state = JobState.DONE
                    done += 1
                    if online and queue:
                        ensure_tick(now)
                continue

            # SCHEDULE tick
            tick_pending = False
            if not queue:
                continue
            batch_ids = list(queue)
            queue.clear()
            batch = self._build_batch(now, batch_ids, records, by_id, free)
            start = time.perf_counter()
            result = self.scheduler.schedule(batch)
            self.stopwatch.add("scheduler", time.perf_counter() - start)
            self._check_result(result, batch)

            if online:
                dispatched, deferred = self._dispatch_online(
                    now, batch, result, records, by_id, free, busy, outcome, events
                )
            else:
                dispatched = self._dispatch(
                    now, batch, result, records, by_id, free, busy, outcome, events
                )
                deferred = [
                    batch_ids[i]
                    for i in range(batch.n_jobs)
                    if result.assignment[i] < 0
                ]
            running += dispatched
            if dispatched:
                n_batches += 1
                batch_sizes.append(dispatched)

            if deferred:
                queue.extend(deferred)
                if running == 0 and len(events) == 0:
                    # Nothing in flight and nothing inbound: the queue
                    # can never drain on its own.
                    if self.fallback == "error":
                        raise SchedulerDeadlock(
                            f"jobs {deferred} have no eligible site and "
                            "fallback='error'"
                        )
                    n_forced += self._force_dispatch(
                        now, deferred, records, by_id, free, busy, outcome, events
                    )
                    running += len(deferred)
                    queue.clear()
                elif not online:
                    ensure_tick(now)
                # Online: re-ticking at `now` with unchanged state
                # would loop forever; the next disruptive event
                # (completion, arrival, cancel, site recovery) replans.

        completed = [
            r.completion for r in records if r.state is not JobState.CANCELLED
        ]
        makespan = max(completed) if completed else 0.0
        log = self._log
        self._log = None
        return SimulationResult(
            grid=self.grid,
            records=records,
            busy_time=busy,
            makespan=float(makespan),
            n_batches=n_batches,
            n_forced=n_forced,
            scheduler_seconds=self.stopwatch.total("scheduler"),
            batch_sizes=batch_sizes,
            attempts=log,
            n_cancelled=n_cancelled,
            timeline=timeline,
        )

    # ------------------------------------------------------------------
    def _build_batch(self, now, batch_ids, records, by_id, free) -> Batch:
        idxs = np.fromiter(
            map(by_id.__getitem__, batch_ids),
            dtype=np.int64,
            count=len(batch_ids),
        )
        return Batch(
            now=now,
            job_ids=np.array(batch_ids, dtype=int),
            workloads=self._workloads[idxs],
            security_demands=self._sds[idxs],
            secure_only=self._secure_flags[idxs],
            etc=self._etc[idxs],
            ready=free,  # Batch clips a copy to >= now
            site_security=self._site_security,
            speeds=self._speeds,
        )

    @staticmethod
    def _check_result(result: ScheduleResult, batch: Batch) -> None:
        a = np.asarray(result.assignment)
        if a.shape != (batch.n_jobs,):
            raise ValueError(
                f"scheduler returned assignment of shape {a.shape} for a "
                f"batch of {batch.n_jobs} jobs"
            )
        if (a >= batch.n_sites).any():
            raise ValueError(
                f"scheduler assigned a site index >= {batch.n_sites}"
            )
        if (a < -1).any():
            raise ValueError(
                "scheduler assignment contains site indices below -1"
            )
        # A ScheduleResult validated its (read-only) order when it was
        # built.  The engine also accepts any duck-typed result, so
        # check those here: a buggy third-party scheduler must not
        # dispatch through a malformed order (e.g. an unassigned job's
        # -1 site index, which numpy silently resolves to the last
        # site).  The exact type test keeps subclasses checked too.
        if type(result) is not ScheduleResult:
            check_order_permutation(a, result.order)

    def _start_attempt(
        self, now, rec, site_idx, free, busy, outcome, events
    ) -> None:
        """Dispatch one attempt of ``rec.job`` onto ``site_idx``."""
        sl = float(self.grid.security_levels[site_idx])
        speed = float(self.grid.speeds[site_idx])
        start = max(float(free[site_idx]), now)
        exec_time = rec.job.workload / speed
        if self._exec_factors:
            factor = self._exec_factors.get(rec.job.job_id)
            if factor is not None:
                exec_time *= factor

        pfail = self.failure_law.probability(rec.job.security_demand, sl)
        fails = bool(self.rng.random() < pfail)
        if fails:
            frac = (
                float(self.rng.uniform(np.finfo(float).tiny, 1.0))
                if self.failure_point == "uniform"
                else 1.0
            )
            occupancy = exec_time * frac
        else:
            occupancy = exec_time
        end = start + occupancy

        rec.attempts += 1
        if rec.attempts == 1:
            rec.first_start = start
        rec.state = JobState.RUNNING
        rec.sites_visited.append(site_idx)
        if sl < rec.job.security_demand:
            rec.took_risk = True
        if not fails:
            rec.completion = end

        free[site_idx] = end
        busy[site_idx] += occupancy
        outcome[rec.job.job_id] = fails
        if self._log is not None:
            self._log.record(
                Attempt(
                    job_id=rec.job.job_id,
                    site_id=site_idx,
                    start=start,
                    end=end,
                    failed=fails,
                    risky=sl < rec.job.security_demand,
                    attempt_index=rec.attempts,
                )
            )
        events.push(Event(end, EventKind.COMPLETION, rec.job.job_id))

    def _dispatch(
        self, now, batch, result, records, by_id, free, busy, outcome, events
    ) -> int:
        dispatched = 0
        assignment = np.asarray(result.assignment, dtype=int).tolist()
        job_ids = batch.job_ids.tolist()
        for i in np.asarray(result.order, dtype=int).tolist():
            rec = records[by_id[job_ids[i]]]
            self._start_attempt(
                now, rec, assignment[i], free, busy, outcome, events
            )
            dispatched += 1
        return dispatched

    def _dispatch_online(
        self, now, batch, result, records, by_id, free, busy, outcome, events
    ) -> tuple[int, list[int]]:
        """Online-mode dispatch: start only what can run *now*.

        At most one attempt per currently-free site; every other job —
        scheduler-deferred or aimed at a busy/down site — stays queued
        (in original queue order) for the next disruptive-event
        replan, which re-runs the scheduler on the residual set.
        """
        assignment = np.asarray(result.assignment, dtype=int).tolist()
        job_ids = batch.job_ids.tolist()
        taken = [False] * batch.n_jobs
        dispatched = 0
        for i in np.asarray(result.order, dtype=int).tolist():
            s = assignment[i]
            if free[s] > now:
                continue  # site busy or in an outage window: hold
            rec = records[by_id[job_ids[i]]]
            self._start_attempt(now, rec, s, free, busy, outcome, events)
            taken[i] = True
            dispatched += 1
        deferred = [jid for jid, t in zip(job_ids, taken) if not t]
        return dispatched, deferred

    def _force_dispatch(
        self, now, job_ids, records, by_id, free, busy, outcome, events
    ) -> int:
        """Fallback: place stuck jobs on the most secure site."""
        target = self.grid.max_security_site()
        for jid in job_ids:
            rec = records[by_id[jid]]
            rec.forced = True
            self._start_attempt(now, rec, target, free, busy, outcome, events)
        return len(job_ids)
