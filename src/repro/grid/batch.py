"""The batch view handed to schedulers, and their reply.

At every scheduling tick the engine snapshots the queue and the grid
into a :class:`Batch` — exactly the information the paper's lookup
table stores per entry: the site ready times, the job execution-time
(ETC) matrix, and the job security demands.  Schedulers are pure
functions ``Batch -> ScheduleResult`` and never touch engine state,
which is what makes the GA fitness evaluation and the history-table
machinery testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Batch",
    "ScheduleResult",
    "check_order_permutation",
    "snapshot_batch",
]


def check_order_permutation(assignment, order) -> None:
    """Require ``order`` to cover the assigned jobs exactly once each.

    An order entry pointing at an unassigned job would dispatch its
    -1 site index (which numpy silently resolves to the *last* site),
    a duplicate would dispatch a job twice, and an omission would
    strand an assigned job forever.  Shared by
    :class:`ScheduleResult` construction and the engine's check of
    duck-typed scheduler results (a real ``ScheduleResult`` is checked
    once, when it is built).
    """
    a = np.asarray(assignment)
    o = np.asarray(order)
    assigned = (a >= 0).ravel().nonzero()[0]
    if o.shape != assigned.shape or not (np.sort(o) == assigned).all():
        raise ValueError(
            "order must be a permutation of the assigned job indices: "
            f"order={o.tolist()} assigned={assigned.tolist()}"
        )


def _as_array(batch: "Batch", name: str) -> np.ndarray:
    """Field ``name`` of ``batch`` as an array.  A plain sequence is
    converted once and stored back; an array is kept as given (the
    engine passes shared read-only views)."""
    arr = getattr(batch, name)
    if not isinstance(arr, np.ndarray):
        arr = np.asarray(arr)
        object.__setattr__(batch, name, arr)
    return arr


@dataclass(frozen=True)
class Batch:
    """Immutable snapshot of one scheduling event.

    Array fields may be given as plain sequences; they are converted
    once, at construction.

    Attributes
    ----------
    now:
        Simulation time of the tick.
    job_ids:
        Global job identifiers, shape (B,).
    workloads:
        Job workloads (node-seconds), shape (B,).
    security_demands:
        Job SD values, shape (B,).
    secure_only:
        True for jobs that previously failed and must now be placed on
        absolutely safe sites, shape (B,).
    etc:
        Execution-time matrix, shape (B, S).
    ready:
        Site next-available times, shape (S,).  Clipped to ``>= now``
        once, here at construction, into a float array the batch owns;
        :meth:`completion` and the schedulers use it as is.
    site_security:
        Site SL values, shape (S,).  The engine and
        :func:`snapshot_batch` pass the grid's own read-only view
        (shared by every batch of a run, never copied).
    speeds:
        Site speeds, shape (S,); shared read-only like
        ``site_security``.
    """

    now: float
    job_ids: np.ndarray
    workloads: np.ndarray
    security_demands: np.ndarray
    secure_only: np.ndarray
    etc: np.ndarray
    ready: np.ndarray
    site_security: np.ndarray
    speeds: np.ndarray

    def __post_init__(self) -> None:
        etc = _as_array(self, "etc")
        if etc.ndim != 2:
            raise ValueError(
                f"etc must be 2-dimensional, got shape {etc.shape}"
            )
        b, s = etc.shape
        for name, n in (
            ("job_ids", b),
            ("workloads", b),
            ("security_demands", b),
            ("secure_only", b),
            ("ready", s),
            ("site_security", s),
            ("speeds", s),
        ):
            shape = _as_array(self, name).shape
            if shape != (n,):
                raise ValueError(
                    f"{name} has shape {shape}, expected ({n},) to match etc"
                )
        # A site freed in the past cannot start a job before `now`.
        object.__setattr__(
            self,
            "ready",
            np.maximum(np.asarray(self.ready, dtype=float), float(self.now)),
        )

    @property
    def n_jobs(self) -> int:
        """Batch size B."""
        return self.etc.shape[0]

    @property
    def n_sites(self) -> int:
        """Number of sites S."""
        return self.etc.shape[1]

    def completion(self) -> np.ndarray:
        """Expected completion matrix ``ready + etc`` (``ready >= now``)."""
        return self.ready[None, :] + self.etc


def snapshot_batch(
    jobs,
    grid,
    now: float = 0.0,
    *,
    ready=None,
    secure_only=None,
) -> Batch:
    """Snapshot a residual job set and a grid into a :class:`Batch`.

    This is the bridge behind the unified ``ScheduleFn`` protocol
    (:func:`repro.registry.bind_scheduler`): any collection of
    :class:`~repro.grid.job.Job` objects plus a
    :class:`~repro.grid.site.Grid` becomes the exact structure every
    scheduler consumes, without going through the engine.  ``ready``
    defaults to all sites free at ``now``; ``secure_only`` defaults to
    no job being restricted.
    """
    from repro.grid.etc import etc_matrix  # deferred: keep batch.py leaf-light

    jobs = list(jobs)
    job_ids = np.array([j.job_id for j in jobs], dtype=int)
    workloads = np.array([j.workload for j in jobs], dtype=float)
    sds = np.array([j.security_demand for j in jobs], dtype=float)
    if secure_only is None:
        secure_only = np.zeros(len(jobs), dtype=bool)
    else:
        secure_only = np.asarray(secure_only, dtype=bool)
    if ready is None:
        ready = np.full(grid.n_sites, float(now), dtype=float)
    return Batch(
        now=float(now),
        job_ids=job_ids,
        workloads=workloads,
        security_demands=sds,
        secure_only=secure_only,
        etc=etc_matrix(workloads, grid.speeds),
        ready=ready,
        site_security=grid.security_levels,
        speeds=grid.speeds,
    )


@dataclass(frozen=True)
class ScheduleResult:
    """A scheduler's decision for one batch.

    Attributes
    ----------
    assignment:
        Site index per batch job, shape (B,); ``-1`` defers the job to
        a later batch (e.g. no eligible site exists).
    order:
        Indices (into the batch) of *assigned* jobs in dispatch order.
        Dispatch order determines per-job start times when several
        jobs share a site; heuristics return their natural assignment
        order, the GA returns batch order.

    Both are stored as read-only copies, validated once here: the
    engine trusts a ``ScheduleResult`` without re-checking its order,
    so nothing may change it after construction.
    """

    assignment: np.ndarray
    order: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.assignment)
        o = np.array(self.order)
        if a.ndim != 1:
            raise ValueError(f"assignment must be 1-D, got shape {a.shape}")
        if o.ndim != 1:
            raise ValueError(f"order must be 1-D, got shape {o.shape}")
        check_order_permutation(a, o)
        a.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "order", o)

    def __reduce__(self):
        # rebuild through __init__ so an unpickled result is validated
        # and read-only again (pickle restores arrays writable)
        return (type(self), (self.assignment, self.order))

    @classmethod
    def from_assignment(cls, assignment) -> "ScheduleResult":
        """Build a result dispatching assigned jobs in batch order."""
        a = np.asarray(assignment, dtype=int)
        return cls(assignment=a, order=np.flatnonzero(a >= 0))

    @property
    def n_assigned(self) -> int:
        """Number of jobs actually placed this batch."""
        return int((self.assignment >= 0).sum())

    @property
    def n_deferred(self) -> int:
        """Number of jobs pushed to a later batch."""
        return int((self.assignment < 0).sum())
