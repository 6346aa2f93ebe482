"""Event types and the event queue for the discrete-event engine.

Three event kinds drive the periodic online scheduling model of the
paper's Figure 1:

* ``ARRIVAL``     — a job enters the scheduler queue;
* ``SCHEDULE``    — the periodic batch-scheduling tick;
* ``COMPLETION``  — a running attempt ends (successfully or failed).

Dynamic scenarios (:mod:`repro.workloads.dynamics`) add three more:

* ``SITE_UP`` / ``SITE_DOWN`` — a site recovers from / enters an
  outage window drawn by the event director;
* ``CANCEL``  — a waiting job is withdrawn by its submitter.

Events at equal timestamps are ordered by kind priority: completions
first (the freed site's state and a failed job's resubmission must be
visible to anything later at the same instant), then site state
changes (recovery before the next breakdown), then arrivals and
cancellations (queue membership settles), and the scheduling tick
last so it always observes the fully settled state.  A monotone
sequence number is the final tie-breaker for determinism.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.IntEnum):
    """Event kinds in same-timestamp processing order.

    The numeric values *are* the same-timestamp priority; static runs
    only ever enqueue COMPLETION/ARRIVAL/SCHEDULE, whose relative
    order is unchanged by the dynamic kinds slotted between them.
    """

    COMPLETION = 0
    SITE_UP = 1
    SITE_DOWN = 2
    ARRIVAL = 3
    CANCEL = 4
    SCHEDULE = 5


@dataclass(frozen=True, slots=True)
class Event:
    """A scheduled simulation event.

    ``payload`` is the job id for ARRIVAL/COMPLETION/CANCEL events,
    the site id for SITE_DOWN/SITE_UP, and unused for SCHEDULE ticks.
    """

    time: float
    kind: EventKind
    payload: int = -1

    def sort_key(self, seq: int) -> tuple:
        return (self.time, int(self.kind), seq)


@dataclass
class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    _heap: list = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)

    def push(self, event: Event) -> None:
        """Insert ``event``."""
        if event.time < 0 or event.time != event.time:  # negative or NaN
            raise ValueError(f"invalid event time {event.time!r}")
        heapq.heappush(self._heap, (*event.sort_key(next(self._counter)), event))

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[-1]

    def peek_time(self) -> float:
        """Timestamp of the earliest event (inf if empty)."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
