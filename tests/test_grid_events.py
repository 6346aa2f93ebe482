"""Tests for repro.grid.events."""

import pytest
from ga_oracle import SortedEventQueue

from repro.grid.events import Event, EventKind, EventQueue


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(Event(5.0, EventKind.ARRIVAL, 1))
        q.push(Event(2.0, EventKind.ARRIVAL, 2))
        q.push(Event(9.0, EventKind.ARRIVAL, 3))
        assert [q.pop().payload for _ in range(3)] == [2, 1, 3]

    def test_same_time_kind_priority(self):
        """COMPLETION before ARRIVAL before SCHEDULE at equal time."""
        q = EventQueue()
        q.push(Event(1.0, EventKind.SCHEDULE))
        q.push(Event(1.0, EventKind.ARRIVAL, 7))
        q.push(Event(1.0, EventKind.COMPLETION, 8))
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [
            EventKind.COMPLETION,
            EventKind.ARRIVAL,
            EventKind.SCHEDULE,
        ]

    def test_fifo_within_same_key(self):
        q = EventQueue()
        q.push(Event(1.0, EventKind.ARRIVAL, 1))
        q.push(Event(1.0, EventKind.ARRIVAL, 2))
        assert q.pop().payload == 1
        assert q.pop().payload == 2

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() == float("inf")
        q.push(Event(3.0, EventKind.SCHEDULE))
        assert q.peek_time() == 3.0
        q.pop()
        assert q.peek_time() == float("inf")

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(Event(0.0, EventKind.ARRIVAL, 0))
        assert q and len(q) == 1

    def test_invalid_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(Event(-1.0, EventKind.ARRIVAL, 0))
        with pytest.raises(ValueError):
            EventQueue().push(Event(float("nan"), EventKind.ARRIVAL, 0))


class TestDynamicEventKinds:
    def test_same_time_full_kind_priority(self):
        """All six kinds at one timestamp pop in enum-value order."""
        q = EventQueue()
        for kind in reversed(list(EventKind)):
            q.push(Event(4.0, kind, 1))
        assert [q.pop().kind for _ in range(len(EventKind))] == list(EventKind)

    def test_dynamic_kinds_slot_between_static_ones(self):
        """COMPLETION < SITE_UP < SITE_DOWN < ARRIVAL < CANCEL < SCHEDULE."""
        assert (
            EventKind.COMPLETION
            < EventKind.SITE_UP
            < EventKind.SITE_DOWN
            < EventKind.ARRIVAL
            < EventKind.CANCEL
            < EventKind.SCHEDULE
        )

    def test_payload_roundtrip_for_site_events(self):
        q = EventQueue()
        q.push(Event(1.0, EventKind.SITE_DOWN, 3))
        q.push(Event(1.0, EventKind.SITE_UP, 3))
        first, second = q.pop(), q.pop()
        assert (first.kind, first.payload) == (EventKind.SITE_UP, 3)
        assert (second.kind, second.payload) == (EventKind.SITE_DOWN, 3)


class TestBackendParityDynamicKinds:
    """The heap queue pops the dynamic CANCEL/SITE_DOWN/SITE_UP kinds
    in exactly the sorted-list oracle's order, whether they are pushed
    up front, after a drain started, or interleaved with pops."""

    def _drain(self, q):
        out = []
        while q:
            out.append(q.pop())
        return out

    def _mixed_events(self):
        return [
            Event(3.0, EventKind.CANCEL, 5),
            Event(1.0, EventKind.SITE_DOWN, 0),
            Event(1.0, EventKind.SITE_UP, 0),
            Event(1.0, EventKind.COMPLETION, 2),
            Event(1.0, EventKind.CANCEL, 2),
            Event(1.0, EventKind.ARRIVAL, 9),
            Event(1.0, EventKind.SCHEDULE),
            Event(0.0, EventKind.SITE_DOWN, 1),
            Event(3.0, EventKind.SITE_UP, 1),
        ]

    def test_pre_freeze_parity(self):
        ref, heap = SortedEventQueue(), EventQueue()
        for ev in self._mixed_events():
            ref.push(ev)
            heap.push(ev)
        assert self._drain(heap) == self._drain(ref)

    def test_post_freeze_parity(self):
        """Dynamic kinds pushed after the up-front events have started
        draining keep the global pop order."""
        ref, heap = SortedEventQueue(), EventQueue()
        up_front = [
            Event(0.0, EventKind.ARRIVAL, 0),
            Event(2.0, EventKind.ARRIVAL, 1),
            Event(4.0, EventKind.SCHEDULE),
        ]
        for ev in up_front:
            ref.push(ev)
            heap.push(ev)
        assert heap.pop() == ref.pop()
        for ev in self._mixed_events():
            ref.push(ev)
            heap.push(ev)
        assert self._drain(heap) == self._drain(ref)

    def test_interleaved_parity(self):
        ref, heap = SortedEventQueue(), EventQueue()
        for ev in self._mixed_events():
            ref.push(ev)
            heap.push(ev)
        # pop a few ...
        assert [heap.pop() for _ in range(3)] == [ref.pop() for _ in range(3)]
        # ... then push more dynamic events mid-drain
        extra = [
            Event(0.5, EventKind.SITE_UP, 2),
            Event(9.0, EventKind.CANCEL, 7),
            Event(1.0, EventKind.SITE_DOWN, 2),
        ]
        for ev in extra:
            ref.push(ev)
            heap.push(ev)
        assert self._drain(heap) == self._drain(ref)
