"""Tests for repro.core.history — the STGA lookup table."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryTable
from repro.core.similarity import batch_similarity


def entry(scale=1.0, b=3, s=2, assignment=None):
    ready = np.arange(1.0, s + 1) * scale
    etc = (np.arange(b * s, dtype=float).reshape(b, s) + 1) * scale
    sd = np.linspace(0.6, 0.9, b)
    a = (
        np.asarray(assignment)
        if assignment is not None
        else np.zeros(b, dtype=int)
    )
    return ready, etc, sd, a


class TestInsertQuery:
    def test_exact_match_returned(self):
        t = HistoryTable(capacity=10, threshold=0.8)
        r, e, s, a = entry(assignment=[0, 1, 0])
        t.insert(r, e, s, a)
        out = t.query(r, e, s)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0], [0, 1, 0])

    def test_near_match_above_threshold(self):
        t = HistoryTable(capacity=10, threshold=0.8)
        r, e, s, a = entry()
        t.insert(r, e, s, a)
        r2, e2, s2, _ = entry(scale=1.02)
        assert len(t.query(r2, e2, s2)) == 1

    def test_dissimilar_not_returned(self):
        t = HistoryTable(capacity=10, threshold=0.8)
        r, e, s, a = entry()
        t.insert(r, e, s, a)
        r2, e2, s2, _ = entry(scale=50.0)
        assert t.query(r2, e2, s2) == []

    def test_shape_mismatch_filtered(self):
        t = HistoryTable(capacity=10, threshold=0.0)
        r, e, s, a = entry(b=3)
        t.insert(r, e, s, a)
        r2, e2, s2, _ = entry(b=4)
        assert t.query(r2, e2, s2) == []

    def test_best_similarity_first(self):
        t = HistoryTable(capacity=10, threshold=0.0)
        r, e, s, _ = entry()
        t.insert(*entry(scale=1.3, assignment=[1, 1, 1])[:3], [1, 1, 1])
        t.insert(*entry(scale=1.0, assignment=[0, 0, 0])[:3], [0, 0, 0])
        out = t.query(r, e, s)
        np.testing.assert_array_equal(out[0], [0, 0, 0])

    def test_max_results(self):
        t = HistoryTable(capacity=10, threshold=0.0)
        for i in range(5):
            r, e, s, _ = entry(scale=1.0 + i * 0.01)
            t.insert(r, e, s, [i, i, i])
        r, e, s, _ = entry()
        assert len(t.query(r, e, s, max_results=2)) == 2

    def test_returned_views_are_read_only(self):
        """query returns the stored arrays without copying; they are
        frozen so a caller cannot corrupt the table through them."""
        t = HistoryTable(capacity=10, threshold=0.8)
        r, e, s, a = entry(assignment=[0, 1, 0])
        t.insert(r, e, s, a)
        out = t.query(r, e, s)[0]
        with pytest.raises(ValueError, match="read-only"):
            out[:] = 9
        np.testing.assert_array_equal(t.query(r, e, s)[0], [0, 1, 0])

    def test_stored_entry_isolated_from_caller_arrays(self):
        """insert copies its inputs — mutating the caller's assignment
        afterwards must not change what query returns."""
        t = HistoryTable(capacity=10, threshold=0.8)
        r, e, s, _ = entry()
        a = np.array([0, 1, 0])
        t.insert(r, e, s, a)
        a[:] = 7
        np.testing.assert_array_equal(t.query(r, e, s)[0], [0, 1, 0])

    def test_stats(self):
        t = HistoryTable(capacity=10, threshold=0.8)
        r, e, s, a = entry()
        t.insert(r, e, s, a)
        t.query(r, e, s)  # hit
        r2, e2, s2, _ = entry(scale=50.0)
        t.query(r2, e2, s2)  # miss
        assert t.queries == 2 and t.hits == 1
        assert t.hit_rate == 0.5

    def test_validation(self):
        t = HistoryTable(capacity=2)
        r, e, s, a = entry()
        with pytest.raises(ValueError, match="assignment length"):
            t.insert(r, e, s, [0])
        with pytest.raises(ValueError, match="ready length"):
            t.insert(np.zeros(5), e, s, a)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HistoryTable(capacity=0)
        with pytest.raises(ValueError):
            HistoryTable(threshold=1.5)
        with pytest.raises(ValueError):
            HistoryTable(eviction="mru")


class TestEviction:
    def test_capacity_enforced(self):
        t = HistoryTable(capacity=3, threshold=0.0)
        for i in range(5):
            r, e, s, _ = entry(scale=1.0 + i)
            t.insert(r, e, s, [i, i, i])
        assert len(t) == 3

    def test_lru_keeps_recently_queried(self):
        t = HistoryTable(capacity=2, threshold=0.5)
        r0, e0, s0, _ = entry(scale=1.0)
        r1, e1, s1, _ = entry(scale=1.1)
        t.insert(r0, e0, s0, [0, 0, 0])
        t.insert(r1, e1, s1, [1, 1, 1])
        # touch entry 0 so entry 1 becomes LRU
        assert t.query(r0, e0, s0, max_results=1)
        r2, e2, s2, _ = entry(scale=40.0)
        t.insert(r2, e2, s2, [2, 2, 2])  # evicts entry 1
        assert len(t) == 2
        out = t.query(r0, e0, s0, max_results=5)
        assert any(np.array_equal(o, [0, 0, 0]) for o in out)

    def test_fifo_ignores_recency(self):
        t = HistoryTable(capacity=2, threshold=0.5, eviction="fifo")
        r0, e0, s0, _ = entry(scale=1.0)
        r1, e1, s1, _ = entry(scale=1.1)
        t.insert(r0, e0, s0, [0, 0, 0])
        t.insert(r1, e1, s1, [1, 1, 1])
        assert t.query(r0, e0, s0, max_results=1)  # does not refresh
        r2, e2, s2, _ = entry(scale=40.0)
        t.insert(r2, e2, s2, [2, 2, 2])  # evicts entry 0 (oldest)
        out = t.query(r0, e0, s0, max_results=5)
        assert not any(np.array_equal(o, [0, 0, 0]) for o in out)

    def test_clear(self):
        t = HistoryTable(capacity=3)
        r, e, s, a = entry()
        t.insert(r, e, s, a)
        t.query(r, e, s)
        t.clear()
        assert len(t) == 0 and t.queries == 0 and t.hits == 0

    def test_insert_after_clear(self):
        t = HistoryTable(capacity=3, threshold=0.8)
        r, e, s, a = entry(assignment=[1, 0, 1])
        t.insert(r, e, s, a)
        t.clear()
        t.insert(r, e, s, a)
        out = t.query(r, e, s)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0], [1, 0, 1])

    def test_eviction_under_mixed_shapes(self):
        """Capacity is global across shapes; eviction drops the oldest
        entry regardless of which shape bucket it lives in."""
        t = HistoryTable(capacity=3, threshold=0.0, eviction="fifo")
        r3, e3, s3, _ = entry(b=3)
        r4, e4, s4, _ = entry(b=4, s=2)
        t.insert(r3, e3, s3, [0, 0, 0])          # oldest, shape (3, 2)
        t.insert(r4, e4, s4, [1, 1, 1, 1])       # shape (4, 2)
        t.insert(*entry(b=3, scale=1.01)[:3], [2, 2, 2])
        assert len(t) == 3
        t.insert(*entry(b=4, s=2, scale=1.01)[:3], [3, 3, 3, 3])
        # evicts the oldest (3, 2)-shaped entry, not a (4, 2) one
        assert len(t) == 3
        out3 = t.query(r3, e3, s3)
        assert not any(np.array_equal(o, [0, 0, 0]) for o in out3)
        assert any(np.array_equal(o, [2, 2, 2]) for o in out3)
        out4 = t.query(r4, e4, s4)
        assert len(out4) == 2

    def test_mixed_shape_eviction_then_query_each_shape(self):
        """Evicting the last entry of a shape leaves other shapes
        queryable and the emptied shape a clean miss."""
        t = HistoryTable(capacity=2, threshold=0.0, eviction="fifo")
        r3, e3, s3, _ = entry(b=3)
        r4, e4, s4, _ = entry(b=4, s=2)
        t.insert(r3, e3, s3, [0, 0, 0])
        t.insert(r4, e4, s4, [1, 1, 1, 1])
        t.insert(*entry(b=5, s=2)[:3], [2] * 5)  # evicts the (3, 2) entry
        assert t.query(r3, e3, s3) == []
        assert len(t.query(r4, e4, s4)) == 1

    def test_lru_refresh_on_match_moves_entry_to_end(self):
        """A successful match must refresh the entry's LRU position
        (insertion and match both count as 'use')."""
        t = HistoryTable(capacity=5, threshold=0.5)
        r0, e0, s0, _ = entry(scale=1.0)
        r1, e1, s1, _ = entry(scale=1.05)
        t.insert(r0, e0, s0, [0, 0, 0])  # key 0
        t.insert(r1, e1, s1, [1, 1, 1])  # key 1
        assert list(t._entries) == [0, 1]
        t.query(r0, e0, s0, max_results=1)  # matches entry 0 only? both match
        # whatever matched was moved to the end; entry 0 is the best
        # match and max_results=1 restricts the refresh to it
        assert list(t._entries) == [1, 0]

    def test_lru_refresh_only_for_returned_matches(self):
        """max_results limits both the returned schedules and the LRU
        refresh — an entry trimmed from the result list keeps its age."""
        t = HistoryTable(capacity=5, threshold=0.0)
        for i in range(3):
            r, e, s, _ = entry(scale=1.0 + i * 0.01)
            t.insert(r, e, s, [i, i, i])
        r, e, s, _ = entry()
        t.query(r, e, s, max_results=2)  # refreshes keys 0 and 1 only
        assert list(t._entries) == [2, 0, 1]

    def test_fifo_match_does_not_refresh_order(self):
        t = HistoryTable(capacity=5, threshold=0.0, eviction="fifo")
        r0, e0, s0, _ = entry(scale=1.0)
        t.insert(r0, e0, s0, [0, 0, 0])
        t.insert(*entry(scale=1.05)[:3], [1, 1, 1])
        t.query(r0, e0, s0)
        assert list(t._entries) == [0, 1]


class ReferenceTable:
    """The table's contract as a from-scratch ``batch_similarity``
    loop over an ordered dict of entries."""

    def __init__(self, capacity, threshold, eviction):
        self.capacity, self.threshold, self.eviction = capacity, threshold, eviction
        self.entries = OrderedDict()
        self.next_key = 0

    def insert(self, ready, etc, sd, assignment):
        while len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)
        self.entries[self.next_key] = (ready, etc, sd, assignment)
        self.next_key += 1

    def query(self, ready, etc, sd, max_results):
        scored = []
        for key, (r, e, s, _) in self.entries.items():
            if e.shape == etc.shape:
                sim = batch_similarity(r, e, s, ready, etc, sd)
                if sim >= self.threshold:
                    scored.append((sim, key))
        scored.sort(key=lambda t: (-t[0], t[1]))
        if max_results is not None:
            scored = scored[:max_results]
        if self.eviction == "lru":
            for _, key in scored:
                self.entries.move_to_end(key)
        return [key for _, key in scored]


class TestRowBlocksAgainstReference:
    SHAPES = ((1, 3), (2, 3), (3, 2))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        capacity=st.integers(1, 16),
        threshold=st.sampled_from([0.0, 0.8, 0.9]),
        eviction=st.sampled_from(["lru", "fifo"]),
        ops=st.lists(
            st.tuples(
                st.sampled_from([True, True, False]),  # insert, or query
                st.sampled_from([0, 0, 1, 2]),  # shape
                st.sampled_from([None, 1, 3]),  # max_results
            ),
            min_size=10,
            max_size=60,
        ),
    )
    def test_insert_query_sequences_match_a_scoring_loop(
        self, seed, capacity, threshold, eviction, ops
    ):
        """Random insert/query sequences over mixed shapes, at and
        below capacity: every query returns exactly the reference
        loop's entries in its order, and the recency order agrees."""
        rng = np.random.default_rng(seed)
        bases = {
            shape: (
                rng.uniform(0, 100, size=shape[1]),
                rng.uniform(10, 50, size=shape),
                rng.uniform(0.6, 0.9, size=shape[0]),
            )
            for shape in self.SHAPES
        }
        table = HistoryTable(capacity=capacity, threshold=threshold,
                             eviction=eviction)
        ref = ReferenceTable(capacity, threshold, eviction)
        for is_insert, shape_i, max_results in ops:
            shape = self.SHAPES[shape_i]
            ready, etc, sd = (x * rng.uniform(0.9, 1.1) for x in bases[shape])
            if rng.random() < 0.2:
                ready = np.zeros(shape[1])  # an idle grid: Eq. 2's 0/0 case
            if is_insert:
                assignment = rng.integers(0, shape[1], size=shape[0])
                table.insert(ready, etc, sd, assignment)
                ref.insert(ready, etc, sd, assignment)
            else:
                got = table.query(ready, etc, sd, max_results=max_results)
                # results are the stored arrays: map them back to keys
                key_of = {id(e.assignment): k for k, e in table._entries.items()}
                assert [key_of[id(a)] for a in got] == ref.query(
                    ready, etc, sd, max_results
                )
            assert list(table._entries) == list(ref.entries)
            assert sum(len(b) for b in table._blocks.values()) == len(table)
