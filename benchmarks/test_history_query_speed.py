"""Benchmark: vectorised HistoryTable.query vs the seed's Python loop.

The STGA queries its lookup table on *every* scheduling event, so at
the paper's capacity of 150 the seed implementation paid 150
Python-level ``batch_similarity`` calls (450 ``vector_similarity``
calls) per event.  The vectorised query keeps same-shape entries as
the rows of one block of arrays and scores them in one numpy pass;
this bench pins the exactness (same scores, same order), the speedup
at capacity 150, and that churn never restacks a block.
"""

import time

import numpy as np

from repro.core.history import HistoryTable
from repro.core.similarity import batch_similarity

CAPACITY = 150
B, S = 40, 12  # jobs x sites per stored batch, a realistic NAS batch


def loop_query_scores(table, ready, etc, sds):
    """The seed implementation's scoring loop, kept as the reference."""
    scored = []
    for key, entry in table._entries.items():
        if entry.shape != etc.shape:
            continue
        sim = batch_similarity(
            entry.ready,
            entry.etc,
            entry.security_demands,
            ready,
            etc,
            sds,
            normalized=table.normalized,
        )
        if sim >= table.threshold:
            scored.append((sim, key))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored


def full_table(seed=0):
    rng = np.random.default_rng(seed)
    table = HistoryTable(capacity=CAPACITY, threshold=0.8, eviction="fifo")
    base_ready = rng.uniform(0, 1000, size=S)
    base_etc = rng.uniform(10, 5000, size=(B, S))
    base_sd = rng.uniform(0.6, 0.9, size=B)
    for _ in range(CAPACITY):
        jitter = rng.uniform(0.97, 1.03)
        table.insert(
            base_ready * jitter,
            base_etc * jitter,
            np.clip(base_sd * jitter, 0.6, 0.9),
            rng.integers(0, S, size=B),
        )
    return table, base_ready, base_etc, base_sd


def test_vectorized_query_matches_loop_exactly():
    table, ready, etc, sds = full_table()
    expected = loop_query_scores(table, ready, etc, sds)
    assert len(expected) > CAPACITY // 2  # the jittered entries do match

    # reach into the scoring path: query() returns assignments in
    # score order, and the keys must match the reference ordering
    results = table.query(ready, etc, sds)
    assert len(results) == len(expected)
    for (sim, key), assignment in zip(expected, results):
        np.testing.assert_array_equal(
            assignment, table._entries[key].assignment
        )


def test_vectorized_query_beats_loop_at_capacity_150():
    table, ready, etc, sds = full_table()
    reps = 30

    # warm both paths (stack build, numpy caches)
    table.query(ready, etc, sds)
    loop_query_scores(table, ready, etc, sds)

    t0 = time.perf_counter()
    for _ in range(reps):
        loop_query_scores(table, ready, etc, sds)
    loop_s = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        table.query(ready, etc, sds)
    vec_s = (time.perf_counter() - t0) / reps

    speedup = loop_s / vec_s
    print(
        f"\nHistoryTable.query at capacity {CAPACITY} ({B}x{S} batches): "
        f"loop {loop_s * 1e3:.3f} ms, vectorized {vec_s * 1e3:.3f} ms, "
        f"speedup {speedup:.1f}x"
    )
    # The one-pass kernel is typically >10x faster; 2x keeps the
    # assertion robust on loaded CI machines.
    assert speedup > 2.0, f"vectorized query only {speedup:.2f}x faster"


def test_query_returns_stored_arrays_without_copying():
    """The last per-match allocation: query used to ``.copy()`` every
    returned assignment (up to ``max_results`` copies per scheduling
    event).  Pin the fix — results ARE the stored arrays, frozen
    read-only so callers cannot corrupt the table through them."""
    table, ready, etc, sds = full_table()
    results = table.query(ready, etc, sds)
    assert len(results) > CAPACITY // 2
    stored = {id(e.assignment) for e in table._entries.values()}
    for out in results:
        assert id(out) in stored, "query copied an assignment"
        assert not out.flags.writeable


def block_arrays(block):
    return (block.keys, block.ready, block.etc, block.sd)


def test_stacks_survive_match_heavy_churn():
    """At capacity, an evict+insert of matching shape overwrites the
    victim's row in place: the block's row arrays must stay the *same
    objects* (no restack), and queries must keep returning exactly
    what a from-scratch scoring loop returns."""
    rng = np.random.default_rng(7)
    table, ready, etc, sds = full_table(seed=7)
    table.eviction = "lru"  # matches refresh recency, the paper setup
    block = table._blocks[(B, S)]

    table.query(ready, etc, sds)
    arrays_before = block_arrays(block)
    for _ in range(20):
        # matching query (refreshes LRU order), then an insert that
        # evicts one same-shape entry
        assert table.query(ready, etc, sds)
        table.insert(
            ready * rng.uniform(0.97, 1.03),
            etc * rng.uniform(0.97, 1.03),
            sds,
            rng.integers(0, S, size=B),
        )
        assert len(table) == CAPACITY
    for before, after in zip(arrays_before, block_arrays(block)):
        assert before is after, "churn restacked the block"

    # in-place rows stayed exact: the vectorised scores still equal
    # the reference loop's, in the same order
    expected = loop_query_scores(table, ready, etc, sds)
    results = table.query(ready, etc, sds)
    assert len(results) == len(expected)
    for (_, key), assignment in zip(expected, results):
        np.testing.assert_array_equal(
            assignment, table._entries[key].assignment
        )


def test_mixed_shape_insert_touches_only_its_blocks():
    """A shape change evicts a row from the old shape's block and adds
    one to the new shape's: neither restacks, and both shapes' queries
    still equal the reference loop."""
    table, ready, etc, sds = full_table(seed=3)
    block = table._blocks[(B, S)]
    table.query(ready, etc, sds)
    arrays_before = block_arrays(block)

    # different shape: new block, old block loses its evicted row
    rng = np.random.default_rng(3)
    other = (
        rng.uniform(0, 1000, size=S),
        rng.uniform(10, 5000, size=(B + 1, S)),
        rng.uniform(0.6, 0.9, size=B + 1),
    )
    table.insert(*other, rng.integers(0, S, size=B + 1))
    assert len(block) == CAPACITY - 1
    for before, after in zip(arrays_before, block_arrays(block)):
        assert before is after, "a row removal restacked the block"
    assert len(table._blocks[(B + 1, S)]) == 1
    expected = loop_query_scores(table, ready, etc, sds)
    results = table.query(ready, etc, sds)
    assert len(results) == len(expected)
    for (_, key), assignment in zip(expected, results):
        np.testing.assert_array_equal(
            assignment, table._entries[key].assignment
        )
    assert len(table.query(*other)) == len(loop_query_scores(table, *other)) == 1


def test_match_churn_query_stays_fast_at_capacity():
    """The STGA's steady state: every event inserts (evicting) and
    queries with many matches.  With in-place row replacement the
    vectorised path pays no per-event restack; pin a comfortable win
    over the reference loop under exactly that access pattern."""
    rng = np.random.default_rng(11)
    table, ready, etc, sds = full_table(seed=11)
    table.eviction = "lru"
    reps = 30

    def churn_vec():
        table.insert(
            ready * rng.uniform(0.97, 1.03),
            etc * rng.uniform(0.97, 1.03),
            sds,
            rng.integers(0, S, size=B),
        )
        return table.query(ready, etc, sds)

    def churn_loop():
        table.insert(
            ready * rng.uniform(0.97, 1.03),
            etc * rng.uniform(0.97, 1.03),
            sds,
            rng.integers(0, S, size=B),
        )
        return loop_query_scores(table, ready, etc, sds)

    churn_vec(), churn_loop()  # warm-up
    t0 = time.perf_counter()
    for _ in range(reps):
        churn_loop()
    loop_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        churn_vec()
    vec_s = (time.perf_counter() - t0) / reps

    speedup = loop_s / vec_s
    print(f"\nmatch-heavy LRU churn speedup: {speedup:.1f}x")
    assert speedup > 2.0, f"match-churn query only {speedup:.2f}x faster"


def test_vectorized_query_beats_loop_with_insert_churn():
    """STGA's real access pattern: insert-then-query every event.  The
    vectorised path must win with the insert's row write included."""
    rng = np.random.default_rng(1)
    table, ready, etc, sds = full_table(seed=1)
    reps = 30

    def churn_query():
        table.insert(
            ready * rng.uniform(0.97, 1.03),
            etc * rng.uniform(0.97, 1.03),
            sds,
            rng.integers(0, S, size=B),
        )
        return table.query(ready, etc, sds)

    def churn_loop():
        table.insert(
            ready * rng.uniform(0.97, 1.03),
            etc * rng.uniform(0.97, 1.03),
            sds,
            rng.integers(0, S, size=B),
        )
        return loop_query_scores(table, ready, etc, sds)

    churn_query(), churn_loop()  # warm-up
    t0 = time.perf_counter()
    for _ in range(reps):
        churn_loop()
    loop_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        churn_query()
    vec_s = (time.perf_counter() - t0) / reps

    speedup = loop_s / vec_s
    print(f"\ninsert+query churn speedup: {speedup:.1f}x")
    assert speedup > 1.5, f"churned query only {speedup:.2f}x faster"
