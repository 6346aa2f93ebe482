"""The STGA history lookup table (paper Section 3, Figure 6).

Each entry stores the three batch parameters — site ready times, ETC
matrix, job security demands — together with the best schedule found
for that batch.  On a new batch the table is queried for entries whose
average Eq. 2 similarity exceeds the threshold (Table 1: 0.8, table
size 150) and their stored schedules seed the GA's initial population.
Entries are evicted LRU, where both insertion and a successful match
count as "use" — a recurring workload keeps its seeds alive, exactly
the temporal-locality argument the paper makes.

Ready times are compared *relative to the batch instant* (the stored
vector is ``ready - now``): two identical load patterns occurring on
different days should match, and absolute simulation timestamps would
otherwise dominate Eq. 2's denominator.

Queries are vectorised: same-shape entries live as rows of one
block of arrays per (B, S) shape, and all Eq. 2 similarities are
computed in a single numpy pass (the kernel of
:func:`repro.core.similarity.population_similarity`), instead of a
Python-level loop over up to ``capacity`` entries per scheduling
event.  A block is never restacked: an insert writes one row, an
eviction moves the block's last row into the hole, an evict+insert of
matching shape overwrites the victim's row, and an LRU refresh only
reorders ``_entries``.  ``benchmarks/test_history_query_speed.py``
pins both the speedup and the row buffers' stability under churn.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.similarity import _row_similarity
from repro.util.validation import check_positive

__all__ = ["HistoryEntry", "HistoryTable"]


@dataclass(frozen=True)
class HistoryEntry:
    """One remembered batch and its schedule."""

    ready: np.ndarray  # (S,) site ready times relative to the batch time
    etc: np.ndarray  # (B, S) execution-time matrix
    security_demands: np.ndarray  # (B,)
    assignment: np.ndarray  # (B,) the schedule that was committed

    @property
    def shape(self) -> tuple[int, int]:
        """(B, S) — only same-shape entries are comparable."""
        return self.etc.shape


class _ShapeBlock:
    """Same-shape entries as the rows of one set of arrays, scored in
    one pass.

    Rows ``[0, size)`` of ``keys``/``ready``/``etc``/``sd`` hold the
    entries; every change writes rows in place.  An insert fills the
    next row, an eviction moves the last row into the hole, and
    :meth:`replace` overwrites a victim's row.  Row order is
    immaterial: the score sort is on (similarity, insertion id).  The
    arrays grow by half when full, up to the table's capacity, and
    halve once at most a quarter of their rows is in use, so they
    hold fewer than four times the block's entries.
    """

    __slots__ = ("size", "keys", "ready", "etc", "sd", "_row", "_cap")

    def __init__(self, shape: tuple[int, int], capacity: int) -> None:
        b, s = shape
        self.size = 0
        self._cap = capacity
        self._row: dict[int, int] = {}  # key -> row
        self.keys = np.empty(1, dtype=np.int64)
        self.ready = np.empty((1, s))
        self.etc = np.empty((1, b * s))
        self.sd = np.empty((1, b))

    def _resize(self, rows: int) -> None:
        n = self.size
        for name in ("keys", "ready", "etc", "sd"):
            old = getattr(self, name)
            new = np.empty((rows,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def _write(self, i: int, key: int, entry: HistoryEntry) -> None:
        self._row[key] = i
        self.keys[i] = key
        self.ready[i] = entry.ready
        self.etc[i] = entry.etc.ravel()
        self.sd[i] = entry.security_demands

    def add(self, key: int, entry: HistoryEntry) -> None:
        n = self.size
        if n == len(self.keys):
            self._resize(min(n + n // 2 + 1, max(self._cap, n + 1)))
        self._write(n, key, entry)
        self.size = n + 1

    def remove(self, key: int) -> None:
        i = self._row.pop(key)
        last = self.size - 1
        if i != last:
            self._row[int(self.keys[last])] = i
            for arr in (self.keys, self.ready, self.etc, self.sd):
                arr[i] = arr[last]
        self.size = last
        if 0 < last <= len(self.keys) // 4:
            self._resize(2 * last)

    def replace(self, old_key: int, new_key: int, entry: HistoryEntry) -> None:
        """Overwrite ``old_key``'s row with ``entry``."""
        self._write(self._row.pop(old_key), new_key, entry)

    def __len__(self) -> int:
        return self.size


@dataclass
class HistoryTable:
    """Fixed-capacity LRU store of :class:`HistoryEntry` objects.

    Parameters
    ----------
    capacity:
        Maximum number of entries (Table 1: 150).
    threshold:
        Minimum average similarity for a match (Table 1: 0.8).
    normalized:
        Use the length-normalised Eq. 2 (see
        :mod:`repro.core.similarity`).
    eviction:
        ``"lru"`` (paper) or ``"fifo"`` (ablation baseline).
    """

    capacity: int = 150
    threshold: float = 0.8
    normalized: bool = True
    eviction: str = "lru"
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _ids: itertools.count = field(default_factory=itertools.count, repr=False)
    #: per-shape row blocks of ``_entries`` (vectorised scoring)
    _blocks: dict = field(default_factory=dict, repr=False)
    #: query statistics, exposed for the experiment reports
    queries: int = 0
    hits: int = 0

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError(f"threshold must be in [0,1], got {self.threshold}")
        if self.eviction not in ("lru", "fifo"):
            raise ValueError(
                f"eviction must be 'lru' or 'fifo', got {self.eviction!r}"
            )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of queries that returned at least one seed."""
        return self.hits / self.queries if self.queries else 0.0

    def insert(self, ready, etc, security_demands, assignment) -> None:
        """Store a batch and its committed schedule, evicting if full."""
        etc = np.array(etc, dtype=float, copy=True)
        stored = np.array(assignment, dtype=np.int64, copy=True)
        # Queries hand this array out directly (no per-match copy), so
        # freeze it — a caller mutating a result cannot corrupt the
        # table, it gets a ValueError instead.
        stored.setflags(write=False)
        entry = HistoryEntry(
            ready=np.array(ready, dtype=float, copy=True),
            etc=etc,
            security_demands=np.array(security_demands, dtype=float, copy=True),
            assignment=stored,
        )
        if entry.assignment.shape[0] != etc.shape[0]:
            raise ValueError(
                f"assignment length {entry.assignment.shape[0]} does not "
                f"match {etc.shape[0]} jobs"
            )
        if entry.ready.shape[0] != etc.shape[1]:
            raise ValueError(
                f"ready length {entry.ready.shape[0]} does not match "
                f"{etc.shape[1]} sites"
            )
        evicted: list[tuple[int, HistoryEntry]] = []
        while len(self._entries) >= self.capacity:
            # least recently used / oldest
            evicted.append(self._entries.popitem(last=False))
        key = next(self._ids)
        self._entries[key] = entry
        if len(evicted) == 1 and evicted[0][1].shape == entry.shape:
            # steady state of a full table: the victim's row takes the
            # new entry
            self._blocks[entry.shape].replace(evicted[0][0], key, entry)
            return
        for old_key, old_entry in evicted:
            self._drop_from_block(old_key, old_entry)
        block = self._blocks.get(entry.shape)
        if block is None:
            block = self._blocks[entry.shape] = _ShapeBlock(
                entry.shape, self.capacity
            )
        block.add(key, entry)

    def query(
        self, ready, etc, security_demands, *, max_results: int | None = None
    ) -> list[np.ndarray]:
        """Schedules of matching entries, best-similarity first.

        A match refreshes the entry's LRU position (unless eviction is
        FIFO).  Returns the stored arrays themselves, marked read-only
        — copy before mutating.  (The per-match ``.copy()`` this
        replaces was the last allocation scaling with the hit count on
        the scheduling hot path; see
        ``benchmarks/test_history_query_speed.py``.)
        """
        etc = np.asarray(etc, dtype=float)
        ready = np.asarray(ready, dtype=float)
        sds = np.asarray(security_demands, dtype=float)
        self.queries += 1

        results: list[np.ndarray] = []
        block = self._blocks.get(etc.shape)
        if block is not None:
            b, s = etc.shape
            ready, sds = ready.ravel(), sds.ravel()
            if ready.size != s or sds.size != b:
                raise ValueError(
                    f"query has {ready.size} ready times and {sds.size} "
                    f"security demands for a {b}x{s} etc"
                )
            n = block.size
            # Eq. 2 per parameter across all same-shape entries in one
            # numpy pass, then the three-way average — the exact
            # computation batch_similarity performs entry by entry.
            sims = (
                _row_similarity(block.ready[:n], ready, self.normalized)
                + _row_similarity(block.etc[:n], etc.ravel(), self.normalized)
                + _row_similarity(block.sd[:n], sds, self.normalized)
            ) / 3.0
            hit = np.flatnonzero(sims >= self.threshold)
            keys = block.keys[hit]
            # best similarity first, ties by insertion id
            keys = keys[np.lexsort((keys, -sims[hit]))][:max_results]
            for key in keys.tolist():
                if self.eviction == "lru":
                    self._entries.move_to_end(key)
                results.append(self._entries[key].assignment)
        if results:
            self.hits += 1
        return results

    def _drop_from_block(self, key: int, entry: HistoryEntry) -> None:
        block = self._blocks[entry.shape]
        block.remove(key)
        if not len(block):
            del self._blocks[entry.shape]

    def clear(self) -> None:
        """Drop every entry and reset statistics."""
        self._entries.clear()
        self._blocks.clear()
        self.queries = 0
        self.hits = 0
