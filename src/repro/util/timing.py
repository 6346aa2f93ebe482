"""Wall-clock timing helpers.

The paper's pitch for the STGA is *speed* ("fast ... suitable for
online scheduling"), so the harness reports scheduler decision time
alongside schedule quality.  ``Stopwatch`` accumulates named segments
so the engine can separate "time spent inside the scheduler" from
"time spent simulating".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Stopwatch"]


@dataclass
class Stopwatch:
    """Accumulate wall-clock time under named labels."""

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def measure(self, label: str):
        """Context manager adding the elapsed time to ``label``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(label, time.perf_counter() - start)

    def add(self, label: str, seconds: float) -> None:
        """Record one segment of ``seconds`` under ``label``.

        For hot loops that time a call with ``time.perf_counter()``
        directly, skipping :meth:`measure`'s context-manager overhead.
        """
        self.totals[label] = self.totals.get(label, 0.0) + seconds
        self.counts[label] = self.counts.get(label, 0) + 1

    def total(self, label: str) -> float:
        """Accumulated seconds for ``label`` (0.0 if never measured)."""
        return self.totals.get(label, 0.0)

    def count(self, label: str) -> int:
        """Number of measured segments for ``label``."""
        return self.counts.get(label, 0)

    def mean(self, label: str) -> float:
        """Mean segment duration for ``label``."""
        n = self.counts.get(label, 0)
        if n == 0:
            raise KeyError(f"no measurements recorded under {label!r}")
        return self.totals[label] / n

    def reset(self) -> None:
        """Drop all accumulated measurements."""
        self.totals.clear()
        self.counts.clear()
