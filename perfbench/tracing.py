"""In-memory spans around calls into the program's layers.

The benchmark never edits the program: tracing wraps public functions
and methods of the layers from outside (``install``) and routes each
call to the process's active :class:`Tracer`.  With no tracer active
the wrappers call straight through; untraced runs do not install them
at all, so end-to-end figures are measured on unmodified code.

A span is ``(name, start, end, parent, cell)``; every span of one
(variant, seed) cell carries the cell's id.  A layer's *self* time is
its span durations minus the time covered by their child spans.

Patching is process-wide by nature, so the active tracer and the
installed patches live at module level.  A forked pool worker inherits
both; :func:`activate` gives each cell a fresh tracer there.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

#: the tracer wrappers report to; ``None`` = tracing off
ACTIVE: "Tracer | None" = None

#: (owner, attribute, original, was_own_attribute) for every patch
_PATCHES: list[tuple[object, str, object, bool]] = []


class Tracer:
    """Collects spans and deterministic counters of one process."""

    def __init__(self, cell: str = "") -> None:
        self.cell = cell
        self.spans: list[list] = []  # [name, start, end, parent, cell]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by another process (e.g. a pool
        worker) as roots of their own trees."""
        offset = len(self.spans)
        for name, start, end, parent, cell in spans:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, cell]
            )

    def add(self, counts: dict[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] += value


@contextmanager
def span(name: str):
    """A span around a block, recorded only while tracing is on."""
    tracer = ACTIVE
    if tracer is None:
        yield
        return
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


def count(key: str, value: float = 1.0) -> None:
    """Bump a counter of the active tracer (no-op when tracing is off)."""
    if ACTIVE is not None:
        ACTIVE.counts[key] += value


def _spanned(name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _patch(owner, attr: str, name: str, after=None) -> None:
    original = getattr(owner, attr, None)
    if original is None or getattr(original, "__perfbench_wrapped__", False):
        return
    own = attr in vars(owner)
    setattr(owner, attr, _spanned(name, original, after))
    _PATCHES.append((owner, attr, original, own))


def _after_evolve(tracer: Tracer, args, kwargs, result) -> None:
    config = kwargs.get("config", args[4] if len(args) > 4 else None)
    tracer.counts["ga.generations"] += result.generations_run
    if config is not None:
        tracer.counts["ga.budget"] += config.generations


def install() -> None:
    """Wrap the layer boundaries the per-layer table reports.

    Idempotent: a forked worker that inherited the patches keeps them.
    """
    if _PATCHES:
        return
    import repro.core.stga as stga
    from repro.core.history import HistoryTable
    from repro.grid.engine import GridSimulator
    from repro.heuristics.minmin import MinMinScheduler
    from repro.heuristics.sufferage import SufferageScheduler

    _patch(HistoryTable, "query", "history.query")
    _patch(HistoryTable, "insert", "history.insert")
    # evolve as core.stga calls it (the module-level name it imported)
    _patch(stga, "evolve", "ga.evolve", after=_after_evolve)
    _patch(stga.STGAScheduler, "schedule", "stga.schedule")
    _patch(MinMinScheduler, "schedule", "heuristics.schedule")
    _patch(SufferageScheduler, "schedule", "heuristics.schedule")
    _patch(GridSimulator, "run", "engine.run")


def uninstall() -> None:
    """Restore every patched attribute."""
    while _PATCHES:
        owner, attr, original, own = _PATCHES.pop()
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


@contextmanager
def activate(tracer: Tracer):
    """Install the patches and route them to ``tracer`` for a block."""
    global ACTIVE
    install()
    previous, ACTIVE = ACTIVE, tracer
    try:
        yield tracer
    finally:
        ACTIVE = previous


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "total_s", "self_s"}}`` over ``spans``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[idx]
    return out
