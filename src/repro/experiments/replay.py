"""Replay recorded experiment cells, bit for bit.

One sweep *cell* — a (variant, seed, scheduler-ref) triple — is the
smallest unit the paper reproduction re-runs when a number looks
wrong.  ``run_spec(spec, record_traces=DIR)`` (``repro-grid run SPEC
--record-traces DIR``, or ``repro-grid sweep --record-traces DIR``)
writes every cell it runs as a :class:`~repro.grid.trace.GridTrace`:
grid, jobs, dynamic timeline, attempt stream, and enough metadata to
rebuild the cell (see :func:`~repro.experiments.spec.run_cell`).

:func:`replay_trace` is the inverse: it rebuilds the variant and
settings from the trace metadata, re-executes the cell through the
same :func:`~repro.experiments.spec.run_cell` the executor's workers
use, and checks the re-run against the recording *bit for bit* — same
scenario, same attempt stream, same
:class:`~repro.metrics.report.PerformanceReport` (modulo
``scheduler_seconds``, which is wall-clock).  A clean replay is the
strongest determinism evidence the harness produces; a mismatch means
the code, the environment, or the trace changed.  ``repro-grid replay
TRACE.jsonl`` wires this into the CLI, and :func:`replay_result`
reassembles replayed cells into a run record.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.spec import run_cell
from repro.experiments.sweep import ScenarioVariant, SweepResult
from repro.grid.trace import load_trace
from repro.metrics.report import PerformanceReport
from repro.registry import parse_scheduler_ref, scheduler_spec

__all__ = [
    "ReplayOutcome",
    "replay_trace",
    "replay_result",
]


@dataclass(frozen=True)
class ReplayOutcome:
    """The verdict of one trace replay.

    ``mismatches`` lists every aspect where the re-execution diverged
    from the recording; an empty tuple means the replay was
    bit-identical.  ``report`` is the *re-executed* report (what the
    current code produces), ``recorded_report`` the one stored in the
    trace metadata.
    """

    path: Path
    variant: ScenarioVariant
    seed: int
    ref: str
    settings: RunSettings
    scale: float
    report: PerformanceReport
    recorded_report: PerformanceReport
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when the replay reproduced the recording exactly."""
        return not self.mismatches


def _reports_equal(a: PerformanceReport, b: PerformanceReport) -> bool:
    """Deterministic-field equality (``scheduler_seconds`` is wall-clock)."""
    return replace(a, scheduler_seconds=0.0) == replace(
        b, scheduler_seconds=0.0
    )


def replay_trace(
    path: str | Path,
    *,
    defaults: PaperDefaults = PaperDefaults(),
) -> ReplayOutcome:
    """Re-execute a recorded cell and diff it against the recording.

    The trace metadata pins the cell — base settings, variant, seed,
    scale, scheduler ref — so the replay rebuilds the exact experiment
    and runs it through :func:`~repro.experiments.spec.run_cell`, the
    cell runner that recorded it.  The outcome's ``mismatches`` names
    any divergence: the regenerated scenario (grid / jobs / timeline),
    the attempt stream, or the performance report.  All three
    identical is the bit-identity guarantee ``repro-grid replay``
    checks.

    Raises ``ValueError`` naming the file once: for an unreadable
    trace (see :func:`~repro.grid.trace.load_trace`), for traces
    without replayable metadata (e.g. hand-built ones that were never
    recorded by ``run_spec``) or with malformed metadata (naming the
    offending key), and for a recorded cell that no longer runs.
    """
    path = Path(path)
    trace = load_trace(path)
    meta = trace.meta
    if not isinstance(meta, dict):
        raise ValueError(
            f"{path} is not replayable: meta is a {type(meta).__name__}, "
            "expected an object"
        )
    required = ("scheduler", "seed", "scale", "settings", "variant", "report")
    missing = [k for k in required if k not in meta]
    if missing:
        raise ValueError(
            f"{path} is not replayable: meta lacks {missing} "
            "(was it recorded by run_spec?)"
        )

    def parsed(key, parse):
        try:
            return parse(meta[key])
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            msg = f"{path}: malformed meta {key!r}: {exc}"
            raise ValueError(msg) from None

    variant = parsed("variant", lambda v: ScenarioVariant(**v))
    settings = parsed("settings", RunSettings.from_dict)
    seed = parsed("seed", int)
    scale = parsed("scale", float)
    ref = parsed("scheduler", str)
    parsed("scheduler", lambda r: scheduler_spec(parse_scheduler_ref(r)[0]))
    recorded_report = parsed("report", PerformanceReport.from_dict)

    try:
        [(report, replayed)] = run_cell(
            variant,
            seed,
            (ref,),
            settings=settings,
            scale=scale,
            defaults=defaults,
            record=True,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: the recorded cell does not run: {exc}") from None

    mismatches: list[str] = []
    if replayed.grid != trace.grid:
        mismatches.append("grid differs from the recording")
    if replayed.jobs != trace.jobs:
        mismatches.append("job stream differs from the recording")
    if replayed.timeline != trace.timeline:
        mismatches.append("dynamic timeline differs from the recording")
    recorded_attempts = (
        trace.attempts.attempts if trace.attempts is not None else []
    )
    replayed_attempts = (
        replayed.attempts.attempts if replayed.attempts is not None else []
    )
    if replayed_attempts != recorded_attempts:
        mismatches.append(
            f"attempt stream differs ({len(replayed_attempts)} replayed "
            f"vs {len(recorded_attempts)} recorded attempts)"
        )
    if not _reports_equal(report, recorded_report):
        mismatches.append("performance report differs from the recording")
    return ReplayOutcome(
        path=path,
        variant=variant,
        seed=seed,
        ref=ref,
        settings=settings,
        scale=scale,
        report=report,
        recorded_report=recorded_report,
        mismatches=tuple(mismatches),
    )


def replay_result(outcomes: Sequence[ReplayOutcome]) -> SweepResult:
    """Assemble replayed cells into one :class:`SweepResult`.

    The inverse of a recording ``run_spec``'s fan-out: replaying every
    trace of a recorded sweep and assembling the outcomes yields a run
    whose payload is bit-identical (modulo wall-clock provenance) to
    the original — which is what lets ``repro-grid compare-runs
    --threshold 0`` gate on a replay.  The replayed (variant, seed)
    cells must tile a complete grid (a full trace directory, a single
    cell, or any rectangular subset); ragged subsets raise.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("need at least one replay outcome")
    settings = outcomes[0].settings
    scale = outcomes[0].scale
    for o in outcomes[1:]:
        if o.settings != settings or o.scale != scale:
            raise ValueError(
                "replayed traces disagree on base settings or scale; "
                "assemble one recorded sweep at a time"
            )
    variants_by_name: dict[str, ScenarioVariant] = {}
    order: list[str] = []
    cells: dict[tuple[str, str, int], PerformanceReport] = {}
    seed_set: set[int] = set()
    for o in outcomes:
        seen = variants_by_name.get(o.variant.name)
        if seen is None:
            variants_by_name[o.variant.name] = o.variant
            order.append(o.variant.name)
        elif seen != o.variant:
            raise ValueError(
                f"replayed traces disagree on variant {o.variant.name!r}"
            )
        key = (o.variant.name, o.report.scheduler, o.seed)
        if key in cells:
            raise ValueError(f"duplicate replayed cell {key}")
        cells[key] = o.report
        seed_set.add(o.seed)
    seeds = tuple(sorted(seed_set))
    scheds_by_variant = {
        vname: list(
            dict.fromkeys(
                o.report.scheduler
                for o in outcomes
                if o.variant.name == vname
            )
        )
        for vname in order
    }
    missing = [
        (vname, sched, seed)
        for vname in order
        for sched in scheds_by_variant[vname]
        for seed in seeds
        if (vname, sched, seed) not in cells
    ]
    if missing:
        raise ValueError(
            f"replayed cells do not tile a complete (variant, seed) "
            f"grid; {len(missing)} missing, first: {missing[0]} — "
            "replay the full trace directory of one recorded sweep"
        )
    return SweepResult(
        variants=tuple(variants_by_name[n] for n in order),
        seeds=seeds,
        reports={
            vname: {
                sched: tuple(cells[vname, sched, seed] for seed in seeds)
                for sched in scheds_by_variant[vname]
            }
            for vname in order
        },
        settings=settings,
        scale=scale,
        elapsed_seconds=None,
    )
