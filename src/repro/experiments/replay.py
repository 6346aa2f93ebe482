"""Record whole experiment cells as grid traces, and replay them.

One sweep *cell* — a (variant, seed, scheduler-ref) triple — is the
smallest unit the paper reproduction re-runs when a number looks
wrong.  :func:`record_cell` executes one cell exactly the way
:func:`~repro.experiments.sweep.run_sweep` would (same settings
layering, same ``RngFactory`` streams) while logging every dispatch
into an :class:`~repro.grid.trace.AttemptLog`, and packages the whole
run — grid, jobs, dynamic timeline, attempt stream, and enough
metadata to rebuild the cell — as a :class:`~repro.grid.trace.GridTrace`.

:func:`replay_trace` is the inverse: it rebuilds the variant and
settings from the trace metadata, re-executes the cell, and checks the
re-run against the recording *bit for bit* — same scenario, same
attempt stream, same :class:`~repro.metrics.report.PerformanceReport`
(modulo ``scheduler_seconds``, which is wall-clock).  A clean replay is
the strongest determinism evidence the harness produces; a mismatch
means the code, the environment, or the trace changed.

``repro-grid replay TRACE.jsonl`` wires this into the CLI;
``repro-grid sweep --record-traces DIR`` records every cell of a sweep,
and :func:`record_sweep` is the library form (it also returns the
assembled :class:`~repro.experiments.sweep.SweepResult`, bit-identical
to :func:`run_sweep` over the same grid).
"""

from __future__ import annotations

import re
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import (
    PAPER_LINEUP,
    reports_by_name,
    simulate_scheduler,
)
from repro.experiments.sweep import ScenarioVariant, SweepResult
from repro.grid.trace import GridTrace, load_trace, save_trace
from repro.metrics.report import PerformanceReport, evaluate
from repro.registry import bind_scheduler
from repro.util.rng import RngFactory

__all__ = [
    "trace_slug",
    "trace_filename",
    "record_cell",
    "record_sweep",
    "ReplayOutcome",
    "replay_trace",
    "replay_result",
]


def trace_slug(text: str) -> str:
    """Filename-safe slug of a variant name or scheduler ref."""
    slug = re.sub(r"[^a-z0-9._-]+", "-", str(text).lower()).strip("-")
    return slug or "x"


def trace_filename(variant_name: str, seed: int, ref: str) -> str:
    """Canonical trace filename for one recorded cell."""
    return f"{trace_slug(variant_name)}--s{int(seed)}--{trace_slug(ref)}.jsonl"


def _scenario_for_replay(variant: ScenarioVariant, seed: int, scale: float):
    """(scenario, training) via the workload registry — the scenario
    construction :func:`~repro.experiments.sweep.run_sweep` workers use."""
    return variant.build_scenarios(seed, scale)


def record_cell(
    variant: ScenarioVariant,
    seed: int,
    ref: str,
    *,
    settings: RunSettings = RunSettings(),
    scale: float = 1.0,
    defaults: PaperDefaults = PaperDefaults(),
) -> tuple[GridTrace, PerformanceReport]:
    """Execute one (variant, seed, scheduler-ref) cell, recording it.

    Mirrors the sweep worker stream for stream: per-cell settings via
    :meth:`ScenarioVariant.settings_for`, scenario construction through
    the workload registry, the scheduler bound with
    ``RngFactory(cell_settings.seed)``, and the engine failure stream
    seeded from the same settings — so the returned report is
    bit-identical (modulo ``scheduler_seconds``) to the matching
    :func:`~repro.experiments.sweep.run_sweep` cell.

    The trace ``meta`` carries everything :func:`replay_trace` needs to
    rebuild the cell — the *base* settings (the variant re-layers its
    overrides on replay), the variant, seed, scale, scheduler ref, and
    the recorded report.
    """
    cell_settings = variant.settings_for(settings, seed)
    scenario, training = _scenario_for_replay(variant, seed, scale)
    scheduler = bind_scheduler(
        ref,
        cell_settings,
        RngFactory(cell_settings.seed),
        scenario=scenario,
        training=training,
        defaults=defaults,
    )
    result = simulate_scheduler(
        scenario, scheduler, cell_settings, record_attempts=True
    )
    report = evaluate(result, scheduler.name)
    meta = {
        "name": scenario.name,
        "scheduler": ref,
        "seed": int(seed),
        "scale": float(scale),
        "settings": settings.to_dict(),
        "variant": asdict(variant),
        "report": report.to_dict(),
    }
    trace = GridTrace(
        meta=meta,
        grid=scenario.grid,
        jobs=scenario.jobs,
        timeline=getattr(scenario, "timeline", None),
        attempts=result.attempts,
    )
    return trace, report


def record_sweep(
    variants: Sequence[ScenarioVariant],
    seeds: Sequence[int],
    out_dir: str | Path,
    *,
    settings: RunSettings = RunSettings(),
    scale: float = 1.0,
    defaults: PaperDefaults = PaperDefaults(),
    lineup: Sequence[str] | None = None,
) -> tuple[SweepResult, list[Path]]:
    """Record every cell of a sweep grid as one trace file each.

    Runs the (variant x seed x ref) grid sequentially (recording is a
    forensic mode, not a throughput mode), writes one
    ``<variant>--s<seed>--<ref>.jsonl`` per cell under ``out_dir``, and
    assembles the reports into a :class:`SweepResult` bit-identical to
    :func:`~repro.experiments.sweep.run_sweep` over the same grid.
    """
    variants = tuple(variants)
    seeds = tuple(int(s) for s in seeds)
    if not variants:
        raise ValueError("need at least one scenario variant")
    if not seeds:
        raise ValueError("need at least one replication seed")
    refs = tuple(lineup) if lineup is not None else PAPER_LINEUP
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    paths: list[Path] = []
    reports: dict[str, dict[str, list[PerformanceReport]]] = {}
    for variant in variants:
        per_sched = reports.setdefault(variant.name, {})
        for seed in seeds:
            lineup_reports = []
            for ref in refs:
                trace, report = record_cell(
                    variant,
                    seed,
                    ref,
                    settings=settings,
                    scale=scale,
                    defaults=defaults,
                )
                paths.append(
                    save_trace(
                        out_dir / trace_filename(variant.name, seed, ref),
                        trace,
                    )
                )
                lineup_reports.append(report)
            for sched_name, rep in reports_by_name(lineup_reports).items():
                per_sched.setdefault(sched_name, []).append(rep)
    elapsed = time.perf_counter() - started

    result = SweepResult(
        variants=variants,
        seeds=seeds,
        reports={
            vname: {s: tuple(reps) for s, reps in per_sched.items()}
            for vname, per_sched in reports.items()
        },
        settings=settings,
        scale=scale,
        elapsed_seconds=elapsed,
    )
    return result, paths


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
    and runs it through the same streams as :func:`record_cell`.  The
    outcome's ``mismatches`` names any divergence: the regenerated
    scenario (grid / jobs / timeline), the attempt stream, or the
    performance report.  All three identical is the bit-identity
    guarantee ``repro-grid replay`` checks.

    Raises ``ValueError`` for traces without replayable metadata
    (e.g. hand-built ones that never went through :func:`record_cell`).
    """
    path = Path(path)
    trace = load_trace(path)
    meta = trace.meta
    missing = [
        k
        for k in ("scheduler", "seed", "scale", "settings", "variant")
        if k not in meta
    ]
    if missing:
        raise ValueError(
            f"{path} is not replayable: meta lacks {missing} "
            "(was it recorded by record_cell?)"
        )
    variant = ScenarioVariant(**meta["variant"])
    settings = RunSettings.from_dict(meta["settings"])
    seed = int(meta["seed"])
    scale = float(meta["scale"])
    ref = str(meta["scheduler"])
    recorded_report = PerformanceReport.from_dict(meta["report"])

    replayed, report = record_cell(
        variant, seed, ref, settings=settings, scale=scale, defaults=defaults
    )

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

    The inverse of :func:`record_sweep`'s fan-out: replaying every
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
