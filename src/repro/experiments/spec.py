"""Declarative experiment specs: scheduler refs x variants x seeds.

An :class:`ExperimentSpec` is the serializable unit of experimental
work — the FuzzBench experiment-config shape, where a config names
fuzzers x benchmarks x trials and any worker can execute a shard.
Here a spec names scheduler-registry refs x scenario variants x
replication seeds (plus the metrics to report and the shared engine
settings), JSON round-trips bit-identically, and runs anywhere via
:func:`run_spec` or ``repro-grid run SPEC.json`` — the shippable unit
for distributing replications across hosts.  Distribution itself is
:mod:`repro.experiments.dispatch`: ``shard_spec`` partitions a spec's
(variant, seed) grid into sub-specs (each again a plain spec file),
and ``merge_runs`` recombines the partial run records bit-identically.

Every paper figure is a spec builder:
:func:`repro.experiments.fig8.nas_spec`,
:func:`repro.experiments.fig10.psa_scaling_spec`,
:func:`repro.experiments.fig7.frisky_sweep_spec` /
:func:`~repro.experiments.fig7.stga_iteration_spec` (plus
:func:`repro.experiments.ablation.stga_ablation_spec`); ``repro-grid
emit-spec fig8`` writes them from the CLI, and ``repro-grid fig8``
runs the same spec through :func:`run_spec` and prints the figure's
renderer over the result.

:func:`run_spec` is the one executor of a (variant x seed x ref) grid:
figures, ablation and sensitivity studies, ``repro-grid run`` and
``repro-grid sweep`` all go through it.  Each (variant, seed) point
rebuilds its scenario through the workload registry (workload rng =
seed, training rng = seed +
:data:`~repro.workloads.base.TRAINING_SEED_OFFSET`, engine/GA streams
from ``RunSettings.seed = seed``) and runs every ref on it, so the
pool size changes wall-clock time and nothing else.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import reports_by_name, simulate_scheduler
from repro.experiments.sweep import (
    SWEEP_METRICS,
    ScenarioVariant,
    SweepResult,
    parallel_map,
)
from repro.grid.trace import GridTrace, save_trace
from repro.metrics.report import PerformanceReport, evaluate
from repro.registry import bind_scheduler, parse_scheduler_ref, scheduler_spec
from repro.util.rng import RngFactory

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SpecError",
    "ExperimentSpec",
    "parse_spec_text",
    "run_cell",
    "run_spec",
    "save_spec",
    "load_spec",
    "trace_slug",
    "trace_filename",
]

SPEC_SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A document that is not a valid :class:`ExperimentSpec`.

    Every malformed-spec failure mode — invalid JSON, a non-object top
    level, missing or mistyped fields, constraint violations — funnels
    into this one type with a ``"invalid spec: <reason>"`` message, so
    the CLI (exit 2) and the HTTP service (422) can diagnose a bad
    spec uniformly instead of leaking raw tracebacks.
    """

#: PerformanceReport fields a spec may list as metrics
_REPORT_METRICS = frozenset(
    f for f in PerformanceReport.__dataclass_fields__
    if f not in ("scheduler", "site_utilization")
) | {"mean_utilization"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment as data: what to run, on what, how often.

    ``schedulers`` holds scheduler-registry refs (optionally
    parameterized, e.g. ``"stga?eviction=fifo"``); ``variants`` the
    scenario grid; ``seeds`` the replications; ``metrics`` the
    :class:`~repro.metrics.report.PerformanceReport` fields to
    aggregate and render.  ``settings`` and ``scale`` are the shared
    engine parameters and workload scale every grid point starts from
    (variants layer their overrides on top).

    Specs are *structurally* validated at construction (non-empty,
    distinct names/seeds, known metrics, scale in (0, 1]); scheduler
    refs resolve against the registry at :meth:`validate` / run time,
    so a spec can be authored and shipped without the plugin modules
    that define its entries.  Scheduler refs follow the
    ``"name?key=value"`` grammar documented in :mod:`repro.registry`
    (JSON-scalar parameter values, reserved ``label`` key); refs are
    compared as strings, so ``schedulers`` must be distinct as written.

    The (variant, seed) grid a spec describes is embarrassingly
    parallel — :func:`repro.experiments.dispatch.shard_spec` partitions
    it into self-contained sub-specs for multi-host execution.
    """

    name: str
    schedulers: tuple[str, ...]
    variants: tuple[ScenarioVariant, ...]
    seeds: tuple[int, ...]
    metrics: tuple[str, ...] = SWEEP_METRICS
    scale: float = 1.0
    settings: RunSettings = field(default_factory=RunSettings)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(
            self, "seeds", tuple(int(s) for s in self.seeds)
        )
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.name:
            raise ValueError("a spec needs a name")
        if not self.schedulers:
            raise ValueError("a spec needs at least one scheduler ref")
        if not self.variants:
            raise ValueError("a spec needs at least one scenario variant")
        if not self.seeds:
            raise ValueError("a spec needs at least one replication seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(
                f"replication seeds must be distinct, got {self.seeds}"
            )
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"variant names must be distinct, got {names}")
        if len(set(self.schedulers)) != len(self.schedulers):
            raise ValueError(
                f"scheduler refs must be distinct, got {self.schedulers}"
            )
        unknown = sorted(set(self.metrics) - _REPORT_METRICS)
        if unknown:
            raise ValueError(
                f"unknown metrics {unknown}; choose from "
                f"{sorted(_REPORT_METRICS)}"
            )
        if not (0 < self.scale <= 1.0):
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")

    def validate(self) -> None:
        """Resolve every scheduler ref against the registry.

        Raises ``KeyError`` (listing the available entries) for
        unknown names and ``ValueError`` for malformed refs.
        """
        for ref in self.schedulers:
            scheduler_spec(parse_scheduler_ref(ref)[0])

    def to_dict(self) -> dict:
        """JSON-ready dict; :meth:`from_dict` round-trips it
        bit-identically (floats keep ``repr`` fidelity)."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "kind": "experiment-spec",
            "name": self.name,
            "schedulers": list(self.schedulers),
            "variants": [asdict(v) for v in self.variants],
            "seeds": list(self.seeds),
            "metrics": list(self.metrics),
            "scale": self.scale,
            "settings": self.settings.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        version = data.get("schema_version")
        if version != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported spec schema_version {version!r} "
                f"(this reader supports {SPEC_SCHEMA_VERSION})"
            )
        return cls(
            name=data["name"],
            schedulers=tuple(data["schedulers"]),
            variants=tuple(
                ScenarioVariant(**v) for v in data["variants"]
            ),
            seeds=tuple(data["seeds"]),
            metrics=tuple(data["metrics"]),
            scale=data["scale"],
            settings=RunSettings.from_dict(data["settings"]),
        )

    def to_json(self, *, indent: int = 1) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from its JSON document."""
        return cls.from_dict(json.loads(text))


def parse_spec_text(text: str) -> ExperimentSpec:
    """Parse serialized spec JSON, diagnosing every malformed input.

    The one validation seam the CLI's ``SPEC.json`` paths and the
    service's ``POST /v1/experiments`` body share: anything that is
    not a valid spec document raises :class:`SpecError` with a
    ``"invalid spec: <reason>"`` message — never a raw
    ``JSONDecodeError``/``TypeError``/``AttributeError`` traceback
    from deep inside :meth:`ExperimentSpec.from_dict`.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid spec: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError(
            f"invalid spec: top level is {type(data).__name__}, "
            "expected an object"
        )
    try:
        return ExperimentSpec.from_dict(data)
    except SpecError:
        raise
    except KeyError as exc:
        raise SpecError(f"invalid spec: missing field {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise SpecError(f"invalid spec: {exc}") from None


def save_spec(spec: ExperimentSpec, path: str | Path) -> Path:
    """Write ``spec`` as JSON at ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(spec.to_json(), encoding="utf-8")
    return path


def load_spec(path: str | Path) -> ExperimentSpec:
    """Read a spec written by :func:`save_spec`.

    A missing file raises ``FileNotFoundError``; any malformed content
    raises :class:`SpecError` naming the file
    (``"<path>: invalid spec: <reason>"``) via :func:`parse_spec_text`.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no experiment spec at {path}")
    try:
        return parse_spec_text(path.read_text(encoding="utf-8"))
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


def trace_slug(text: str) -> str:
    """Filename-safe slug of a variant name or scheduler ref."""
    slug = re.sub(r"[^a-z0-9._-]+", "-", str(text).lower()).strip("-")
    return slug or "x"


def trace_filename(variant_name: str, seed: int, ref: str) -> str:
    """Canonical trace filename for one recorded cell."""
    return f"{trace_slug(variant_name)}--s{int(seed)}--{trace_slug(ref)}.jsonl"


def run_cell(
    variant: ScenarioVariant,
    seed: int,
    refs: tuple[str, ...],
    *,
    settings: RunSettings = RunSettings(),
    scale: float = 1.0,
    defaults: PaperDefaults = PaperDefaults(),
    record: bool = False,
) -> list[tuple[PerformanceReport, GridTrace | None]]:
    """Run every ref on one (variant, seed) scenario, as
    :func:`~repro.experiments.runner.run_lineup` does.

    Returns one ``(report, trace)`` pair per ref.  ``trace`` is None
    unless ``record``; then it holds the run (grid, jobs, timeline,
    attempts) and the ``meta`` that
    :func:`~repro.experiments.replay.replay_trace` rebuilds the cell
    from: the *base* settings, variant, seed, scale, ref and report.
    """
    cell_settings = variant.settings_for(settings, seed)
    scenario, training = variant.build_scenarios(seed, scale)
    context = dict(scenario=scenario, training=training, defaults=defaults)
    built = [
        bind_scheduler(
            ref, cell_settings, RngFactory(cell_settings.seed), **context
        )
        for ref in refs
    ]
    out: list[tuple[PerformanceReport, GridTrace | None]] = []
    for ref, scheduler in zip(refs, built):
        result = simulate_scheduler(
            scenario, scheduler, cell_settings, record_attempts=record
        )
        report = evaluate(result, scheduler.name)
        trace = None
        if record:
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
        out.append((report, trace))
    return out


def _run_task(
    spec: ExperimentSpec,
    defaults: PaperDefaults,
    trace_dir: Path | None,
    point: tuple[ScenarioVariant, int],
) -> list[PerformanceReport]:
    """Worker entry point (module-level, so the pool can pickle it):
    one (variant, seed) point, its traces written when recording."""
    variant, seed = point
    runs = run_cell(
        variant,
        seed,
        spec.schedulers,
        settings=spec.settings,
        scale=spec.scale,
        defaults=defaults,
        record=trace_dir is not None,
    )
    if trace_dir is not None:
        for ref, (_, trace) in zip(spec.schedulers, runs):
            name = trace_filename(variant.name, seed, ref)
            save_trace(trace_dir / name, trace)
    return [report for report, _ in runs]


def run_spec(
    spec: ExperimentSpec,
    *,
    defaults: PaperDefaults = PaperDefaults(),
    max_workers: int | None = None,
    record_traces: str | Path | None = None,
) -> SweepResult:
    """Execute a spec: the full (variant x seed) grid over its lineup.

    Grid points are independent, so they fan out over a process pool
    (:func:`~repro.experiments.sweep.parallel_map`; ``max_workers=1``
    runs them sequentially in-process with identical results).  With
    ``record_traces`` every (variant, seed, ref) cell is also written
    as ``trace_filename(variant, seed, ref)`` under that directory,
    from inside the worker that ran it; the reports do not change.
    """
    spec.validate()
    trace_dir = None
    if record_traces is not None:
        trace_dir = Path(record_traces)
        trace_dir.mkdir(parents=True, exist_ok=True)
    grid = [(v, s) for v in spec.variants for s in spec.seeds]
    started = time.perf_counter()
    outputs = parallel_map(
        partial(_run_task, spec, defaults, trace_dir),
        grid,
        max_workers=max_workers,
    )
    elapsed = time.perf_counter() - started

    reports: dict[str, dict[str, list[PerformanceReport]]] = {}
    for (variant, _), lineup_reports in zip(grid, outputs):
        per_sched = reports.setdefault(variant.name, {})
        for sched_name, rep in reports_by_name(lineup_reports).items():
            per_sched.setdefault(sched_name, []).append(rep)
    return SweepResult(
        variants=spec.variants,
        seeds=spec.seeds,
        reports={
            vname: {s: tuple(reps) for s, reps in per_sched.items()}
            for vname, per_sched in reports.items()
        },
        settings=spec.settings,
        scale=spec.scale,
        elapsed_seconds=elapsed,
    )
