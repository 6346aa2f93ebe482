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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.sweep import (
    SWEEP_METRICS,
    ScenarioVariant,
    SweepResult,
    run_sweep,
)
from repro.metrics.report import PerformanceReport
from repro.registry import parse_scheduler_ref, scheduler_spec

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SpecError",
    "ExperimentSpec",
    "parse_spec_text",
    "run_spec",
    "save_spec",
    "load_spec",
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


def run_spec(
    spec: ExperimentSpec,
    *,
    defaults: PaperDefaults = PaperDefaults(),
    max_workers: int | None = None,
) -> SweepResult:
    """Execute a spec: the full (variant x seed) grid over its lineup.

    One :func:`~repro.experiments.runner.run_lineup` call per grid
    point, fanned out over a process pool exactly like
    :func:`~repro.experiments.sweep.run_sweep` (``max_workers=1``
    forces the sequential in-process fallback).
    """
    spec.validate()
    return run_sweep(
        spec.variants,
        spec.seeds,
        settings=spec.settings,
        scale=spec.scale,
        defaults=defaults,
        lineup=spec.schedulers,
        max_workers=max_workers,
    )
