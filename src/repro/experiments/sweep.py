"""Replication sweeps: N seeds x M scenario variants, in parallel.

Every headline number of the paper reproduction was originally a
single-seed run.  This module turns any lineup experiment into a
statistically grounded sweep: it fans the (variant, seed) grid out
over a :class:`concurrent.futures.ProcessPoolExecutor`, collects the
per-run :class:`~repro.metrics.report.PerformanceReport` objects, and
aggregates them into mean / std / 95 %-CI summaries per
(variant, scheduler, metric) cell.

Determinism contract
--------------------
A sweep run is *per-seed identical* to sequential
:func:`~repro.experiments.runner.run_lineup` calls with the same
:class:`~repro.util.rng.RngFactory` streams: each worker rebuilds its
scenario from ``(variant, seed)`` through the workload registry
(workload rng = seed, training rng = seed +
:data:`~repro.workloads.base.TRAINING_SEED_OFFSET`, engine/GA streams
from ``RunSettings.seed = seed``), so the executor fan-out changes
wall-clock time and nothing else.  Every paper figure is such a sweep:
its spec builder's :func:`~repro.experiments.spec.run_spec` result is
what ``repro-grid figN`` renders.
``benchmarks/test_sweep_throughput.py`` asserts this.

CLI
---
The sweep is wired into the ``repro-grid`` CLI as the ``sweep``
experiment::

    repro-grid sweep --scale 0.01 --sweep-seeds 5 --sweep-workload psa \\
        --sweep-jobs 1000,2000 --max-workers 4

which prints one mean ± std table per paper metric.  ``--max-workers
1`` forces the sequential in-process fallback (used by the tier-1
tests so CI never forks).  See ``examples/replication_sweep.py`` for
the library-level entry points.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.ga import GAConfig
from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import reports_by_name, run_lineup
from repro.metrics.report import PerformanceReport
from repro.registry import (
    build_workload,
    parse_workload_ref,
    validate_variant,
    workload_spec,
)
from repro.util.stats import t_critical
from repro.util.tables import render_table
from repro.workloads.base import Scenario

__all__ = [
    "ScenarioVariant",
    "MetricSummary",
    "SweepResult",
    "run_sweep",
    "job_scaling_variants",
    "seed_list",
    "SWEEP_METRICS",
    "parallel_map",
]

#: PerformanceReport attributes aggregated per sweep cell — the four
#: Figure 8/10 panel metrics plus N_risk.
SWEEP_METRICS = (
    "makespan",
    "avg_response_time",
    "slowdown_ratio",
    "n_risk",
    "n_fail",
)


@dataclass(frozen=True)
class ScenarioVariant:
    """One scenario configuration of the sweep grid.

    A variant pins the workload side (generator, job count, grid
    size, arrival intensity) and any engine overrides (λ, batch
    interval, GA hyper-parameters); the replication seed stays free —
    the sweep crosses every variant with every seed.  ``workload`` is
    a workload *ref* — a registry entry name (built-ins: ``"psa"``,
    ``"nas"``, ``"replay"``; see :mod:`repro.registry` for registering
    more), optionally parameterized like
    ``"psa?dynamics=poisson&breakdown=0.01&online=true"`` to layer
    dynamic-scenario processes (:mod:`repro.workloads.dynamics`) on
    top of the generator.  The entry both validates the variant's
    knobs and builds its scenarios.

    ``n_sites`` sizes the grid for either workload: the PSA generator
    directly, NAS via :func:`~repro.workloads.nas.nas_site_plan`
    (which keeps the paper's 1:2 big:small site ratio, so ``n_sites=12``
    is the paper's 4x16 + 8x8 plan).  ``arrival_rate`` applies to the
    PSA generator only (NAS arrivals follow the trace's daily-cycle
    profile); ``None`` keeps the workload default.  ``n_training_jobs``
    sizes the STGA warm-up stream (paper: 500); ``0`` skips the
    warm-up.  ``ga_overrides`` is an optional mapping of
    :class:`~repro.core.ga.GAConfig` field overrides (e.g.
    ``{"generations": 50}``) layered onto the base settings' GA config
    for this variant only; it is normalized to a sorted tuple of
    ``(field, value)`` pairs so the variant stays hashable and truly
    immutable (pass a dict or any pair iterable).
    """

    name: str
    workload: str = "psa"  # a workload ref: "psa", "nas", "psa?online=true", …
    n_jobs: int = 1000
    n_sites: int | None = None
    arrival_rate: float | None = None
    lam: float | None = None
    batch_interval: float | None = None
    n_training_jobs: int = 500
    ga_overrides: dict | tuple | None = None

    def __post_init__(self) -> None:
        try:
            # ``workload`` is a ref — a bare name or "name?key=value&…"
            # (e.g. "psa?dynamics=poisson&online=true"); unknown names
            # raise, listing the registered generators.
            workload_spec(parse_workload_ref(self.workload)[0])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.n_training_jobs < 0:
            raise ValueError(
                f"n_training_jobs must be >= 0, got {self.n_training_jobs}"
            )
        if self.n_sites is not None and self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        # workload-specific knob policy lives with the generator
        # (e.g. NAS rejects arrival_rate)
        validate_variant(self)
        if self.ga_overrides is not None:
            overrides = dict(self.ga_overrides)
            valid = {f.name for f in fields(GAConfig)}
            unknown = sorted(set(overrides) - valid)
            if unknown:
                raise ValueError(
                    f"unknown GAConfig fields in ga_overrides: {unknown}"
                )
            object.__setattr__(
                self, "ga_overrides", tuple(sorted(overrides.items()))
            )

    def settings_for(self, settings: RunSettings, seed: int) -> RunSettings:
        """Base settings plus this variant's engine overrides and seed."""
        return settings.with_overrides(
            seed=seed,
            lam=self.lam,
            batch_interval=self.batch_interval,
            ga_overrides=dict(self.ga_overrides) if self.ga_overrides else None,
        )

    def build_scenarios(
        self, seed: int, scale: float
    ) -> tuple[Scenario, Scenario | None]:
        """(scenario, training) for one replication.

        Delegates to the variant's workload-registry entry, the one
        place scenarios are built: workload rng = ``seed``, training
        rng = ``seed +
        :data:`~repro.workloads.base.TRAINING_SEED_OFFSET`\\ ``, job
        counts through :func:`~repro.workloads.base.scale_jobs`.
        """
        return build_workload(self, seed, scale)


@dataclass(frozen=True)
class _SweepTask:
    """Picklable unit of work: one (variant, seed) replication."""

    variant: ScenarioVariant
    seed: int
    scale: float
    settings: RunSettings
    defaults: PaperDefaults
    lineup: tuple[str, ...] | None = None


def _run_task(task: _SweepTask) -> list[PerformanceReport]:
    """Worker entry point (module-level for ProcessPoolExecutor)."""
    settings = task.variant.settings_for(task.settings, task.seed)
    scenario, training = task.variant.build_scenarios(task.seed, task.scale)
    return run_lineup(
        scenario,
        training,
        settings,
        defaults=task.defaults,
        lineup=task.lineup,
    )


def parallel_map(fn, items, *, max_workers: int | None = None) -> list:
    """Order-preserving map over a process pool.

    ``max_workers=None`` sizes the pool to ``min(len(items),
    cpu_count)``; ``max_workers=1`` (or a single item) runs
    sequentially in-process — no fork, same results, the tier-1 test
    fallback.
    """
    items = list(items)
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if max_workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if max_workers is None:
        max_workers = min(len(items), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class MetricSummary:
    """Mean / std / 95 %-CI of one metric across replications.

    Both fields default so either keyword spelling works
    (``MetricSummary(values=...)`` or the fully explicit form); an
    empty replication set is still rejected.
    """

    metric: str = ""
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("cannot summarize an empty replication set")

    @property
    def n(self) -> int:
        """Number of replications."""
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0 for a single seed."""
        if self.n < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def ci95(self) -> float:
        """Half-width of the two-sided Student-t 95 % interval.

        Uses the t critical value at ``n - 1`` degrees of freedom
        (e.g. 2.776 at the default 5-seed ensembles, not the 1.96
        normal limit, which understates the interval by ~40 % there);
        0.0 for a single replication, where the interval is undefined.
        """
        if self.n < 2:
            return 0.0
        return t_critical(self.n - 1) * self.std / math.sqrt(self.n)

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.std:.3g}"


def _merged_order(kind: str, noun: str, ordered: tuple, have: set) -> tuple:
    """Validate an explicit :meth:`SweepResult.merge` ordering.

    ``ordered`` must be a permutation of the merged element set
    ``have``.  Elements the order requires but no part supplied get
    the multi-host diagnostic (a shard's record never arrived) rather
    than a blame-the-argument permutation error.
    """
    absent = set(ordered) - have
    if absent and have <= set(ordered) and len(set(ordered)) == len(ordered):
        raise ValueError(
            f"merged runs are missing {noun}(s) {sorted(absent)} "
            f"required by {kind} — is a shard's run record absent?"
        )
    if set(ordered) != have or len(ordered) != len(have):
        raise ValueError(
            f"{kind} {ordered} is not a permutation of the merged "
            f"{noun} set {tuple(sorted(have))}"
        )
    return ordered


@dataclass(frozen=True)
class SweepResult:
    """All replications of one sweep, plus their aggregation.

    ``reports[variant_name][scheduler_name]`` holds one
    :class:`PerformanceReport` per seed, in ``seeds`` order — the raw
    material for any downstream statistic; :meth:`summary` and
    :meth:`render` cover the common mean ± std uses.

    ``settings``, ``scale`` and ``elapsed_seconds`` record provenance
    for the run store (:mod:`repro.experiments.store`): the shared
    base settings the variants layered their overrides on, the
    workload scale factor, and the sweep's wall-clock time.
    """

    variants: tuple[ScenarioVariant, ...]
    seeds: tuple[int, ...]
    reports: dict[str, dict[str, tuple[PerformanceReport, ...]]]
    settings: RunSettings | None = None
    scale: float = 1.0
    elapsed_seconds: float | None = None

    def schedulers(self) -> tuple[str, ...]:
        """Scheduler names, in lineup order."""
        first = self.reports[self.variants[0].name]
        return tuple(first)

    def cell(
        self, variant: str, scheduler: str
    ) -> tuple[PerformanceReport, ...]:
        """Per-seed reports of one (variant, scheduler) cell."""
        return self.reports[variant][scheduler]

    def per_seed_lineups(self, variant: str) -> list[list[PerformanceReport]]:
        """One report list per seed, in lineup order — the shape
        :func:`repro.metrics.compare.compare_ensemble` consumes."""
        return [list(reps) for reps in zip(*self.reports[variant].values())]

    def summary(
        self, variant: str, scheduler: str, metric: str
    ) -> MetricSummary:
        """Aggregate one metric of one cell across seeds."""
        reps = self.cell(variant, scheduler)
        return MetricSummary(
            metric=metric,
            values=tuple(float(getattr(r, metric)) for r in reps),
        )

    def summary_grid(
        self, metric: str
    ) -> dict[str, dict[str, MetricSummary]]:
        """``{variant: {scheduler: MetricSummary}}`` for one metric."""
        return {
            v.name: {
                s: self.summary(v.name, s, metric) for s in self.schedulers()
            }
            for v in self.variants
        }

    @classmethod
    def merge(
        cls,
        results: Sequence["SweepResult"],
        *,
        seeds_order: Sequence[int] | None = None,
        variants_order: Sequence[str] | None = None,
        allow_partial: bool = False,
    ) -> "SweepResult":
        """Union of partial sweep results into one complete grid.

        The inverse of sharding
        (:func:`repro.experiments.dispatch.shard_spec`): partial
        results over disjoint seed or variant subsets combine into one
        :class:`SweepResult` whose summaries are recomputed from the
        *pooled* per-seed raw values — ``merged.summary(...)`` is
        exactly ``MetricSummary`` over the concatenated replications,
        so mean/std/Student-t CIs tighten as shards pool.

        Rules
        -----
        * All parts must share ``scale``, base ``settings`` (``None``
          acts as a wildcard) and the same scheduler tuple.
        * A variant name appearing in several parts must denote the
          same :class:`ScenarioVariant`.
        * Overlapping (variant, seed) cells must be identical on every
          deterministic :class:`PerformanceReport` field
          (``scheduler_seconds`` is wall-clock and ignored); a
          conflict raises ``ValueError`` — two shards disagreeing on
          one replication means they did not run the same code or
          spec, and averaging the disagreement away would hide that.
        * The merged (variant, seed) grid must be complete: every
          variant needs a report at every merged seed, or the parts
          "do not tile" and merging raises — unless
          ``allow_partial=True``, which instead keeps the largest
          complete sub-grid it can form: every candidate seed-set
          (each variant's fully covered seeds, plus their common
          intersection) pairs with all variants covering it, and the
          candidate with the most cells wins (first in variant order
          on ties).  For the axis-aligned coverage a dead shard leaves
          behind this is the maximal complete sub-grid.  That is the
          ``repro-grid merge --allow-partial`` path for runs whose
          shards are still missing; merging raises only when no
          complete sub-grid exists at all.

        ``seeds_order`` / ``variants_order`` pin the output ordering
        (they must be permutations of the merged sets) so a merge can
        reproduce the original spec's layout bit for bit; by default
        seeds sort ascending and variants keep first-appearance order.
        With ``allow_partial`` they act as layout *filters* instead —
        elements outside the kept sub-grid are silently dropped, so the
        original spec's orderings stay usable when shards are absent.
        ``elapsed_seconds`` sums the parts' recorded times (the total
        compute spent, not the dispatch wall-clock).
        """
        results = list(results)
        if not results:
            raise ValueError("need at least one sweep result to merge")
        scales = {r.scale for r in results}
        if len(scales) > 1:
            raise ValueError(
                f"cannot merge runs with different scales: {sorted(scales)}"
            )
        known_settings = [r.settings for r in results if r.settings is not None]
        for s in known_settings[1:]:
            if s != known_settings[0]:
                raise ValueError(
                    "cannot merge runs with different base settings"
                )
        scheds = results[0].schedulers()
        for r in results[1:]:
            if r.schedulers() != scheds:
                raise ValueError(
                    f"cannot merge runs with different scheduler lineups: "
                    f"{scheds} vs {r.schedulers()}"
                )

        variants_by_name: dict[str, ScenarioVariant] = {}
        variant_names: list[str] = []
        # cells[(variant, scheduler, seed)] -> PerformanceReport
        cells: dict[tuple[str, str, int], PerformanceReport] = {}
        seed_set: set[int] = set()
        for r in results:
            for v in r.variants:
                seen = variants_by_name.get(v.name)
                if seen is None:
                    variants_by_name[v.name] = v
                    variant_names.append(v.name)
                elif seen != v:
                    raise ValueError(
                        f"variant {v.name!r} has conflicting definitions "
                        "across the merged runs"
                    )
            seed_set.update(r.seeds)
            for vname, per_sched in r.reports.items():
                for sched, reps in per_sched.items():
                    if len(reps) != len(r.seeds):
                        raise ValueError(
                            f"malformed partial run: cell ({vname!r}, "
                            f"{sched!r}) has {len(reps)} report(s) for "
                            f"{len(r.seeds)} seed(s)"
                        )
                    for seed, rep in zip(r.seeds, reps):
                        key = (vname, sched, seed)
                        prior = cells.get(key)
                        if prior is None:
                            cells[key] = rep
                        elif replace(prior, scheduler_seconds=0.0) != replace(
                            rep, scheduler_seconds=0.0
                        ):
                            raise ValueError(
                                f"cell ({vname!r}, {sched!r}, seed {seed}) "
                                "appears in several runs with conflicting "
                                "reports; overlapping cells must be "
                                "bit-identical"
                            )

        if allow_partial:
            # the largest complete sub-grid: every candidate seed-set
            # (each variant's fully covered seeds, plus their common
            # intersection) pairs with the variants covering it; keep
            # the candidate with the most cells (ties go to the first
            # candidate in variant order, so the choice is
            # deterministic).  For axis-sharded partial runs — the
            # shapes a dead shard actually leaves behind — this is the
            # maximal complete sub-grid.
            covered = {
                vname: frozenset(
                    s
                    for s in seed_set
                    if all(
                        (vname, sched, s) in cells for sched in scheds
                    )
                )
                for vname in variant_names
            }
            nonempty = [c for c in covered.values() if c]
            candidates: list[frozenset] = []
            for cand in [
                *(covered[v] for v in variant_names),
                frozenset.intersection(*nonempty) if nonempty else None,
            ]:
                if cand and cand not in candidates:
                    candidates.append(cand)
            if not candidates:
                raise ValueError(
                    "partial runs share no complete (variant, seed) "
                    "sub-grid; nothing mergeable even with allow_partial"
                )
            scored = [
                (
                    cand,
                    [v for v in variant_names if covered[v] >= cand],
                )
                for cand in candidates
            ]
            kept_seeds, kept_names = max(
                scored, key=lambda c: len(c[0]) * len(c[1])
            )
            # the orderings act as layout filters here, but duplicates
            # are still rejected — repeating a seed would silently
            # double-count its replication in every pooled summary
            if seeds_order is not None:
                ordered = tuple(int(s) for s in seeds_order)
                if len(set(ordered)) != len(ordered):
                    raise ValueError(
                        f"seeds_order {ordered} contains duplicates"
                    )
                seeds = tuple(s for s in ordered if s in kept_seeds)
            else:
                seeds = tuple(sorted(kept_seeds))
            if variants_order is not None:
                ordered_v = tuple(variants_order)
                if len(set(ordered_v)) != len(ordered_v):
                    raise ValueError(
                        f"variants_order {ordered_v} contains duplicates"
                    )
                kept = set(kept_names)
                vnames = tuple(v for v in ordered_v if v in kept)
            else:
                vnames = tuple(kept_names)
            if not seeds or not vnames:
                raise ValueError(
                    "the requested ordering excludes every complete "
                    "cell of the partial merge"
                )
        else:
            if seeds_order is not None:
                seeds = _merged_order(
                    "seeds_order",
                    "seed",
                    tuple(int(s) for s in seeds_order),
                    seed_set,
                )
            else:
                seeds = tuple(sorted(seed_set))
            if variants_order is not None:
                vnames = _merged_order(
                    "variants_order",
                    "variant",
                    tuple(variants_order),
                    set(variant_names),
                )
            else:
                vnames = tuple(variant_names)

        missing = [
            (vname, sched, seed)
            for vname in vnames
            for sched in scheds
            for seed in seeds
            if (vname, sched, seed) not in cells
        ]
        if missing:
            raise ValueError(
                f"merged runs do not tile the (variant, seed) grid; "
                f"{len(missing)} missing cell(s), first: {missing[0]}"
            )
        reports = {
            vname: {
                sched: tuple(cells[vname, sched, seed] for seed in seeds)
                for sched in scheds
            }
            for vname in vnames
        }
        elapsed = [
            r.elapsed_seconds
            for r in results
            if r.elapsed_seconds is not None
        ]
        return cls(
            variants=tuple(variants_by_name[n] for n in vnames),
            seeds=seeds,
            reports=reports,
            settings=known_settings[0] if known_settings else None,
            scale=results[0].scale,
            elapsed_seconds=sum(elapsed) if elapsed else None,
        )

    def render(self, metric: str = "makespan") -> str:
        """Mean ± std table: rows = variants, columns = schedulers."""
        names = self.schedulers()
        rows = [
            [v.name]
            + [str(self.summary(v.name, s, metric)) for s in names]
            for v in self.variants
        ]
        return render_table(
            ["scenario"] + list(names),
            rows,
            title=(
                f"Sweep: {metric} over {len(self.seeds)} seed(s) "
                f"{tuple(self.seeds)}"
            ),
        )


def seed_list(n_seeds: int, *, base_seed: int = 2005) -> tuple[int, ...]:
    """``n_seeds`` distinct replication seeds starting at ``base_seed``."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    return tuple(base_seed + i for i in range(n_seeds))


def job_scaling_variants(
    n_values: Sequence[int],
    *,
    workload: str = "psa",
    n_training_jobs: int | None = None,
    **overrides,
) -> tuple[ScenarioVariant, ...]:
    """One variant per workload size N (the Figure 10 axis).

    ``workload`` may be a parameterized ref; variant names use only
    the base generator name (``"psa?online=true"`` → ``"PSA N=…"``).
    """
    if n_training_jobs is None:
        n_training_jobs = PaperDefaults().n_training_jobs
    base = parse_workload_ref(workload)[0]
    return tuple(
        ScenarioVariant(
            name=f"{base.upper()} N={int(n)}",
            workload=workload,
            n_jobs=int(n),
            n_training_jobs=n_training_jobs,
            **overrides,
        )
        for n in n_values
    )


def run_sweep(
    variants: Sequence[ScenarioVariant],
    seeds: Sequence[int],
    *,
    settings: RunSettings = RunSettings(),
    scale: float = 1.0,
    defaults: PaperDefaults = PaperDefaults(),
    lineup: Sequence[str] | None = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Run the full (variant x seed) grid and aggregate the reports.

    Each grid point is one :func:`run_lineup` call — by default the
    paper's lineup, or any list of scheduler-registry refs via
    ``lineup`` — on one freshly generated scenario.  Grid points are independent, so they fan out over a
    process pool; ``max_workers=1`` runs them sequentially in-process
    with identical results.
    """
    variants = tuple(variants)
    seeds = tuple(int(s) for s in seeds)
    lineup = tuple(lineup) if lineup is not None else None
    if not variants:
        raise ValueError("need at least one scenario variant")
    if not seeds:
        raise ValueError("need at least one replication seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"replication seeds must be distinct, got {seeds}")
    names = [v.name for v in variants]
    if len(set(names)) != len(names):
        raise ValueError(f"variant names must be distinct, got {names}")

    tasks = [
        _SweepTask(
            variant=v,
            seed=s,
            scale=scale,
            settings=settings,
            defaults=defaults,
            lineup=lineup,
        )
        for v in variants
        for s in seeds
    ]
    started = time.perf_counter()
    outputs = parallel_map(_run_task, tasks, max_workers=max_workers)
    elapsed = time.perf_counter() - started

    reports: dict[str, dict[str, list[PerformanceReport]]] = {}
    for task, lineup_reports in zip(tasks, outputs):
        per_sched = reports.setdefault(task.variant.name, {})
        for sched_name, rep in reports_by_name(lineup_reports).items():
            per_sched.setdefault(sched_name, []).append(rep)
    frozen = {
        vname: {s: tuple(reps) for s, reps in per_sched.items()}
        for vname, per_sched in reports.items()
    }
    for vname, per_sched in frozen.items():
        for sched_name, reps in per_sched.items():
            if len(reps) != len(seeds):  # pragma: no cover - invariant
                raise RuntimeError(
                    f"cell ({vname!r}, {sched_name!r}) collected "
                    f"{len(reps)} reports for {len(seeds)} seeds"
                )
    return SweepResult(
        variants=variants,
        seeds=seeds,
        reports=frozen,
        settings=settings,
        scale=scale,
        elapsed_seconds=elapsed,
    )
