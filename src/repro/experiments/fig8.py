"""Figure 8 — the seven-algorithm comparison on the NAS trace workload.

Four panels over one set of runs: (a) makespan, (b) N_fail / N_risk,
(c) slowdown ratio, (d) average response time, for Min-Min and
Sufferage in secure / f-risky / risky mode plus the STGA.  Figure 9
and Table 2 reuse the same reports, so :func:`nas_spec` is the single
experiment of the NAS study; :func:`nas_lineups` hands its reports to
their renderers.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import PAPER_LINEUP
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import ScenarioVariant, SweepResult
from repro.metrics.report import PerformanceReport
from repro.util.tables import render_table
from repro.workloads.nas import NASConfig

__all__ = ["nas_spec", "nas_lineups", "render_fig8"]


def nas_spec(
    *,
    seeds: Sequence[int] | None = None,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """The Figure 8 / Figure 9 / Table 2 experiment as a declarative
    spec: the paper's seven-ref lineup on one NAS variant.

    ``seeds`` defaults to the single ``settings.seed`` (what
    ``repro-grid fig8`` runs); more seeds give the error-bar ensemble.
    """
    return ExperimentSpec(
        name="fig8-nas",
        schedulers=PAPER_LINEUP,
        variants=(
            ScenarioVariant(
                name=f"NAS N={NASConfig().n_jobs}",
                workload="nas",
                n_jobs=NASConfig().n_jobs,
                n_training_jobs=defaults.n_training_jobs,
            ),
        ),
        seeds=tuple(seeds) if seeds is not None else (settings.seed,),
        scale=scale,
        settings=settings,
    )


def nas_lineups(result: SweepResult) -> list[list[PerformanceReport]]:
    """One report list per seed, in lineup order, of a :func:`nas_spec`
    run — the shape Figure 9's panels and Table 2 take."""
    return result.per_seed_lineups(result.variants[0].name)


def render_fig8(result: SweepResult) -> str:
    """All four panels of the first seed's run as one metrics table."""
    return render_table(
        list(PerformanceReport.ROW_HEADERS),
        [r.row() for r in nas_lineups(result)[0]],
        title="Figure 8: NAS trace workload, all Section 4.1 metrics",
    )
