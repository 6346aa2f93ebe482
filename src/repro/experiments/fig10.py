"""Figure 10 — scaling the PSA workload size N.

The paper varies N over {1000, 2000, 5000, 10000} and tracks the three
best performers (Min-Min f-risky, Sufferage f-risky, STGA) on four
panels: (a) makespan, (b) N_fail and N_risk, (c) slowdown ratio,
(d) average response time.  All metrics grow monotonically with N;
the STGA wins throughout (≈6 % on makespan, ≈40 % on slowdown and
response in the paper).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.ga import GAConfig
from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import (
    PAPER_LINEUP,
    make_trained_stga,
    run_scheduler,
    scale_jobs,
)
from repro.experiments.spec import ExperimentSpec, run_spec
from repro.experiments.sweep import (
    SweepResult,
    job_scaling_variants,
)
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.sufferage import SufferageScheduler
from repro.metrics.report import PerformanceReport
from repro.util.tables import render_table
from repro.workloads.psa import PSAConfig, psa_scenario

__all__ = [
    "PSAScalingResult",
    "psa_scaling_experiment",
    "psa_scaling_ensemble",
    "psa_scaling_spec",
    "DEFAULT_N_GRID",
]

DEFAULT_N_GRID = (1000, 2000, 5000, 10000)


@dataclass(frozen=True)
class PSAScalingResult:
    """Reports indexed by (scheduler, N)."""

    n_values: tuple[int, ...]
    reports: dict[str, tuple[PerformanceReport, ...]]

    def series(self, scheduler: str, metric: str) -> np.ndarray:
        """One panel line, e.g. ``series("STGA", "makespan")``."""
        reps = self.reports[scheduler]
        return np.array([getattr(r, metric) for r in reps], dtype=float)

    def render(self, metric: str = "makespan") -> str:
        """One panel as a table: rows = N, columns = schedulers."""
        names = list(self.reports)
        rows = []
        for i, n in enumerate(self.n_values):
            rows.append([n] + [self.reports[nm][i].row()[1:][_metric_col(metric)]
                               for nm in names])
        return render_table(
            ["N"] + names, rows, title=f"Figure 10: {metric} vs N (PSA)"
        )


def _metric_col(metric: str) -> int:
    cols = {"makespan": 0, "avg_response": 1, "slowdown": 2, "n_risk": 3,
            "n_fail": 4}
    if metric not in cols:
        raise KeyError(f"unknown panel metric {metric!r}")
    return cols[metric]


def psa_scaling_experiment(
    *,
    n_values=DEFAULT_N_GRID,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
    ga_config: GAConfig | None = None,
) -> PSAScalingResult:
    """Run Figure 10: three schedulers at each workload size."""
    ns = tuple(int(n) for n in n_values)
    reports: dict[str, list[PerformanceReport]] = {
        "Min-Min f-Risky(f=0.5)": [],
        "Sufferage f-Risky(f=0.5)": [],
        "STGA": [],
    }
    for n in ns:
        n_eff = scale_jobs(n, scale)
        scenario = psa_scenario(PSAConfig(n_jobs=n_eff), rng=settings.seed)
        training = psa_scenario(
            PSAConfig(n_jobs=scale_jobs(defaults.n_training_jobs, scale)),
            rng=settings.seed + 7919,
        )
        mm = MinMinScheduler("f-risky", f=defaults.f_risky, lam=settings.lam)
        sf = SufferageScheduler("f-risky", f=defaults.f_risky, lam=settings.lam)
        stga = make_trained_stga(
            scenario, training, settings, defaults=defaults, ga_config=ga_config
        )
        for sched in (mm, sf, stga):
            reports[sched.name].append(run_scheduler(scenario, sched, settings))
    return PSAScalingResult(
        n_values=ns,
        reports={k: tuple(v) for k, v in reports.items()},
    )


def psa_scaling_spec(
    *,
    n_values=DEFAULT_N_GRID,
    seeds: Sequence[int] | None = None,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """Figure 10 as a declarative spec: one PSA variant per workload
    size N, the paper's full lineup (a superset of the figure's three
    schedulers), ``seeds`` defaulting to the single ``settings.seed``.
    """
    return ExperimentSpec(
        name="fig10-psa-scaling",
        schedulers=PAPER_LINEUP,
        variants=job_scaling_variants(
            n_values, n_training_jobs=defaults.n_training_jobs
        ),
        seeds=tuple(seeds) if seeds is not None else (settings.seed,),
        scale=scale,
        settings=settings,
    )


def psa_scaling_ensemble(
    seeds: Sequence[int],
    *,
    n_values=DEFAULT_N_GRID,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
    max_workers: int | None = None,
) -> SweepResult:
    """Figure 10 with error bars: the N-grid replicated over seeds.

    Fans the (N, seed) grid out over a process pool and returns a
    :class:`~repro.experiments.sweep.SweepResult` whose
    ``render(metric)`` prints each panel as mean ± std series (the
    full lineup, a superset of the figure's three schedulers).  Thin
    wrapper: builds :func:`psa_scaling_spec` and executes it.
    """
    return run_spec(
        psa_scaling_spec(
            n_values=n_values, seeds=seeds, scale=scale, settings=settings,
            defaults=defaults,
        ),
        defaults=defaults,
        max_workers=max_workers,
    )
