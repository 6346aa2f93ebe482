"""Sensitivity studies of the parameters the paper leaves open.

* :func:`batch_interval_sweep` — the scheduling period of Figure 1's
  online model is never stated; this sweep shows how makespan and
  response trade off as batches grow (longer accumulation = better
  packing but higher queueing delay);
* :func:`estimation_error_sweep` — the paper's §5 future-work
  question: how fast do the ETC-driven schedulers degrade when job
  durations are only known up to log-normal estimation error?
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import run_scheduler
from repro.experiments.sweep import ScenarioVariant
from repro.heuristics.estimation import NoisyETCScheduler
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.olb import OLBScheduler
from repro.heuristics.sufferage import SufferageScheduler
from repro.metrics.report import PerformanceReport
from repro.util.rng import RngFactory

__all__ = ["batch_interval_sweep", "estimation_error_sweep"]


def batch_interval_sweep(
    intervals=(250.0, 1000.0, 4000.0, 16000.0),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
) -> dict[float, PerformanceReport]:
    """Min-Min f-risky under different scheduling periods."""
    scenario, _ = ScenarioVariant(
        name=f"PSA N={n_jobs}", n_jobs=n_jobs, n_training_jobs=0
    ).build_scenarios(settings.seed, scale)
    out: dict[float, PerformanceReport] = {}
    for interval in intervals:
        s = replace(settings, batch_interval=float(interval))
        out[float(interval)] = run_scheduler(
            scenario, MinMinScheduler("f-risky", lam=settings.lam), s
        )
    return out


def estimation_error_sweep(
    sigmas=(0.0, 0.25, 0.5, 1.0, 2.0),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> dict[float, dict[str, PerformanceReport]]:
    """ETC-driven schedulers vs OLB under runtime-estimate noise.

    Returns ``{sigma: {scheduler: report}}``.  OLB ignores execution
    times, so its row is the noise-immune control.
    """
    scenario, _ = ScenarioVariant(
        name=f"PSA N={n_jobs}", n_jobs=n_jobs, n_training_jobs=0
    ).build_scenarios(settings.seed, scale)
    rngs = RngFactory(settings.seed)
    out: dict[float, dict[str, PerformanceReport]] = {}
    for sigma in sigmas:
        row: dict[str, PerformanceReport] = {}
        for base in (
            MinMinScheduler("f-risky", f=defaults.f_risky, lam=settings.lam),
            SufferageScheduler(
                "f-risky", f=defaults.f_risky, lam=settings.lam
            ),
        ):
            noisy = NoisyETCScheduler(
                base,
                sigma=float(sigma),
                rng=rngs.fresh(f"noise-{base.name}-{sigma}"),
            )
            row[base.name] = run_scheduler(scenario, noisy, settings)
        olb = OLBScheduler("f-risky", f=defaults.f_risky, lam=settings.lam)
        row[olb.name] = run_scheduler(scenario, olb, settings)
        out[float(sigma)] = row
    return out
