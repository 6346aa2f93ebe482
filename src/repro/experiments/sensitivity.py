"""Sensitivity studies of the parameters the paper leaves open.

* :func:`batch_interval_spec` — the scheduling period of Figure 1's
  online model is never stated; this spec shows how makespan and
  response trade off as batches grow (longer accumulation = better
  packing but higher queueing delay); run it with
  :func:`~repro.experiments.spec.run_spec`;
* :func:`estimation_error_sweep` — the paper's §5 future-work
  question: how fast do the ETC-driven schedulers degrade when job
  durations are only known up to log-normal estimation error?
"""

from __future__ import annotations

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import run_scheduler
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import ScenarioVariant
from repro.heuristics.estimation import NoisyETCScheduler
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.olb import OLBScheduler
from repro.heuristics.sufferage import SufferageScheduler
from repro.metrics.report import PerformanceReport
from repro.util.rng import RngFactory

__all__ = ["batch_interval_spec", "estimation_error_sweep"]


def batch_interval_spec(
    intervals=(250.0, 1000.0, 4000.0, 16000.0),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
) -> ExperimentSpec:
    """Min-Min f-risky under different scheduling periods: one variant
    per interval (in ``intervals`` order), each overriding the
    settings' ``batch_interval``."""
    return ExperimentSpec(
        name="batch-interval",
        schedulers=("min-min-f-risky",),
        variants=tuple(
            ScenarioVariant(
                name=f"batch_interval={float(interval)!r}",
                n_jobs=n_jobs,
                n_training_jobs=0,
                batch_interval=float(interval),
            )
            for interval in intervals
        ),
        seeds=(settings.seed,),
        scale=scale,
        settings=settings,
    )


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
