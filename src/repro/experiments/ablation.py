"""Ablation studies of the STGA's design choices (DESIGN.md §5).

These go beyond the paper's figures and probe the knobs the paper
fixes by fiat.  Most are spec builders — run them with
:func:`~repro.experiments.spec.run_spec`:

* :func:`stga_ablation_spec` — LRU vs FIFO, history-only STGA and the
  conventional GA side by side;
* :func:`lookup_capacity_spec` — Table 1's table size (150);
* :func:`eviction_spec` — LRU (paper) vs FIFO;
* :func:`risk_penalty_spec` — risk-penalised fitness (extension);
* :func:`lambda_spec` — the unspecified failure constant λ;
* :func:`failure_point_spec` — where the fail-stop bites.

Two studies read scheduler internals a report does not carry, so they
still build their schedulers by hand:

* :func:`stga_vs_conventional` — the Figure 5 concept made
  quantitative: identical GA, with and without history seeding;
* :func:`threshold_sweep` — Table 1's similarity threshold (0.8).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.ga import GAConfig
from repro.core.history import HistoryTable
from repro.core.stga import StandardGAScheduler
from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import make_trained_stga, run_scheduler
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import ScenarioVariant
from repro.metrics.report import PerformanceReport
from repro.util.rng import RngFactory

__all__ = [
    "GAComparisonResult",
    "stga_vs_conventional",
    "stga_ablation_spec",
    "lookup_capacity_spec",
    "threshold_sweep",
    "eviction_spec",
    "risk_penalty_spec",
    "lambda_spec",
    "failure_point_spec",
]


def _psa_variant(n_jobs: int, n_training_jobs: int) -> ScenarioVariant:
    return ScenarioVariant(
        name=f"PSA N={n_jobs}", n_jobs=n_jobs, n_training_jobs=n_training_jobs
    )


def _psa_pair(n_jobs: int, scale: float, settings: RunSettings, defaults):
    return _psa_variant(n_jobs, defaults.n_training_jobs).build_scenarios(
        settings.seed, scale
    )


@dataclass(frozen=True)
class GAComparisonResult:
    """STGA vs conventional GA under an identical generation budget."""

    stga: PerformanceReport
    conventional: PerformanceReport
    #: mean best-fitness of the *initial* population per batch — the
    #: paper's Figure 5 claim is stga_initial < conventional_initial.
    stga_initial_mean: float
    conventional_initial_mean: float
    stga_history_hit_rate: float


def stga_vs_conventional(
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
    ga_config: GAConfig | None = None,
) -> GAComparisonResult:
    """Quantify the value of the history table (Figure 5 concept)."""
    scenario, training = _psa_pair(n_jobs, scale, settings, defaults)
    cfg = ga_config if ga_config is not None else settings.ga

    stga = make_trained_stga(
        scenario, training, settings, defaults=defaults, ga_config=cfg
    )
    stga_report = run_scheduler(scenario, stga, settings)

    conventional = StandardGAScheduler(
        "f-risky",  # same gene alphabet as the STGA for a fair contrast
        f=defaults.f_risky,
        lam=settings.lam,
        config=cfg,
        rng=RngFactory(settings.seed).stream("conventional-ga"),
    )
    conv_report = run_scheduler(scenario, conventional, settings)

    return GAComparisonResult(
        stga=stga_report,
        conventional=conv_report,
        stga_initial_mean=float(np.mean(stga.initial_fitnesses)),
        conventional_initial_mean=float(np.mean(conventional.initial_fitnesses)),
        stga_history_hit_rate=stga.history.hit_rate,
    )


def stga_ablation_spec(
    *,
    n_jobs: int = 1000,
    seeds=None,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """The STGA design-choice ablation as a declarative spec.

    One PSA variant, four parameterized ``stga`` refs plus the
    conventional GA: the paper's LRU table, FIFO eviction, a
    history-only STGA (no per-batch heuristic seeds) and the
    no-history baseline — labels keep the report names distinct.
    """
    return ExperimentSpec(
        name="stga-ablation",
        schedulers=(
            "stga",
            "stga?eviction=fifo&label=STGA-FIFO",
            "stga?heuristic_seeds=false&label=STGA-history-only",
            "ga?label=conventional-GA",
        ),
        variants=(_psa_variant(n_jobs, defaults.n_training_jobs),),
        seeds=tuple(seeds) if seeds is not None else (settings.seed,),
        scale=scale,
        settings=settings,
    )


def _stga_refs_spec(
    name: str,
    refs,
    *,
    n_jobs: int,
    scale: float,
    settings: RunSettings,
    defaults: PaperDefaults,
) -> ExperimentSpec:
    """Labelled ``stga?…`` refs on one PSA variant at ``settings.seed``."""
    return ExperimentSpec(
        name=name,
        schedulers=tuple(refs),
        variants=(_psa_variant(n_jobs, defaults.n_training_jobs),),
        seeds=(settings.seed,),
        scale=scale,
        settings=settings,
    )


def lookup_capacity_spec(
    capacities=(10, 50, 150, 400),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """Makespan sensitivity to the history-table capacity: one
    ``stga?capacity=C`` ref per capacity, in ``capacities`` order."""
    return _stga_refs_spec(
        "lookup-capacity",
        (
            f"stga?capacity={c}&label=STGA-capacity-{c}"
            for c in map(int, capacities)
        ),
        n_jobs=n_jobs,
        scale=scale,
        settings=settings,
        defaults=defaults,
    )


def threshold_sweep(
    thresholds=(0.5, 0.7, 0.8, 0.9, 0.99),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
    ga_config: GAConfig | None = None,
) -> dict[float, tuple[PerformanceReport, float]]:
    """(report, history hit rate) per similarity threshold."""
    scenario, training = _psa_pair(n_jobs, scale, settings, defaults)
    out: dict[float, tuple[PerformanceReport, float]] = {}
    for th in thresholds:
        table = HistoryTable(
            capacity=defaults.lookup_table_size, threshold=float(th)
        )
        stga = make_trained_stga(
            scenario,
            training,
            settings,
            defaults=defaults,
            ga_config=ga_config,
            history=table,
        )
        rep = run_scheduler(scenario, stga, settings)
        out[float(th)] = (rep, table.hit_rate)
    return out


def eviction_spec(
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """LRU (paper) vs FIFO eviction for the lookup table, in that order."""
    return _stga_refs_spec(
        "eviction",
        (
            "stga?eviction=lru&label=STGA-LRU",
            "stga?eviction=fifo&label=STGA-FIFO",
        ),
        n_jobs=n_jobs,
        scale=scale,
        settings=settings,
        defaults=defaults,
    )


def risk_penalty_spec(
    penalties=(0.0, 0.5, 1.0, 2.0),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """Risk-penalised GA fitness (extension), trading N_fail against
    makespan: one ``stga?risk_penalty=P`` ref per penalty, in order."""
    return _stga_refs_spec(
        "risk-penalty",
        (
            f"stga?risk_penalty={p!r}&label=STGA-risk-penalty-{p!r}"
            for p in map(float, penalties)
        ),
        n_jobs=n_jobs,
        scale=scale,
        settings=settings,
        defaults=defaults,
    )


def lambda_spec(
    lams=(1.0, 3.0, 6.0, 12.0),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
) -> ExperimentSpec:
    """Risky vs secure Min-Min across failure-law steepness λ.

    One variant per λ (in ``lams`` order), each overriding the
    settings' ``lam``.  As λ grows, risky placements fail more often
    and the risky mode's advantage shrinks — this sweep quantifies how
    much our default λ = 3.0 matters.
    """
    return ExperimentSpec(
        name="lambda",
        schedulers=("min-min-risky", "min-min-secure"),
        variants=tuple(
            ScenarioVariant(
                name=f"lambda={float(lam)!r}",
                n_jobs=n_jobs,
                n_training_jobs=0,
                lam=float(lam),
            )
            for lam in lams
        ),
        seeds=(settings.seed,),
        scale=scale,
        settings=settings,
    )


def failure_point_spec(
    point: str,
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
) -> ExperimentSpec:
    """Risky Min-Min under one fail-stop point (``'uniform'`` or
    ``'end'``).  The point is a :class:`RunSettings` field, so each
    point is its own spec."""
    return ExperimentSpec(
        name=f"failure-point-{point}",
        schedulers=("min-min-risky",),
        variants=(_psa_variant(n_jobs, 0),),
        seeds=(settings.seed,),
        scale=scale,
        settings=replace(settings, failure_point=point),
    )
