"""Ablation studies of the STGA's design choices (DESIGN.md §5).

These go beyond the paper's figures and probe the knobs the paper
fixes by fiat:

* :func:`stga_vs_conventional` — the Figure 5 concept made
  quantitative: identical GA, with and without history seeding;
* :func:`lookup_capacity_sweep` — Table 1's table size (150);
* :func:`threshold_sweep` — Table 1's similarity threshold (0.8);
* :func:`eviction_comparison` — LRU (paper) vs FIFO;
* :func:`lambda_sensitivity` — the unspecified failure constant λ;
* :func:`failure_point_comparison` — where the fail-stop bites;
* :func:`risk_penalty_sweep` — risk-penalised fitness (extension).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.ga import GAConfig
from repro.core.history import HistoryTable
from repro.core.stga import StandardGAScheduler, STGAScheduler
from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import make_trained_stga, run_scheduler
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import ScenarioVariant
from repro.heuristics.minmin import MinMinScheduler
from repro.metrics.report import PerformanceReport
from repro.util.rng import RngFactory

__all__ = [
    "GAComparisonResult",
    "stga_vs_conventional",
    "stga_ablation_spec",
    "lookup_capacity_sweep",
    "threshold_sweep",
    "eviction_comparison",
    "lambda_sensitivity",
    "failure_point_comparison",
    "risk_penalty_sweep",
]


def _psa_pair(n_jobs: int, scale: float, settings: RunSettings, defaults):
    return ScenarioVariant(
        name=f"PSA N={n_jobs}",
        n_jobs=n_jobs,
        n_training_jobs=defaults.n_training_jobs,
    ).build_scenarios(settings.seed, scale)


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
        variants=(
            ScenarioVariant(
                name=f"PSA N={n_jobs}",
                workload="psa",
                n_jobs=n_jobs,
                n_training_jobs=defaults.n_training_jobs,
            ),
        ),
        seeds=tuple(seeds) if seeds is not None else (settings.seed,),
        scale=scale,
        settings=settings,
    )


def _trained_stga_with_table(
    scenario, training, settings, defaults, table: HistoryTable, ga_config=None
) -> STGAScheduler:
    return make_trained_stga(
        scenario,
        training,
        settings,
        defaults=defaults,
        ga_config=ga_config,
        history=table,
    )


def lookup_capacity_sweep(
    capacities=(10, 50, 150, 400),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
    ga_config: GAConfig | None = None,
) -> dict[int, PerformanceReport]:
    """Makespan sensitivity to the history-table capacity."""
    scenario, training = _psa_pair(n_jobs, scale, settings, defaults)
    out: dict[int, PerformanceReport] = {}
    for cap in capacities:
        table = HistoryTable(
            capacity=int(cap), threshold=defaults.similarity_threshold
        )
        stga = _trained_stga_with_table(
            scenario, training, settings, defaults, table, ga_config
        )
        out[int(cap)] = run_scheduler(scenario, stga, settings)
    return out


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
        stga = _trained_stga_with_table(
            scenario, training, settings, defaults, table, ga_config
        )
        rep = run_scheduler(scenario, stga, settings)
        out[float(th)] = (rep, table.hit_rate)
    return out


def eviction_comparison(
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
    ga_config: GAConfig | None = None,
) -> dict[str, PerformanceReport]:
    """LRU (paper) vs FIFO eviction for the lookup table."""
    scenario, training = _psa_pair(n_jobs, scale, settings, defaults)
    out: dict[str, PerformanceReport] = {}
    for policy in ("lru", "fifo"):
        table = HistoryTable(
            capacity=defaults.lookup_table_size,
            threshold=defaults.similarity_threshold,
            eviction=policy,
        )
        stga = _trained_stga_with_table(
            scenario, training, settings, defaults, table, ga_config
        )
        out[policy] = run_scheduler(scenario, stga, settings)
    return out


def lambda_sensitivity(
    lams=(1.0, 3.0, 6.0, 12.0),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
) -> dict[float, dict[str, PerformanceReport]]:
    """Risky vs secure Min-Min across failure-law steepness λ.

    As λ grows, risky placements fail more often and the risky mode's
    advantage shrinks — this sweep quantifies how much our default
    λ = 3.0 matters.
    """
    scenario, _ = ScenarioVariant(
        name=f"PSA N={n_jobs}", n_jobs=n_jobs, n_training_jobs=0
    ).build_scenarios(settings.seed, scale)
    out: dict[float, dict[str, PerformanceReport]] = {}
    for lam in lams:
        s = replace(settings, lam=float(lam))
        out[float(lam)] = {
            "risky": run_scheduler(
                scenario, MinMinScheduler("risky", lam=float(lam)), s
            ),
            "secure": run_scheduler(
                scenario, MinMinScheduler("secure", lam=float(lam)), s
            ),
        }
    return out


def failure_point_comparison(
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
) -> dict[str, PerformanceReport]:
    """'uniform' vs 'end' fail-stop point under risky Min-Min."""
    scenario, _ = ScenarioVariant(
        name=f"PSA N={n_jobs}", n_jobs=n_jobs, n_training_jobs=0
    ).build_scenarios(settings.seed, scale)
    out: dict[str, PerformanceReport] = {}
    for point in ("uniform", "end"):
        s = replace(settings, failure_point=point)
        out[point] = run_scheduler(
            scenario, MinMinScheduler("risky", lam=settings.lam), s
        )
    return out


def risk_penalty_sweep(
    penalties=(0.0, 0.5, 1.0, 2.0),
    *,
    n_jobs: int = 1000,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
    ga_config: GAConfig | None = None,
) -> dict[float, PerformanceReport]:
    """Risk-penalised GA fitness (extension): trade N_fail vs makespan."""
    scenario, training = _psa_pair(n_jobs, scale, settings, defaults)
    out: dict[float, PerformanceReport] = {}
    for pen in penalties:
        stga = make_trained_stga(
            scenario,
            training,
            settings,
            defaults=defaults,
            ga_config=ga_config,
            risk_penalty=float(pen),
        )
        out[float(pen)] = run_scheduler(scenario, stga, settings)
    return out
