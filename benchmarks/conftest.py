"""Shared benchmark configuration.

Every benchmark regenerates one paper table/figure (see DESIGN.md §5)
at a scaled-down workload size controlled by the ``REPRO_SCALE``
environment variable (default ~5 % of paper scale; ``REPRO_SCALE=1``
reproduces the full runs).  Each bench

* prints the regenerated rows/series next to the paper's values, and
* asserts the paper's *shape* claims (who wins, roughly by how much,
  where crossovers fall) — never absolute numbers.

Because single simulation runs are noisy (heavy-tailed job sizes plus
stochastic failures), shape assertions are made on small seed
ensembles where it matters.
"""

from __future__ import annotations

import pytest

from repro.core.ga import GAConfig
from repro.experiments.config import PaperDefaults, RunSettings, bench_scale

#: seeds used for ensemble-averaged shape assertions
ENSEMBLE_SEEDS = (1, 7, 2005)


@pytest.fixture(scope="session")
def scale() -> float:
    """Workload scale factor (1.0 = paper size)."""
    return bench_scale(0.05)


@pytest.fixture(scope="session")
def bench_ga(scale) -> GAConfig:
    """GA budget for benches: paper operators, reduced population and
    early stop so CI-scale runs stay fast; REPRO_SCALE=1 restores the
    full Table 1 budget."""
    if scale >= 0.5:
        return PaperDefaults().ga_config(flow_weight=1.0)
    return GAConfig(
        population_size=100,
        generations=50,
        stall_generations=15,
        flow_weight=1.0,
    )


@pytest.fixture(scope="session")
def settings(bench_ga) -> RunSettings:
    """Engine settings shared by all benches."""
    return RunSettings(batch_interval=2000.0, seed=2005, ga=bench_ga)


@pytest.fixture(scope="session")
def nas_ensemble(settings, scale):
    """The NAS spec run over the seed ensemble (computed once; shared
    by the Figure 8, Figure 9 and Table 2 benches)."""
    from repro.experiments.fig8 import nas_spec
    from repro.experiments.spec import run_spec

    return run_spec(
        nas_spec(seeds=ENSEMBLE_SEEDS, scale=scale, settings=settings),
        max_workers=1,
    )


def ensemble_mean(result, name, metric):
    """Mean of one scheduler's metric across a one-variant ensemble."""
    import numpy as np

    reports = result.cell(result.variants[0].name, name)
    return float(np.mean([getattr(r, metric) for r in reports]))


def first_seed_lineups(result):
    """``{variant name: reports in ref order}`` at a spec run's first
    seed — the shape of the one-seed ablation and sensitivity specs."""
    return {
        v.name: result.per_seed_lineups(v.name)[0] for v in result.variants
    }


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark.

    These experiments take seconds to minutes; statistical timing
    comes from pytest-benchmark's single round, and the *result* is
    what the bench asserts on.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)
