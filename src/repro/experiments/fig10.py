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

import numpy as np

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import SweepResult, job_scaling_variants
from repro.util.tables import render_table

__all__ = [
    "psa_scaling_spec",
    "series",
    "render_fig10",
    "DEFAULT_N_GRID",
    "FIG10_LINEUP",
]

DEFAULT_N_GRID = (1000, 2000, 5000, 10000)

#: the figure's three schedulers, the paper's best performers
FIG10_LINEUP = ("min-min-f-risky", "sufferage-f-risky", "stga")

#: panel label -> PerformanceReport field, in print order
_PANELS = {
    "makespan": "makespan",
    "avg_response": "avg_response_time",
    "slowdown": "slowdown_ratio",
    "n_fail": "n_fail",
}


def psa_scaling_spec(
    *,
    n_values=DEFAULT_N_GRID,
    seeds: Sequence[int] | None = None,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """Figure 10 as a declarative spec: one PSA variant per workload
    size N, the figure's three schedulers, ``seeds`` defaulting to the
    single ``settings.seed``.
    """
    return ExperimentSpec(
        name="fig10-psa-scaling",
        schedulers=FIG10_LINEUP,
        variants=job_scaling_variants(
            n_values, n_training_jobs=defaults.n_training_jobs
        ),
        seeds=tuple(seeds) if seeds is not None else (settings.seed,),
        scale=scale,
        settings=settings,
    )


def series(
    result: SweepResult, scheduler: str, metric: str, seed_index: int = 0
) -> np.ndarray:
    """One panel line over N for one seed, e.g.
    ``series(result, "STGA", "makespan")``."""
    return np.array(
        [
            getattr(result.cell(v.name, scheduler)[seed_index], metric)
            for v in result.variants
        ],
        dtype=float,
    )


def render_fig10(result: SweepResult) -> str:
    """The four panels of the first seed's run, each a table with
    rows = N and columns = schedulers, followed by a blank line."""
    names = result.schedulers()
    tables = [
        render_table(
            ["N", *names],
            [
                [v.n_jobs]
                + [getattr(result.cell(v.name, nm)[0], field) for nm in names]
                for v in result.variants
            ],
            title=f"Figure 10: {label} vs N (PSA)",
        )
        for label, field in _PANELS.items()
    ]
    return "\n\n".join(tables) + "\n"
