"""Figure 10 — scaling the PSA workload size N.

Paper claims (PSA, N in {1000, 2000, 5000, 10000}; Min-Min f-risky,
Sufferage f-risky and STGA, the three best performers):

* all metrics grow monotonically with N;
* the STGA leads throughout (~6 % makespan, bigger margins on
  slowdown/response in the paper);
* the two f-risky heuristics are nearly indistinguishable (<~1 %).
"""

import numpy as np

from benchmarks.conftest import ENSEMBLE_SEEDS, run_once
from repro.experiments.fig10 import psa_scaling_spec, series
from repro.experiments.spec import run_spec
from repro.util.tables import render_table

MM = "Min-Min f-Risky(f=0.5)"
SF = "Sufferage f-Risky(f=0.5)"


def test_fig10_psa_scaling(benchmark, settings, scale):
    spec = psa_scaling_spec(
        n_values=(1000, 2000, 5000, 10000),
        seeds=ENSEMBLE_SEEDS,
        scale=scale,
        settings=settings,
    )
    result = run_once(benchmark, run_spec, spec, max_workers=1)

    for metric in ("makespan", "avg_response_time", "slowdown_ratio",
                   "n_fail", "n_risk"):
        print()
        # printed series: first seed
        rows = [
            [v.n_jobs, *(series(result, name, metric)[i]
                         for name in (MM, SF, "STGA"))]
            for i, v in enumerate(result.variants)
        ]
        print(render_table(
            ["N", MM, SF, "STGA"], rows,
            title=f"Figure 10: {metric} vs N (PSA)",
        ))

    # Monotone growth with N for the load-driven metrics (ensemble
    # mean smooths single-run noise).
    def mean_series(name, metric):
        return np.mean(
            [
                series(result, name, metric, i)
                for i in range(len(ENSEMBLE_SEEDS))
            ],
            axis=0,
        )

    for name in (MM, SF, "STGA"):
        for metric in ("makespan", "avg_response_time"):
            line = mean_series(name, metric)
            assert (np.diff(line) > 0).all(), (
                f"{name} {metric} not increasing with N"
            )

    # The two f-risky heuristics stay close (paper: within ~1%; we
    # allow more at reduced scale).
    mm_ms = mean_series(MM, "makespan")
    sf_ms = mean_series(SF, "makespan")
    assert (np.abs(mm_ms - sf_ms) / mm_ms < 0.25).all()

    # STGA leads overall: geometric-mean makespan ratio <= 1, and it
    # wins at the largest N (where averaging effects dominate noise).
    ratios = mean_series("STGA", "makespan") / np.minimum(mm_ms, sf_ms)
    gmean = float(np.exp(np.log(ratios).mean()))
    print(f"\nSTGA/best-heuristic makespan ratio per N (ensemble): "
          f"{np.round(ratios, 3).tolist()} (geometric mean {gmean:.3f})")
    assert gmean <= 1.03, "STGA not leading the PSA scaling study"
    assert ratios[-1] <= 1.03, "STGA loses at the largest N"
