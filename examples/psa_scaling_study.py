#!/usr/bin/env python
"""PSA scaling study: the paper's Figure 10 plus the Figure 7 sweeps.

Three experiments on parameter-sweep workloads:

1. Figure 7(a): makespan of the f-risky heuristics as the tolerated
   risk f sweeps from secure (0) to fully risky (1) — showing the
   interior optimum that justifies the paper's f = 0.5;
2. Figure 7(b): STGA makespan vs the GA iteration budget — showing
   convergence within ~50 generations;
3. Figure 10: Min-Min f-risky vs Sufferage f-risky vs STGA as the
   job count N scales up.

Each experiment is a spec builder run through ``run_spec`` and
printed by its figure renderer — exactly what ``repro-grid fig7a``,
``fig7b`` and ``fig10`` do.

Run (a few minutes at the default 5% scale):
    python examples/psa_scaling_study.py [scale]
"""

import sys

from repro.experiments.config import RunSettings
from repro.experiments.fig7 import (
    frisky_sweep_spec,
    render_fig7a,
    render_fig7b,
    stga_iteration_spec,
)
from repro.experiments.fig10 import psa_scaling_spec, render_fig10
from repro.experiments.spec import run_spec
from repro.util.tables import render_table


def main(scale: float = 0.05) -> None:
    settings = RunSettings(batch_interval=1000.0, seed=2005)

    print("=== Figure 7(a): risk-level sweep ===")
    sweep = run_spec(frisky_sweep_spec(
        f_values=(0.0, 0.25, 0.5, 0.75, 1.0), scale=scale, settings=settings
    ))
    print(render_fig7a(sweep))
    print("(paper: best f 0.5-0.6)\n")

    print("=== Figure 7(b): STGA convergence ===")
    conv = run_spec(stga_iteration_spec(
        generations=(0, 10, 25, 50, 100), scale=scale, settings=settings
    ))
    print(render_fig7b(conv))
    print("(paper: ~50)\n")

    print("=== Figure 10: scaling N ===")
    scaling = run_spec(psa_scaling_spec(
        n_values=(1000, 2000, 5000), scale=scale, settings=settings
    ))
    print(render_fig10(scaling))

    rows = []
    for variant in scaling.variants:
        (stga,) = scaling.cell(variant.name, "STGA")
        rows.append([
            variant.n_jobs,
            stga.scheduler_seconds / max(stga.n_batches, 1) * 1e3,
        ])
    print(render_table(
        ["N", "decision ms/batch"],
        rows,
        title="STGA decision time per scheduling event",
    ))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
