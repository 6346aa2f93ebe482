#!/usr/bin/env python
"""Replication sweep: paper results with error bars.

The paper (and the seed reproduction) reports every number from a
single seed.  This example re-runs the headline comparisons as an
N-seed x M-variant sweep fanned out over a process pool, then prints

1. the Figure 10 job-count scaling panels as mean ± std series,
2. Table 2 (alpha/beta vs STGA) aggregated over the seed ensemble,
3. the Figure 7(a) risk-level sweep with per-f error bars,
4. a run-store demo: the sweep persisted to ``runs/`` (JSON + CSV),
   reloaded, and self-compared with ``compare_runs`` — the loop that
   makes cross-revision regressions visible (``repro-grid compare-runs
   A B`` does the same between two stored runs),

so "STGA wins" claims come with the spread that supports them.

Run (about a minute at the default 2% scale):
    python examples/replication_sweep.py [scale] [n_seeds] [max_workers]
"""

import sys

from repro.experiments.config import RunSettings
from repro.experiments.fig7 import frisky_sweep_spec, render_fig7a
from repro.experiments.spec import run_spec
from repro.experiments.store import (
    compare_runs,
    list_runs,
    load_run,
    save_run_to_registry,
)
from repro.experiments.sweep import (
    job_scaling_variants,
    run_sweep,
    seed_list,
)
from repro.metrics.compare import (
    compare_ensemble,
    render_ensemble_comparison,
    render_run_diff,
)


def main(
    scale: float = 0.02, n_seeds: int = 3, max_workers: int | None = None
) -> None:
    settings = RunSettings(batch_interval=1000.0, seed=2005)
    seeds = seed_list(n_seeds, base_seed=settings.seed)

    print(f"=== Figure 10 with error bars ({n_seeds} seeds) ===")
    result = run_sweep(
        job_scaling_variants([1000, 2000, 5000]),
        seeds,
        settings=settings,
        scale=scale,
        max_workers=max_workers,
    )
    for metric in ("makespan", "avg_response_time", "slowdown_ratio",
                   "n_fail"):
        print(result.render(metric))
        print()

    print("=== Table 2 over the seed ensemble ===")
    largest = result.variants[-1].name
    print(render_ensemble_comparison(
        compare_ensemble(result.per_seed_lineups(largest)),
        title=f"Table 2 over {n_seeds} seeds ({largest})",
    ))
    print()

    print("=== Figure 7(a) with error bars ===")
    fig7 = run_spec(
        frisky_sweep_spec(
            f_values=(0.0, 0.25, 0.5, 0.75, 1.0),
            seeds=seeds,
            scale=scale,
            settings=settings,
        ),
        max_workers=max_workers,
    )
    print(render_fig7a(fig7))
    print("(best f of the ensemble mean; paper: 0.5-0.6)")
    print()

    print("=== Run store: persist, reload, self-compare ===")
    run_dir = save_run_to_registry(result, root="runs", name="fig10-demo")
    stored = load_run(run_dir)
    assert stored.result.summary_grid("makespan") == result.summary_grid(
        "makespan"
    ), "reloaded summaries must be bit-identical"
    print(f"saved {stored} (git {stored.git_sha or 'n/a'})")
    rows = compare_runs(stored, result)
    print(render_run_diff(
        [r for r in rows if r.metric == "makespan"],
        title="Self-diff sanity check (every verdict should be 'same')",
    ))
    print(f"registry now holds {len(list_runs('runs'))} run(s); diff a "
          "pair with: repro-grid compare-runs <A> <B>")


if __name__ == "__main__":
    main(
        float(sys.argv[1]) if len(sys.argv) > 1 else 0.02,
        int(sys.argv[2]) if len(sys.argv) > 2 else 3,
        int(sys.argv[3]) if len(sys.argv) > 3 else None,
    )
