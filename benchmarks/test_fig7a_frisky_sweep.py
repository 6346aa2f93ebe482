"""Figure 7(a) — makespan of the f-risky heuristics vs the risk level f.

Paper claims (PSA, N = 1000): both curves are concave with interior
minima around f = 0.5 (Min-Min) / 0.6 (Sufferage); the optimum lies in
0.5-0.6, justifying f = 0.5 everywhere else.

Shape assertions here: an interior f beats *both* endpoints (f = 0 is
the secure mode, f = 1 the risky mode) on the seed ensemble, and the
best f is not at the secure end.
"""

import numpy as np

from benchmarks.conftest import ENSEMBLE_SEEDS, run_once

from repro.experiments.fig7 import frisky_series, frisky_sweep_spec
from repro.experiments.spec import run_spec
from repro.util.tables import render_table

F_GRID = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)


def test_fig7a_frisky_sweep(benchmark, settings, scale):
    def experiment():
        spec = frisky_sweep_spec(
            n_jobs=1000,
            f_values=F_GRID,
            seeds=ENSEMBLE_SEEDS,
            scale=scale,
            settings=settings,
        )
        _, per_seed_mm, per_seed_sf = frisky_series(
            run_spec(spec, max_workers=1)
        )
        mm = np.zeros(len(F_GRID))
        sf = np.zeros(len(F_GRID))
        for seed_mm, seed_sf in zip(per_seed_mm, per_seed_sf):
            mm += seed_mm
            sf += seed_sf
        return mm / len(ENSEMBLE_SEEDS), sf / len(ENSEMBLE_SEEDS)

    mm, sf = run_once(benchmark, experiment)

    print()
    print(render_table(
        ["f", "Min-Min f-Risky", "Sufferage f-Risky"],
        [[f, a, b] for f, a, b in zip(F_GRID, mm, sf)],
        title=(
            "Figure 7(a): makespan vs f (PSA, ensemble mean; paper: "
            "concave, min at f=0.5-0.6)"
        ),
    ))

    for series, label in ((mm, "Min-Min"), (sf, "Sufferage")):
        interior_best = series[1:-1].min()
        # An intermediate risk level beats the fully secure endpoint...
        assert interior_best < series[0], (
            f"{label}: no interior f beats the secure endpoint"
        )
        # ...and does not lose to the fully risky endpoint.
        assert interior_best <= series[-1] * 1.02, (
            f"{label}: interior minimum loses to the risky endpoint"
        )
        best_f = F_GRID[int(np.argmin(series))]
        assert best_f > 0.0, f"{label}: best f is the secure endpoint"
        print(f"{label}: best f = {best_f} "
              f"(paper: 0.5-0.6), secure/interior ratio = "
              f"{series[0] / interior_best:.3f}")
