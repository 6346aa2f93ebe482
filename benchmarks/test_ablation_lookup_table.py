"""Ablations of the history lookup table (Table 1's fixed choices).

* capacity (paper: 150) — a tiny table starves the STGA of seeds;
* similarity threshold (paper: 0.8) — looser thresholds hit more;
* eviction policy — LRU (paper) vs FIFO.

These are extensions beyond the paper's figures; we print the sweeps
and assert only the mechanically-guaranteed monotonicity (hit rates).
"""

from benchmarks.conftest import first_seed_lineups, run_once
from repro.experiments.ablation import (
    eviction_spec,
    lookup_capacity_spec,
    threshold_sweep,
)
from repro.experiments.spec import run_spec
from repro.util.tables import render_table


def test_lookup_capacity_sweep(benchmark, settings, scale):
    capacities = (10, 50, 150)
    spec = lookup_capacity_spec(
        capacities, n_jobs=1000, scale=scale, settings=settings
    )
    res = run_once(benchmark, run_spec, spec, max_workers=1)
    [reports] = first_seed_lineups(res).values()
    out = dict(zip(capacities, reports))
    print()
    print(render_table(
        ["capacity", "makespan", "avg_response"],
        [[c, r.makespan, r.avg_response_time] for c, r in out.items()],
        title="Ablation: history-table capacity (paper fixes 150)",
    ))
    assert all(r.makespan > 0 for r in out.values())


def test_threshold_sweep(benchmark, settings, scale):
    out = run_once(
        benchmark,
        threshold_sweep,
        thresholds=(0.5, 0.8, 0.95),
        n_jobs=1000,
        scale=scale,
        settings=settings,
    )
    print()
    print(render_table(
        ["threshold", "makespan", "hit rate"],
        [[t, rep.makespan, hr] for t, (rep, hr) in out.items()],
        title="Ablation: similarity threshold (paper fixes 0.8)",
    ))
    hit = {t: hr for t, (_, hr) in out.items()}
    # A looser threshold can only match more entries.
    assert hit[0.5] >= hit[0.8] >= hit[0.95]


def test_eviction_comparison(benchmark, settings, scale):
    spec = eviction_spec(n_jobs=1000, scale=scale, settings=settings)
    res = run_once(benchmark, run_spec, spec, max_workers=1)
    [reports] = first_seed_lineups(res).values()
    out = dict(zip(("lru", "fifo"), reports))
    print()
    print(render_table(
        ["policy", "makespan", "avg_response"],
        [[p, r.makespan, r.avg_response_time] for p, r in out.items()],
        title="Ablation: LRU (paper) vs FIFO eviction",
    ))
    # Both complete; on recurring workloads LRU should not lose badly.
    assert out["lru"].makespan <= out["fifo"].makespan * 1.15
