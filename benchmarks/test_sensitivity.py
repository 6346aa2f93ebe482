"""Sensitivity benches: batch interval and runtime-estimate error.

* The scheduling period (unspecified in the paper) trades packing
  quality against queueing delay; we print the sweep and assert only
  the mechanical fact that longer periods produce fewer, larger
  batches.
* The §5 future-work question: ETC-driven schedulers degrade smoothly
  with log-normal estimate error, while OLB (which never looks at
  execution times) is exactly noise-immune.
"""

import numpy as np

from benchmarks.conftest import first_seed_lineups, run_once
from repro.experiments.sensitivity import (
    batch_interval_spec,
    estimation_error_sweep,
)
from repro.experiments.spec import run_spec
from repro.util.tables import render_table


def test_batch_interval(benchmark, settings, scale):
    intervals = (250.0, 1000.0, 4000.0, 16000.0)
    spec = batch_interval_spec(
        intervals, n_jobs=1000, scale=scale, settings=settings
    )
    res = run_once(benchmark, run_spec, spec, max_workers=1)
    out = {
        interval: report
        for interval, [report] in zip(
            intervals, first_seed_lineups(res).values()
        )
    }
    print()
    print(render_table(
        ["interval (s)", "makespan", "avg_response", "batches",
         "mean batch"],
        [
            [i, r.makespan, r.avg_response_time, r.n_batches,
             r.n_jobs / max(r.n_batches, 1)]
            for i, r in out.items()
        ],
        title="Sensitivity: scheduling period (unspecified in paper)",
    ))
    intervals = sorted(out)
    batches = [out[i].n_batches for i in intervals]
    assert all(a >= b for a, b in zip(batches, batches[1:])), (
        "longer periods must produce no more batches"
    )


def test_estimation_error(benchmark, settings, scale):
    out = run_once(
        benchmark,
        estimation_error_sweep,
        sigmas=(0.0, 0.5, 1.0, 2.0),
        n_jobs=1000,
        scale=scale,
        settings=settings,
    )
    sigmas = sorted(out)
    names = list(out[sigmas[0]])
    print()
    print(render_table(
        ["sigma"] + names,
        [[s] + [out[s][n].makespan for n in names] for s in sigmas],
        title="Sensitivity: makespan vs runtime-estimate error "
              "(paper §5 future work)",
    ))

    olb = next(n for n in names if n.startswith("OLB"))
    olb_series = [out[s][olb].makespan for s in sigmas]
    assert len(set(np.round(olb_series, 6))) == 1, "OLB must be immune"

    # Oracle estimates should not lose to heavily corrupted ones for
    # the ETC-driven schedulers (allowing failure-sampling noise).
    for n in names:
        if n == olb:
            continue
        assert out[0.0][n].makespan <= out[2.0][n].makespan * 1.15, (
            f"{n}: oracle ETC lost badly to sigma=2 noise"
        )
