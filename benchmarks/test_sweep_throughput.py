"""Benchmark: replication-sweep fan-out, determinism and throughput.

The acceptance contract of the sweep subsystem: a >= 3-seed sweep
produces per-seed reports (and therefore mean ± std summaries)
*identical* to sequential ``run_lineup`` calls driven by the same
``RngFactory`` streams — ``run_spec``'s process-pool fan-out changes
wall-clock time only.  The bench checks that for both the sequential
in-process fallback (``max_workers=1``) and a real 2-worker pool, and
prints the achieved replication throughput.
"""

import time
from dataclasses import replace

import numpy as np

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.runner import PAPER_LINEUP, run_lineup, scale_jobs
from repro.experiments.spec import ExperimentSpec, run_spec
from repro.experiments.sweep import (
    SWEEP_METRICS,
    job_scaling_variants,
    seed_list,
)
from repro.util.stats import t_critical
from repro.workloads.psa import PSAConfig, psa_scenario

SEEDS = seed_list(3, base_seed=11)  # >= 3 seeds per the acceptance bar
SCALE = 0.1
N_JOBS, N_TRAIN = 120, 100
SETTINGS = RunSettings(
    ga=GAConfig(population_size=24, generations=6, flow_weight=1.0)
)


def sequential_reference():
    """Direct run_lineup calls with the sweep's RngFactory streams."""
    per_seed = []
    for seed in SEEDS:
        scenario = psa_scenario(
            PSAConfig(n_jobs=scale_jobs(N_JOBS, SCALE)), rng=seed
        )
        training = psa_scenario(
            PSAConfig(n_jobs=scale_jobs(N_TRAIN, SCALE)), rng=seed + 7919
        )
        per_seed.append(
            run_lineup(scenario, training, replace(SETTINGS, seed=seed))
        )
    return per_seed


def sweep_spec(n_values):
    """The paper lineup over one PSA variant per N, at ``SEEDS``."""
    return ExperimentSpec(
        name="sweep-throughput",
        schedulers=PAPER_LINEUP,
        variants=job_scaling_variants(n_values, n_training_jobs=N_TRAIN),
        seeds=SEEDS,
        scale=SCALE,
        settings=SETTINGS,
    )


def _assert_cells_match(sweep_result, reference_per_seed):
    vname = sweep_result.variants[0].name
    for i, reports in enumerate(reference_per_seed):
        for rep in reports:
            got = sweep_result.cell(vname, rep.scheduler)[i]
            for metric in SWEEP_METRICS:
                assert getattr(got, metric) == getattr(rep, metric), (
                    rep.scheduler,
                    metric,
                )


def test_sweep_per_seed_identical_to_sequential_lineups():
    spec = sweep_spec([N_JOBS])
    reference = sequential_reference()

    t0 = time.perf_counter()
    seq = run_spec(spec, max_workers=1)
    seq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = run_spec(spec, max_workers=2)
    par_s = time.perf_counter() - t0

    _assert_cells_match(seq, reference)
    _assert_cells_match(par, reference)

    # mean/std summaries therefore agree bit for bit as well
    vname = spec.variants[0].name
    for sched in seq.schedulers():
        for metric in SWEEP_METRICS:
            a = seq.summary(vname, sched, metric)
            b = par.summary(vname, sched, metric)
            assert a.values == b.values
            assert a.mean == b.mean and a.std == b.std

    n_runs = len(SEEDS)
    print(
        f"\nsweep throughput ({n_runs} replications x "
        f"{len(seq.schedulers())} schedulers): "
        f"sequential {seq_s:.2f}s ({n_runs / seq_s:.2f} rep/s), "
        f"2 workers {par_s:.2f}s ({n_runs / par_s:.2f} rep/s)"
    )


def test_sweep_summaries_are_finite_and_ordered():
    """Sanity on the aggregation itself at >= 3 seeds."""
    # sizes chosen so scale_jobs' 20-job floor keeps them distinct
    spec = sweep_spec([200, 600])
    variants = spec.variants
    res = run_spec(spec, max_workers=1)
    for v in variants:
        for sched in res.schedulers():
            s = res.summary(v.name, sched, "makespan")
            assert s.n == len(SEEDS)
            assert np.isfinite(s.mean) and s.std >= 0
            assert s.ci95 == t_critical(s.n - 1) * s.std / np.sqrt(s.n)
    # more jobs -> larger mean makespan for every scheduler
    for sched in res.schedulers():
        small = res.summary(variants[0].name, sched, "makespan").mean
        big = res.summary(variants[1].name, sched, "makespan").mean
        assert big > small
