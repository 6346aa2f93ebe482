"""Ablation benches for the library's extensions beyond the paper.

* Duplex (best of Min-Min/Max-Min) vs its members;
* alternative failure laws (Weibull / step / linear) driving the same
  risky Min-Min schedule — quantifying how much the unspecified
  failure model shapes the headline metrics.
"""

from dataclasses import replace

import numpy as np

from benchmarks.conftest import ENSEMBLE_SEEDS, run_once
from repro.experiments.runner import run_scheduler, scale_jobs
from repro.grid.engine import GridSimulator
from repro.grid.reliability import (
    ExponentialFailure,
    LinearFailure,
    StepFailure,
    WeibullFailure,
)
from repro.heuristics.duplex import DuplexScheduler
from repro.heuristics.maxmin import MaxMinScheduler
from repro.heuristics.minmin import MinMinScheduler
from repro.metrics.report import evaluate
from repro.util.rng import RngFactory
from repro.util.tables import render_table
from repro.workloads.psa import PSAConfig, psa_scenario


def test_duplex_heuristic(benchmark, settings, scale):
    def experiment():
        out = {}
        for seed in ENSEMBLE_SEEDS:
            s = replace(settings, seed=seed)
            sc = psa_scenario(
                PSAConfig(n_jobs=scale_jobs(1000, scale)), rng=seed
            )
            for sched in (
                MinMinScheduler("f-risky"),
                MaxMinScheduler("f-risky"),
                DuplexScheduler("f-risky"),
            ):
                rep = run_scheduler(sc, sched, s)
                out.setdefault(sched.name, []).append(rep.makespan)
        return {k: float(np.mean(v)) for k, v in out.items()}

    means = run_once(benchmark, experiment)
    print()
    print(render_table(
        ["heuristic", "mean makespan"],
        [[k, v] for k, v in means.items()],
        title="Ablation: Duplex vs its members (PSA)",
    ))
    dup = means["Duplex f-Risky(f=0.5)"]
    # Duplex hedges per batch; end-to-end it should track the better
    # member closely (failures decorrelate exact equality).
    assert dup <= max(means.values()) * 1.05


def test_failure_laws(benchmark, settings, scale):
    laws = {
        "exponential(3)": ExponentialFailure(lam=3.0),
        "weibull(2, .3)": WeibullFailure(shape=2.0, scale=0.3),
        "step(.1, .8)": StepFailure(tolerance=0.1, p_fail=0.8),
        "linear(1.6)": LinearFailure(slope=1.6, ceiling=0.95),
    }

    def experiment():
        sc = psa_scenario(
            PSAConfig(n_jobs=scale_jobs(1000, scale)), rng=settings.seed
        )
        out = {}
        for name, law in laws.items():
            sim = GridSimulator(
                sc.grid,
                MinMinScheduler("risky", lam=settings.lam),
                batch_interval=settings.batch_interval,
                lam=settings.lam,
                failure_law=law,
                record_attempts=True,
                rng=RngFactory(settings.seed).stream("failure-law"),
            )
            res = sim.run(sc.jobs)
            rep = evaluate(res, name)
            waste = res.attempts.wasted_time() / max(
                res.attempts.total_busy_time(), 1e-12
            )
            out[name] = (rep.makespan, rep.n_fail, waste)
        return out

    out = run_once(benchmark, experiment)
    print()
    print(render_table(
        ["failure law", "makespan", "N_fail", "waste fraction"],
        [[k, v[0], v[1], v[2]] for k, v in out.items()],
        title="Ablation: failure law under risky Min-Min (PSA)",
    ))
    # Every law completes the workload; waste is bounded.
    for name, (ms, n_fail, waste) in out.items():
        assert ms > 0
        assert 0.0 <= waste < 1.0
