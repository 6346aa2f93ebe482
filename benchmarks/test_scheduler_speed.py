"""Scheduler decision-time microbenchmarks.

The paper's pitch is that the STGA is *fast enough for online use*
("very fast and easy to implement"; Section 5 reports low overhead).
These benches time a single scheduling decision on a realistic batch
and let pytest-benchmark do proper statistics — the one place where
wall-clock timing, not schedule quality, is the deliverable.
"""

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.core.stga import STGAScheduler
from repro.grid.batch import Batch
from repro.grid.site import Grid
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.sufferage import SufferageScheduler


def make_batch(n_jobs=50, n_sites=20, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid.from_arrays(
        rng.integers(1, 11, size=n_sites).astype(float),
        rng.uniform(0.4, 1.0, size=n_sites),
    )
    w = rng.choice(15000.0 * np.arange(1, 21), size=n_jobs)
    return Batch(
        now=0.0,
        job_ids=np.arange(n_jobs),
        workloads=w,
        security_demands=rng.uniform(0.6, 0.9, size=n_jobs),
        secure_only=np.zeros(n_jobs, dtype=bool),
        etc=w[:, None] / grid.speeds[None, :],
        ready=rng.uniform(0, 1e4, size=n_sites),
        site_security=grid.security_levels.copy(),
        speeds=grid.speeds.copy(),
    )


@pytest.mark.parametrize("n_jobs", [10, 50, 200])
def test_minmin_decision_time(benchmark, n_jobs):
    batch = make_batch(n_jobs)
    sched = MinMinScheduler("f-risky", f=0.5)
    benchmark(sched.schedule, batch)


@pytest.mark.parametrize("n_jobs", [10, 50, 200])
def test_sufferage_decision_time(benchmark, n_jobs):
    batch = make_batch(n_jobs)
    sched = SufferageScheduler("f-risky", f=0.5)
    benchmark(sched.schedule, batch)


@pytest.mark.parametrize("n_jobs", [10, 50])
def test_stga_decision_time_paper_budget(benchmark, n_jobs):
    """Full Table 1 budget: 200 chromosomes x 100 generations."""
    batch = make_batch(n_jobs)
    sched = STGAScheduler(
        "f-risky",
        config=GAConfig(population_size=200, generations=100,
                        flow_weight=1.0),
        rng=0,
    )
    result = benchmark(sched.schedule, batch)
    assert result.n_assigned == n_jobs


def test_stga_decision_subsecond_at_paper_budget(benchmark):
    """The paper's online-suitability claim: a full-budget STGA
    decision on a 50-job batch stays well under a second."""
    import time

    batch = make_batch(50)
    sched = STGAScheduler(
        "f-risky",
        config=GAConfig(population_size=200, generations=100,
                        flow_weight=1.0),
        rng=0,
    )
    start = time.perf_counter()
    benchmark.pedantic(sched.schedule, args=(batch,), rounds=3, iterations=1)
    elapsed = (time.perf_counter() - start) / 3
    assert elapsed < 1.0, f"STGA decision took {elapsed:.2f}s"
