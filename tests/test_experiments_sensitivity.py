"""Smoke tests for the sensitivity studies (tiny scale)."""

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.sensitivity import (
    batch_interval_spec,
    estimation_error_sweep,
)
from repro.experiments.spec import run_spec

FAST = RunSettings(
    batch_interval=1000.0,
    seed=4,
    ga=GAConfig(population_size=16, generations=8),
)


def by_interval(intervals):
    """{interval: Min-Min f-risky report} of a batch-interval spec run."""
    spec = batch_interval_spec(intervals=intervals, n_jobs=60, settings=FAST)
    res = run_spec(spec, max_workers=1)
    return {
        v.batch_interval: res.per_seed_lineups(v.name)[0][0]
        for v in res.variants
    }


class TestBatchIntervalSweep:
    def test_structure(self):
        out = by_interval((200.0, 2000.0))
        assert set(out) == {200.0, 2000.0}
        for rep in out.values():
            assert rep.makespan > 0
            assert rep.n_jobs == 60

    def test_longer_interval_fewer_batches(self):
        out = by_interval((200.0, 4000.0))
        assert out[4000.0].n_batches <= out[200.0].n_batches


class TestEstimationErrorSweep:
    def test_structure(self):
        out = estimation_error_sweep(
            sigmas=(0.0, 1.0), n_jobs=50, settings=FAST
        )
        assert set(out) == {0.0, 1.0}
        for row in out.values():
            assert len(row) == 3  # Min-Min, Sufferage, OLB control
            for rep in row.values():
                assert rep.makespan > 0

    def test_olb_noise_immune(self):
        out = estimation_error_sweep(
            sigmas=(0.0, 2.0), n_jobs=50, settings=FAST
        )
        olb_name = next(k for k in out[0.0] if k.startswith("OLB"))
        assert (
            out[0.0][olb_name].makespan == out[2.0][olb_name].makespan
        )
