"""Smoke tests for the ablation studies (tiny scale)."""

from repro.core.ga import GAConfig
from repro.experiments.ablation import (
    eviction_spec,
    failure_point_spec,
    lambda_spec,
    lookup_capacity_spec,
    risk_penalty_spec,
    stga_vs_conventional,
    threshold_sweep,
)
from repro.experiments.config import RunSettings
from repro.experiments.spec import run_spec

FAST_GA = GAConfig(population_size=16, generations=8)
SETTINGS = RunSettings(batch_interval=2000.0, seed=5, ga=FAST_GA)


def lineup(spec):
    """The one-seed run of a one-variant spec: reports in ref order."""
    res = run_spec(spec, max_workers=1)
    [reports] = res.per_seed_lineups(res.variants[0].name)
    return reports


class TestStgaVsConventional:
    def test_structure(self):
        res = stga_vs_conventional(
            n_jobs=50, scale=1.0, settings=SETTINGS, ga_config=FAST_GA
        )
        assert res.stga.scheduler == "STGA"
        assert res.conventional.scheduler == "GA f-Risky(f=0.5)"
        assert res.stga_initial_mean > 0
        assert res.conventional_initial_mean > 0
        assert 0.0 <= res.stga_history_hit_rate <= 1.0


class TestSweeps:
    def test_lookup_capacity(self):
        reports = lineup(
            lookup_capacity_spec((5, 50), n_jobs=40, settings=SETTINGS)
        )
        assert [r.scheduler for r in reports] == [
            "STGA-capacity-5",
            "STGA-capacity-50",
        ]
        assert all(r.makespan > 0 for r in reports)

    def test_threshold(self):
        out = threshold_sweep(
            thresholds=(0.5, 0.9),
            n_jobs=40,
            settings=SETTINGS,
            ga_config=FAST_GA,
        )
        for rep, hit_rate in out.values():
            assert rep.makespan > 0
            assert 0.0 <= hit_rate <= 1.0
        # looser threshold cannot have a lower hit rate
        assert out[0.5][1] >= out[0.9][1]

    def test_eviction(self):
        reports = lineup(eviction_spec(n_jobs=40, settings=SETTINGS))
        assert [r.scheduler for r in reports] == ["STGA-LRU", "STGA-FIFO"]

    def test_lambda(self):
        spec = lambda_spec(lams=(1.0, 10.0), n_jobs=40, settings=SETTINGS)
        res = run_spec(spec, max_workers=1)
        assert [v.lam for v in res.variants] == [1.0, 10.0]
        for v in res.variants:
            [(risky, secure)] = res.per_seed_lineups(v.name)
            assert risky.scheduler == "Min-Min Risky"
            assert secure.n_fail == 0

    def test_failure_point(self):
        out = {
            point: lineup(
                failure_point_spec(point, n_jobs=40, settings=SETTINGS)
            )
            for point in ("uniform", "end")
        }
        # charging the full attempt cannot shorten the makespan when
        # the same failures occur... but seeds differ per run, so just
        # sanity-check positivity.
        assert all(r.makespan > 0 for [r] in out.values())

    def test_risk_penalty(self):
        reports = lineup(
            risk_penalty_spec((0.0, 2.0), n_jobs=40, settings=SETTINGS)
        )
        assert [r.scheduler for r in reports] == [
            "STGA-risk-penalty-0.0",
            "STGA-risk-penalty-2.0",
        ]
