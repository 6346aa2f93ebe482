"""Cross-module integration tests: full simulations with every
scheduler on both workload families, checking the invariants that must
hold regardless of tuning (the paper's structural claims).
"""

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.core.stga import STGAScheduler, StandardGAScheduler
from repro.experiments.config import RunSettings
from repro.experiments.runner import PAPER_LINEUP, run_scheduler
from repro.grid.engine import GridSimulator
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.sufferage import SufferageScheduler
from repro.registry import build_scheduler
from repro.workloads.nas import NASConfig, nas_scenario
from repro.workloads.psa import PSAConfig, psa_scenario

FAST_GA = GAConfig(population_size=24, generations=12)
SETTINGS = RunSettings(batch_interval=2000.0, seed=17, ga=FAST_GA)


@pytest.fixture(scope="module")
def psa():
    return psa_scenario(PSAConfig(n_jobs=120), rng=17)


@pytest.fixture(scope="module")
def nas():
    return nas_scenario(NASConfig(n_jobs=150, trace_days=2), rng=17)


ALL_SCHEDULERS = [
    *(build_scheduler(ref, SETTINGS) for ref in PAPER_LINEUP[:-1]),
    STGAScheduler(config=FAST_GA, rng=1),
    StandardGAScheduler("risky", config=FAST_GA, rng=2),
]


@pytest.mark.parametrize(
    "scheduler", ALL_SCHEDULERS, ids=lambda s: s.name
)
class TestEverySchedulerOnPSA:
    def test_invariants(self, scheduler, psa):
        rep = run_scheduler(psa, scheduler, SETTINGS)
        assert rep.n_jobs == psa.n_jobs
        assert rep.makespan > 0
        assert rep.avg_response_time > 0
        assert rep.slowdown_ratio >= 1.0 - 1e-9
        assert 0 <= rep.n_fail <= rep.n_risk <= rep.n_jobs
        assert (rep.site_utilization >= -1e-9).all()
        assert (rep.site_utilization <= 100 + 1e-9).all()
        if "Secure" in rep.scheduler:
            assert rep.n_risk == 0 and rep.n_fail == 0


class TestWorkConservation:
    def test_busy_time_equals_executed_work(self, psa):
        """With failure_point='end' every attempt occupies exactly its
        execution time, so busy time is exactly attributable."""
        from dataclasses import replace

        settings = replace(SETTINGS, failure_point="end")
        sim = GridSimulator(
            psa.grid,
            MinMinScheduler("risky"),
            batch_interval=settings.batch_interval,
            failure_point="end",
            rng=0,
        )
        res = sim.run(psa.jobs)
        # every successful final attempt contributes workload/speed on
        # its final site; failed attempts contribute fully too
        expected = 0.0
        for rec in res.records:
            for s in rec.sites_visited:
                expected += rec.job.workload / psa.grid.speeds[s]
        assert res.busy_time.sum() == pytest.approx(expected)

    def test_makespan_lower_bound(self, psa):
        """Makespan can never beat total-work / total-speed."""
        rep = run_scheduler(psa, MinMinScheduler("risky"), SETTINGS)
        bound = psa.total_work / psa.grid.total_speed
        assert rep.makespan >= bound * 0.999


class TestRiskModeOrdering:
    @pytest.mark.parametrize("cls", [MinMinScheduler, SufferageScheduler])
    def test_secure_worst_response_under_overload(self, cls, psa):
        """The paper's headline ordering on response time:
        secure >= f-risky on a loaded system (secure mode funnels all
        work through few safe sites)."""
        secure = run_scheduler(psa, cls("secure"), SETTINGS)
        frisky = run_scheduler(psa, cls("f-risky", f=0.5), SETTINGS)
        assert secure.avg_response_time >= frisky.avg_response_time * 0.9

    def test_risk_counts_ordering(self, psa):
        secure = run_scheduler(psa, MinMinScheduler("secure"), SETTINGS)
        frisky = run_scheduler(psa, MinMinScheduler("f-risky"), SETTINGS)
        risky = run_scheduler(psa, MinMinScheduler("risky"), SETTINGS)
        assert secure.n_risk == 0
        assert risky.n_risk > 0 and frisky.n_risk > 0
        # f-risky caps per-placement failure probability at 0.5, so
        # its failure *rate* among risk-takers must not exceed the
        # unconstrained risky mode's (which admits near-certain
        # failures).  Counts themselves are load-dynamics dependent.
        assert frisky.failure_rate <= risky.failure_rate + 0.1


class TestNASIntegration:
    def test_lineup_completes_and_secure_idles_sites(self, nas):
        secure = run_scheduler(nas, MinMinScheduler("secure"), SETTINGS)
        risky = run_scheduler(nas, MinMinScheduler("risky"), SETTINGS)
        # secure mode cannot use sites below the minimum demand
        min_sd = nas.security_demands().min()
        unusable = (nas.grid.security_levels < min_sd).sum()
        if unusable:
            assert secure.idle_sites >= unusable
        # risky leaves no site idle on a loaded system
        assert risky.idle_sites <= secure.idle_sites

    def test_stga_history_reused_across_batches(self, nas):
        stga = STGAScheduler(config=FAST_GA, rng=3)
        run_scheduler(nas, stga, SETTINGS)
        assert stga.history.queries > 0
        assert len(stga.history) > 0


class TestDeterminismEndToEnd:
    def test_full_stack_reproducible(self, psa):
        reps = [
            run_scheduler(
                psa, STGAScheduler(config=FAST_GA, rng=9), SETTINGS
            )
            for _ in range(2)
        ]
        assert reps[0].makespan == reps[1].makespan
        assert reps[0].n_fail == reps[1].n_fail
        np.testing.assert_array_equal(
            reps[0].site_utilization, reps[1].site_utilization
        )
