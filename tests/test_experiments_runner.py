"""Tests for repro.experiments.runner."""

import pytest

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.runner import (
    PAPER_LINEUP,
    make_trained_stga,
    reports_by_name,
    run_lineup,
    run_scheduler,
    scale_jobs,
)
from repro.heuristics.minmin import MinMinScheduler
from repro.workloads.psa import PSAConfig, psa_scenario

FAST_GA = GAConfig(population_size=16, generations=8)
SETTINGS = RunSettings(batch_interval=2000.0, seed=11, ga=FAST_GA)


@pytest.fixture(scope="module")
def tiny_scenario():
    return psa_scenario(PSAConfig(n_jobs=60), rng=11)


@pytest.fixture(scope="module")
def tiny_training():
    return psa_scenario(PSAConfig(n_jobs=30), rng=99)


class TestScaleJobs:
    def test_identity_at_one(self):
        assert scale_jobs(5000, 1.0) == 5000

    def test_scaling(self):
        assert scale_jobs(1000, 0.1) == 100

    def test_floor(self):
        assert scale_jobs(1000, 0.001) == 20

    def test_invalid(self):
        with pytest.raises(ValueError):
            scale_jobs(100, 0.0)
        with pytest.raises(ValueError):
            scale_jobs(100, 1.5)


class TestRunScheduler:
    def test_returns_report(self, tiny_scenario):
        rep = run_scheduler(
            tiny_scenario, MinMinScheduler("risky"), SETTINGS
        )
        assert rep.n_jobs == 60
        assert rep.makespan > 0

    def test_deterministic(self, tiny_scenario):
        a = run_scheduler(tiny_scenario, MinMinScheduler("risky"), SETTINGS)
        b = run_scheduler(tiny_scenario, MinMinScheduler("risky"), SETTINGS)
        assert a.makespan == b.makespan
        assert a.n_fail == b.n_fail


class TestTrainedSTGA:
    def test_warmup_fills_history(self, tiny_scenario, tiny_training):
        stga = make_trained_stga(
            tiny_scenario, tiny_training, SETTINGS, ga_config=FAST_GA
        )
        assert len(stga.history) > 0

    def test_no_training_empty_history(self, tiny_scenario):
        stga = make_trained_stga(
            tiny_scenario, None, SETTINGS, ga_config=FAST_GA
        )
        assert len(stga.history) == 0


class TestRunLineup:
    def test_seven_reports_in_order(self, tiny_scenario, tiny_training):
        reports = run_lineup(tiny_scenario, tiny_training, SETTINGS)
        names = [r.scheduler for r in reports]
        assert names == [
            "Min-Min Secure",
            "Min-Min f-Risky(f=0.5)",
            "Min-Min Risky",
            "Sufferage Secure",
            "Sufferage f-Risky(f=0.5)",
            "Sufferage Risky",
            "STGA",
        ]

    def test_without_stga(self, tiny_scenario):
        reports = run_lineup(
            tiny_scenario, None, SETTINGS, lineup=PAPER_LINEUP[:-1]
        )
        assert len(reports) == 6

    def test_secure_modes_never_fail(self, tiny_scenario, tiny_training):
        reports = run_lineup(tiny_scenario, tiny_training, SETTINGS)
        by = reports_by_name(reports)
        assert by["Min-Min Secure"].n_fail == 0
        assert by["Sufferage Secure"].n_fail == 0

    def test_reports_by_name_duplicates_rejected(self, tiny_scenario):
        rep = run_scheduler(tiny_scenario, MinMinScheduler("risky"), SETTINGS)
        with pytest.raises(ValueError, match="duplicate"):
            reports_by_name([rep, rep])
