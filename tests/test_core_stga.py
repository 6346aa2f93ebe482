"""Tests for repro.core.stga — the GA schedulers and history warm-up."""

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.core.history import HistoryTable
from repro.core.stga import (
    RecordingScheduler,
    StandardGAScheduler,
    STGAScheduler,
    warmup_history,
)
from repro.heuristics.minmin import MinMinScheduler
from tests.conftest import make_jobs

FAST = GAConfig(population_size=20, generations=15)


class TestStandardGA:
    def test_schedules_batch(self, batch_factory):
        batch = batch_factory([4.0, 8.0, 12.0])
        sched = StandardGAScheduler("risky", config=FAST, rng=0)
        res = sched.schedule(batch)
        assert (res.assignment >= 0).all()
        assert sched.last_result is not None
        assert len(sched.initial_fitnesses) == 1

    def test_respects_secure_mode(self, batch_factory):
        batch = batch_factory([4.0] * 5, sds=[0.9] * 5)
        res = StandardGAScheduler("secure", config=FAST, rng=0).schedule(batch)
        assert (res.assignment == 3).all()  # only the SL=0.95 site

    def test_defers_infeasible(self, batch_factory):
        batch = batch_factory([4.0, 4.0], sds=[0.99, 0.6])
        res = StandardGAScheduler("secure", config=FAST, rng=0).schedule(batch)
        assert res.assignment[0] == -1
        assert res.assignment[1] >= 0

    def test_name(self):
        assert StandardGAScheduler("risky").name == "GA Risky"

    def test_risk_penalty_validated(self):
        with pytest.raises(ValueError):
            StandardGAScheduler(risk_penalty=-1.0)


class TestSTGA:
    def test_name_is_stga(self):
        assert STGAScheduler(config=FAST).name == "STGA"

    def test_inserts_history_per_batch(self, batch_factory):
        sched = STGAScheduler(config=FAST, rng=0)
        sched.schedule(batch_factory([4.0, 8.0]))
        assert len(sched.history) == 1
        sched.schedule(batch_factory([4.0, 8.0]))
        assert len(sched.history) == 2

    def test_seeds_from_history_on_repeat_batch(self, batch_factory):
        sched = STGAScheduler(config=FAST, rng=0)
        batch = batch_factory([4.0, 8.0, 16.0])
        sched.schedule(batch)
        assert sched.history.hits == 0
        sched.schedule(batch)  # identical batch: must hit
        assert sched.history.hits == 1

    def test_repeat_batch_initial_fitness_not_worse(self, batch_factory):
        """The Figure 5 property at unit scale: seeding from an
        identical previous batch starts at (at least) its solution."""
        sched = STGAScheduler(config=FAST, rng=0)
        batch = batch_factory(list(np.linspace(2, 40, 10)))
        sched.schedule(batch)
        first_best = sched.last_result.best_fitness
        sched.schedule(batch)
        assert sched.initial_fitnesses[1] <= first_best + 1e-9

    def test_max_seed_fraction_validated(self):
        with pytest.raises(ValueError):
            STGAScheduler(max_seed_fraction=0.0)
        with pytest.raises(ValueError):
            STGAScheduler(max_seed_fraction=1.5)

    def test_custom_history_table_used(self, batch_factory):
        table = HistoryTable(capacity=5, threshold=0.8)
        sched = STGAScheduler(config=FAST, rng=0, history=table)
        sched.schedule(batch_factory([4.0]))
        assert len(table) == 1

    def test_secure_only_jobs_constrained(self, batch_factory):
        batch = batch_factory(
            [4.0, 4.0], sds=[0.9, 0.9], secure_only=[True, False]
        )
        sched = STGAScheduler("risky", config=FAST, rng=0)
        res = sched.schedule(batch)
        assert res.assignment[0] == 3  # forced to the safe site


class TestRecordingScheduler:
    def test_records_assigned_jobs(self, batch_factory):
        table = HistoryTable(capacity=10)
        rec = RecordingScheduler(MinMinScheduler("risky"), table)
        batch = batch_factory([4.0, 8.0])
        out = rec.schedule(batch)
        assert (out.assignment >= 0).all()
        assert len(table) == 1

    def test_skips_fully_deferred_batches(self, batch_factory):
        table = HistoryTable(capacity=10)
        rec = RecordingScheduler(MinMinScheduler("secure"), table)
        batch = batch_factory([4.0], sds=[0.99])  # infeasible
        rec.schedule(batch)
        assert len(table) == 0

    def test_name_wraps_inner(self):
        rec = RecordingScheduler(
            MinMinScheduler("risky"), HistoryTable()
        )
        assert rec.name == "Recording(Min-Min Risky)"


class TestWarmupHistory:
    def test_populates_table(self, small_grid):
        table = HistoryTable(capacity=50, threshold=0.8)
        jobs = make_jobs(
            np.linspace(2, 30, 25),
            arrivals=np.linspace(0, 500, 25),
            sds=np.linspace(0.6, 0.9, 25),
        )
        warmup_history(
            table, small_grid, jobs, batch_interval=100.0, rng=0
        )
        assert len(table) > 0

    def test_custom_trainer(self, small_grid):
        table = HistoryTable(capacity=50)
        jobs = make_jobs([5.0, 6.0], arrivals=[0.0, 1.0])
        warmup_history(
            table,
            small_grid,
            jobs,
            trainer=MinMinScheduler("secure"),
            batch_interval=50.0,
            rng=0,
        )
        assert len(table) >= 1
