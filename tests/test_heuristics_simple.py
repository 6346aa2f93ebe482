"""Tests for the baseline heuristics: Max-Min, MCT, MET, OLB, Random."""

import numpy as np
import pytest

from repro.core.fitness import assignment_makespan
from repro.grid.site import Grid
from repro.heuristics.maxmin import MaxMinScheduler
from repro.heuristics.mct import MCTScheduler
from repro.heuristics.met import METScheduler
from repro.heuristics.olb import OLBScheduler
from repro.heuristics.random_sched import RandomScheduler
from tests.conftest import make_batch

ALL_CLASSES = [
    MaxMinScheduler,
    MCTScheduler,
    METScheduler,
    OLBScheduler,
]


class TestMaxMin:
    def test_longest_job_first(self, batch_factory):
        batch = batch_factory([8.0, 80.0])
        res = MaxMinScheduler("risky").schedule(batch)
        assert res.order[0] == 1

    def test_all_assigned(self, batch_factory):
        batch = batch_factory([1.0, 2.0, 3.0])
        res = MaxMinScheduler("risky").schedule(batch)
        assert (res.assignment >= 0).all()


class TestMCT:
    def test_batch_order_dispatch(self, batch_factory):
        batch = batch_factory([5.0, 5.0, 5.0])
        res = MCTScheduler("risky").schedule(batch)
        np.testing.assert_array_equal(res.order, [0, 1, 2])

    def test_accounts_for_load(self):
        grid = Grid.from_arrays([1.0, 1.0], [0.95, 0.95])
        batch = make_batch(grid, [10.0, 10.0])
        res = MCTScheduler("risky").schedule(batch)
        assert res.assignment[0] != res.assignment[1]  # spreads out


class TestMET:
    def test_ignores_load_piles_on_fastest(self, batch_factory):
        batch = batch_factory([5.0] * 6)
        res = METScheduler("risky").schedule(batch)
        assert (res.assignment == 3).all()  # fastest site regardless

    def test_secure_mode_restricts(self, batch_factory):
        batch = batch_factory([5.0], sds=[0.9])
        res = METScheduler("secure").schedule(batch)
        assert res.assignment[0] == 3  # only safe site


class TestOLB:
    def test_picks_earliest_ready(self):
        grid = Grid.from_arrays([1.0, 1.0], [0.95, 0.95])
        batch = make_batch(grid, [5.0], ready=[50.0, 10.0])
        res = OLBScheduler("risky").schedule(batch)
        assert res.assignment[0] == 1

    def test_round_robins_equal_ready(self):
        grid = Grid.from_arrays([1.0, 1.0], [0.95, 0.95])
        batch = make_batch(grid, [5.0, 5.0])
        res = OLBScheduler("risky").schedule(batch)
        assert set(res.assignment.tolist()) == {0, 1}


class TestRandom:
    def test_reproducible_with_seed(self, batch_factory):
        batch = batch_factory([1.0] * 20)
        a = RandomScheduler("risky", rng=7).schedule(batch)
        b = RandomScheduler("risky", rng=7).schedule(batch)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_respects_eligibility(self, batch_factory):
        batch = batch_factory([1.0] * 50, sds=[0.9] * 50)
        res = RandomScheduler("secure", rng=3).schedule(batch)
        assert (res.assignment == 3).all()

    def test_defers_infeasible(self, batch_factory):
        batch = batch_factory([1.0], sds=[0.99])
        res = RandomScheduler("secure", rng=0).schedule(batch)
        assert res.assignment[0] == -1


@pytest.mark.parametrize("cls", ALL_CLASSES)
class TestSharedContracts:
    def test_eligibility_respected(self, cls, batch_factory):
        batch = batch_factory(
            np.linspace(1, 30, 6), sds=np.linspace(0.6, 0.9, 6)
        )
        sched = cls("f-risky", f=0.5)
        elig = sched.eligibility(batch)
        res = sched.schedule(batch)
        for j, s in enumerate(res.assignment):
            if s >= 0:
                assert elig[j, s]

    def test_infeasible_deferred(self, cls, batch_factory):
        batch = batch_factory([1.0, 1.0], sds=[0.99, 0.6])
        res = cls("secure").schedule(batch)
        assert res.assignment[0] == -1
        assert res.assignment[1] >= 0


class TestCrossHeuristicSanity:
    def test_minmin_beats_random_on_average(self):
        """Greedy Min-Min can lose a single lucky draw, but across many
        batches it must dominate a random mapper decisively."""
        from repro.heuristics.minmin import MinMinScheduler

        mm_spans, rnd_spans = [], []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            grid = Grid.from_arrays(
                rng.uniform(1, 8, size=4), np.full(4, 0.95)
            )
            batch = make_batch(grid, rng.uniform(1, 60, size=10))
            mm = MinMinScheduler("risky").schedule(batch)
            rnd = RandomScheduler("risky", rng=seed).schedule(batch)
            mm_spans.append(
                assignment_makespan(mm.assignment, batch.etc, batch.ready)
            )
            rnd_spans.append(
                assignment_makespan(rnd.assignment, batch.etc, batch.ready)
            )
        assert np.mean(mm_spans) < 0.8 * np.mean(rnd_spans)
        # and it wins the vast majority of individual instances
        wins = sum(a <= b + 1e-9 for a, b in zip(mm_spans, rnd_spans))
        assert wins >= 0.8 * len(mm_spans)
