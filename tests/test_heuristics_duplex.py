"""Tests for the Duplex heuristic."""

import numpy as np

from repro.core.fitness import assignment_makespan
from repro.grid.site import Grid
from repro.heuristics.duplex import DuplexScheduler
from repro.heuristics.maxmin import MaxMinScheduler
from repro.heuristics.minmin import MinMinScheduler
from tests.conftest import make_batch


class TestDuplex:
    def test_name(self):
        assert DuplexScheduler("risky").name == "Duplex Risky"

    def test_never_worse_than_either_member(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            grid = Grid.from_arrays(
                rng.uniform(1, 8, size=4), np.full(4, 0.95)
            )
            batch = make_batch(grid, rng.uniform(1, 60, size=8))
            dup = DuplexScheduler("risky").schedule(batch)
            mm = MinMinScheduler("risky").schedule(batch)
            xm = MaxMinScheduler("risky").schedule(batch)
            ms = {
                "dup": assignment_makespan(
                    dup.assignment, batch.etc, batch.ready
                ),
                "mm": assignment_makespan(
                    mm.assignment, batch.etc, batch.ready
                ),
                "xm": assignment_makespan(
                    xm.assignment, batch.etc, batch.ready
                ),
            }
            assert ms["dup"] <= min(ms["mm"], ms["xm"]) + 1e-9

    def test_respects_eligibility(self, batch_factory):
        batch = batch_factory([4.0] * 6, sds=[0.9] * 6)
        res = DuplexScheduler("secure").schedule(batch)
        assert (res.assignment == 3).all()

    def test_defers_infeasible(self, batch_factory):
        batch = batch_factory([4.0], sds=[0.99])
        res = DuplexScheduler("secure").schedule(batch)
        assert res.assignment[0] == -1

    def test_deterministic(self, batch_factory):
        batch = batch_factory(np.linspace(2, 50, 7))
        a = DuplexScheduler("risky").schedule(batch)
        b = DuplexScheduler("risky").schedule(batch)
        np.testing.assert_array_equal(a.assignment, b.assignment)
