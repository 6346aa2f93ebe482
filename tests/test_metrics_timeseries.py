"""Tests for repro.metrics.timeseries."""

from dataclasses import replace

import pytest

from repro.grid.engine import GridSimulator
from repro.grid.job import JobState
from repro.grid.site import Grid
from repro.heuristics.minmin import MinMinScheduler
from repro.metrics.timeseries import due_date_violations
from repro.workloads.base import Scenario
from repro.workloads.dynamics import apply_dynamics
from tests.conftest import make_jobs


@pytest.fixture
def tiny_due():
    """One safe site of speed 2; workloads 4/6/8 arriving at 0/0/1.

    ``due=2`` gives due dates ``arrival + 2 * workload / 2``: 4, 6, 9.
    """
    grid = Grid.from_arrays(speeds=[2.0], security_levels=[1.0])
    jobs = tuple(make_jobs([4.0, 6.0, 8.0], arrivals=[0.0, 0.0, 1.0]))
    return apply_dynamics(Scenario("tiny", grid, jobs), seed=0, due=2.0)


def simulate(scenario, timeline, batch_interval):
    sim = GridSimulator(
        scenario.grid,
        MinMinScheduler("secure"),
        batch_interval=batch_interval,
        rng=0,
    )
    return sim.run(scenario.jobs, timeline=timeline)


class TestDueDateViolations:
    def test_hand_computed(self, tiny_due):
        assert tiny_due.timeline.due_dates == ((0, 4.0), (1, 6.0), (2, 9.0))
        # One tick at t=1 queues all three shortest-first: completions
        # 1+2=3 (early), 3+3=6 (exactly due: not late), 6+4=10 (late 1).
        res = simulate(tiny_due, tiny_due.timeline, batch_interval=1.0)
        assert [r.completion for r in res.records] == [3.0, 6.0, 10.0]
        assert due_date_violations(res) == ((2, 1.0),)

    def test_cancelled_job_never_violates(self, tiny_due):
        # Job 2 withdraws at t=1.5, before the first tick at t=2; the
        # others complete at 2+2=4 (due 4) and 4+3=7 (due 6, late 1).
        timeline = replace(tiny_due.timeline, cancels=((2, 1.5),))
        res = simulate(tiny_due, timeline, batch_interval=2.0)
        assert res.records[2].state is JobState.CANCELLED
        assert due_date_violations(res) == ((1, 1.0),)

    def test_no_due_dates_rejected(self, tiny_due):
        static = simulate(tiny_due, None, batch_interval=1.0)
        with pytest.raises(ValueError, match="no due dates"):
            due_date_violations(static)
        no_dues = replace(tiny_due.timeline, due_dates=())
        res = simulate(tiny_due, no_dues, batch_interval=1.0)
        with pytest.raises(ValueError, match="no due dates"):
            due_date_violations(res)
