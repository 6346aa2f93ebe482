"""Tests for the security-driven Sufferage heuristic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitness import assignment_makespan
from repro.grid.batch import Batch
from repro.grid.site import Grid
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.sufferage import SufferageScheduler
from tests.conftest import make_batch


def _figure2_batch(etc):
    grid = Grid.from_arrays([1.0, 1.0], [0.95, 0.95])
    return Batch(
        now=0.0,
        job_ids=np.arange(etc.shape[0]),
        workloads=etc[:, 0].copy(),
        security_demands=np.full(etc.shape[0], 0.5),
        secure_only=np.zeros(etc.shape[0], dtype=bool),
        etc=etc,
        ready=np.zeros(2),
        site_security=grid.security_levels.copy(),
        speeds=grid.speeds.copy(),
    )


class TestSufferageBasics:
    def test_high_sufferage_job_first(self, sufferage_beats_minmin_etc):
        """The paper's Figure 2 narrative: the job that suffers most
        without its preferred site is committed first."""
        batch = _figure2_batch(sufferage_beats_minmin_etc)
        res = SufferageScheduler("risky").schedule(batch)
        assert res.order[0] == 2  # J3, sufferage 10-4=6
        assert res.assignment[2] == 1

    def test_beats_minmin_on_figure2_instance(
        self, sufferage_beats_minmin_etc
    ):
        batch = _figure2_batch(sufferage_beats_minmin_etc)
        suff = SufferageScheduler("risky").schedule(batch)
        mm = MinMinScheduler("risky").schedule(batch)
        ms_suff = assignment_makespan(suff.assignment, batch.etc, batch.ready)
        ms_mm = assignment_makespan(mm.assignment, batch.etc, batch.ready)
        assert ms_suff == 6.0
        assert ms_mm == 8.0

    def test_single_eligible_site_prioritised(self):
        grid = Grid.from_arrays([1.0, 1.0], [0.5, 0.95])
        # Job 0 can only use site 1 (SD 0.9); job 1 can use both.
        batch = make_batch(grid, [5.0, 5.0], sds=[0.9, 0.4])
        res = SufferageScheduler("secure").schedule(batch)
        assert res.order[0] == 0
        assert res.assignment[0] == 1

    def test_secure_mode_defers_infeasible(self, batch_factory):
        batch = batch_factory([1.0], sds=[0.99])
        res = SufferageScheduler("secure").schedule(batch)
        assert res.assignment[0] == -1

    def test_deterministic(self, batch_factory):
        batch = batch_factory(
            np.linspace(2, 60, 9), sds=np.linspace(0.6, 0.9, 9)
        )
        a = SufferageScheduler("risky").schedule(batch)
        b = SufferageScheduler("risky").schedule(batch)
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestSufferageProperties:
    @given(n_jobs=st.integers(1, 12), seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_assigns_all_feasible(self, n_jobs, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.from_arrays(
            rng.uniform(1, 8, size=4), rng.uniform(0.4, 1.0, size=4)
        )
        batch = make_batch(
            grid,
            rng.uniform(1, 50, size=n_jobs),
            sds=np.zeros(n_jobs),
        )
        res = SufferageScheduler("risky").schedule(batch)
        assert (res.assignment >= 0).all()
        # order is a permutation of all jobs
        assert sorted(res.order.tolist()) == list(range(n_jobs))

    @given(seed=st.integers(0, 49))
    @settings(max_examples=25, deadline=None)
    def test_assignment_within_eligibility(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.from_arrays(
            rng.uniform(1, 8, size=5), rng.uniform(0.4, 1.0, size=5)
        )
        n = 8
        batch = make_batch(
            grid,
            rng.uniform(1, 50, size=n),
            sds=rng.uniform(0.6, 0.9, size=n),
        )
        sched = SufferageScheduler("f-risky", f=0.5)
        elig = sched.eligibility(batch)
        res = sched.schedule(batch)
        for j, s in enumerate(res.assignment):
            if s >= 0:
                assert elig[j, s]
            else:
                assert not elig[j].any()
