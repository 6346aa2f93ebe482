"""Tests for the security-driven Min-Min heuristic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitness import assignment_makespan
from repro.grid.batch import Batch
from repro.grid.site import Grid
from repro.heuristics.minmin import MinMinScheduler
from tests.conftest import make_batch


class TestMinMinBasics:
    def test_picks_fastest_site_single_job(self, batch_factory):
        batch = batch_factory([8.0])
        res = MinMinScheduler("risky").schedule(batch)
        assert res.assignment[0] == 3  # fastest site (speed 8)

    def test_shortest_job_scheduled_first(self, batch_factory):
        batch = batch_factory([16.0, 8.0])
        res = MinMinScheduler("risky").schedule(batch)
        # Min-Min commits the min-completion job (the 8.0 workload) first.
        assert res.order[0] == 1

    def test_load_balancing_on_equal_speeds(self):
        grid = Grid.from_arrays([1.0, 1.0], [0.95, 0.95])
        batch = make_batch(grid, [5.0, 5.0, 5.0, 5.0])
        res = MinMinScheduler("risky").schedule(batch)
        counts = np.bincount(res.assignment, minlength=2)
        np.testing.assert_array_equal(counts, [2, 2])

    def test_respects_ready_times(self):
        grid = Grid.from_arrays([1.0, 1.0], [0.95, 0.95])
        # Site 0 busy until t=100; everything should go to site 1.
        batch = make_batch(grid, [5.0, 5.0], ready=[100.0, 0.0])
        res = MinMinScheduler("risky").schedule(batch)
        assert (res.assignment == 1).all()

    def test_secure_mode_defers_infeasible(self, batch_factory):
        batch = batch_factory([1.0, 1.0], sds=[0.99, 0.6])
        res = MinMinScheduler("secure").schedule(batch)
        assert res.assignment[0] == -1  # no site has SL >= 0.99
        assert res.assignment[1] >= 0

    def test_secure_mode_only_safe_sites(self, batch_factory):
        batch = batch_factory([1.0] * 10, sds=[0.9] * 10)
        res = MinMinScheduler("secure").schedule(batch)
        assert (res.assignment == 3).all()  # only SL=0.95 qualifies

    def test_paper_figure2_first_pick(self, sufferage_beats_minmin_etc):
        """Min-Min picks the smallest earliest-ETC job first (paper:
        'J2 has the smallest value of earliest ETC')."""
        grid = Grid.from_arrays([1.0, 1.0], [0.95, 0.95])
        etc = sufferage_beats_minmin_etc
        batch = Batch(
            now=0.0,
            job_ids=np.arange(3),
            workloads=etc[:, 0].copy(),
            security_demands=np.full(3, 0.5),
            secure_only=np.zeros(3, dtype=bool),
            etc=etc,
            ready=np.zeros(2),
            site_security=grid.security_levels.copy(),
            speeds=grid.speeds.copy(),
        )
        res = MinMinScheduler("risky").schedule(batch)
        # J1/J2 tie at 3.0; deterministic argmin picks J1 first, site 0.
        assert res.order[0] in (0, 1)
        assert res.assignment[res.order[0]] == 0
        # hand-worked makespan (see conftest): 8.0
        assert assignment_makespan(res.assignment, etc, np.zeros(2)) == 8.0


class TestMinMinProperties:
    @given(
        n_jobs=st.integers(1, 12),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=30, deadline=None)
    def test_always_assigns_all_feasible(self, n_jobs, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.from_arrays(
            rng.uniform(1, 8, size=4), rng.uniform(0.4, 1.0, size=4)
        )
        batch = make_batch(
            grid,
            rng.uniform(1, 50, size=n_jobs),
            sds=rng.uniform(0.0, 0.4, size=n_jobs),  # everyone feasible
        )
        res = MinMinScheduler("secure").schedule(batch)
        assert (res.assignment >= 0).all()
        assert len(res.order) == n_jobs

    @given(seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_beats_or_matches_worst_single_site(self, seed):
        """Min-Min batch makespan never exceeds dump-all-on-one-site."""
        rng = np.random.default_rng(seed)
        grid = Grid.from_arrays(
            rng.uniform(1, 8, size=3), np.full(3, 0.95)
        )
        w = rng.uniform(1, 50, size=6)
        batch = make_batch(grid, w)
        res = MinMinScheduler("risky").schedule(batch)
        got = assignment_makespan(res.assignment, batch.etc, batch.ready)
        single = min(
            assignment_makespan(
                np.full(6, s), batch.etc, batch.ready
            )
            for s in range(3)
        )
        assert got <= single + 1e-9

    def test_deterministic(self, batch_factory):
        batch = batch_factory([3.0, 9.0, 27.0], sds=[0.6, 0.7, 0.8])
        a = MinMinScheduler("f-risky", f=0.5).schedule(batch)
        b = MinMinScheduler("f-risky", f=0.5).schedule(batch)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.order, b.order)

    def test_mode_nesting_makespan(self, batch_factory):
        """risky makespan <= f-risky <= secure (more choice can't hurt
        the greedy objective on identical ready times)."""
        batch = batch_factory(
            np.linspace(5, 40, 8), sds=np.linspace(0.6, 0.9, 8)
        )
        spans = {}
        for mode in ("secure", "f-risky", "risky"):
            res = MinMinScheduler(mode, f=0.5).schedule(batch)
            mask = res.assignment >= 0
            assert mask.all()
            spans[mode] = assignment_makespan(
                res.assignment, batch.etc, batch.ready
            )
        assert spans["risky"] <= spans["f-risky"] + 1e-9
        assert spans["f-risky"] <= spans["secure"] + 1e-9
