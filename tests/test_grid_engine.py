"""Tests for repro.grid.engine — the discrete-event core."""

import numpy as np
import pytest

from repro.grid.batch import ScheduleResult
from repro.grid.engine import GridSimulator, SchedulerDeadlock
from repro.grid.job import Job, JobState
from repro.grid.site import Grid
from repro.heuristics.minmin import MinMinScheduler
from tests.conftest import make_jobs


class FixedSiteScheduler:
    """Test stub: every job goes to one fixed site, batch order."""

    name = "fixed"

    def __init__(self, site: int = 0):
        self.site = site
        self.batches = []

    def schedule(self, batch):
        self.batches.append(batch)
        return ScheduleResult.from_assignment(
            np.full(batch.n_jobs, self.site, dtype=int)
        )


class DeferAllScheduler:
    """Test stub: never assigns anything."""

    name = "defer"

    def schedule(self, batch):
        return ScheduleResult.from_assignment(
            np.full(batch.n_jobs, -1, dtype=int)
        )


@pytest.fixture
def one_site_grid():
    return Grid.from_arrays([2.0], [0.95])


class TestBasicExecution:
    def test_single_job_timing(self, one_site_grid):
        # Arrival at 0; first tick at interval 100; exec 10/2 = 5.
        sim = GridSimulator(
            one_site_grid, FixedSiteScheduler(), batch_interval=100.0, rng=0
        )
        res = sim.run(make_jobs([10.0]))
        rec = res.records[0]
        assert rec.first_start == 100.0
        assert rec.completion == 105.0
        assert rec.state is JobState.DONE
        assert rec.attempts == 1
        assert res.makespan == 105.0

    def test_two_jobs_serialize_on_one_site(self, one_site_grid):
        sim = GridSimulator(
            one_site_grid, FixedSiteScheduler(), batch_interval=10.0, rng=0
        )
        res = sim.run(make_jobs([4.0, 4.0]))
        c = sorted(r.completion for r in res.records)
        assert c == [12.0, 14.0]  # start 10, each runs 2s back-to-back

    def test_busy_time_accounts_execution(self, one_site_grid):
        sim = GridSimulator(
            one_site_grid, FixedSiteScheduler(), batch_interval=10.0, rng=0
        )
        res = sim.run(make_jobs([4.0, 6.0]))
        assert res.busy_time[0] == pytest.approx(5.0)  # (4+6)/2

    def test_late_arrival_waits_for_next_tick(self, one_site_grid):
        jobs = make_jobs([2.0, 2.0], arrivals=[0.0, 50.0])
        sim = GridSimulator(
            one_site_grid, FixedSiteScheduler(), batch_interval=20.0, rng=0
        )
        res = sim.run(jobs)
        # First job scheduled at t=20; second arrives at 50, tick at 70.
        assert res.records[0].first_start == 20.0
        assert res.records[1].first_start == 70.0

    def test_batch_accumulation(self, one_site_grid):
        """Jobs arriving within one interval are scheduled together."""
        sched = FixedSiteScheduler()
        jobs = make_jobs([2.0, 2.0, 2.0], arrivals=[0.0, 1.0, 2.0])
        GridSimulator(
            one_site_grid, sched, batch_interval=100.0, rng=0
        ).run(jobs)
        assert len(sched.batches) == 1
        assert sched.batches[0].n_jobs == 3

    def test_empty_workload_rejected(self, one_site_grid):
        sim = GridSimulator(one_site_grid, FixedSiteScheduler(), rng=0)
        with pytest.raises(ValueError, match="empty workload"):
            sim.run([])

    def test_duplicate_ids_rejected(self, one_site_grid):
        jobs = [Job(0, 0.0, 1.0, 0.5), Job(0, 0.0, 1.0, 0.5)]
        sim = GridSimulator(one_site_grid, FixedSiteScheduler(), rng=0)
        with pytest.raises(ValueError, match="duplicate"):
            sim.run(jobs)

    def test_scheduler_wrong_shape_rejected(self, one_site_grid):
        class Bad:
            name = "bad"

            def schedule(self, batch):
                return ScheduleResult.from_assignment(np.array([0, 0]))

        sim = GridSimulator(one_site_grid, Bad(), rng=0)
        with pytest.raises(ValueError, match="shape"):
            sim.run(make_jobs([1.0]))

    def test_scheduler_out_of_range_site_rejected(self, one_site_grid):
        class Bad:
            name = "bad"

            def schedule(self, batch):
                return ScheduleResult.from_assignment(
                    np.full(batch.n_jobs, 5)
                )

        sim = GridSimulator(one_site_grid, Bad(), rng=0)
        with pytest.raises(ValueError, match="site index"):
            sim.run(make_jobs([1.0]))

    def test_order_referencing_unassigned_job_rejected(self):
        """Regression: an order entry pointing at an unassigned job
        used to dispatch its -1 site index, which numpy resolved to
        the *last* site.  The engine must reject it instead."""
        from types import SimpleNamespace

        class Bad:
            # Duck-typed result bypasses ScheduleResult's own checks —
            # exactly what a buggy third-party scheduler would do.
            name = "bad"

            def schedule(self, batch):
                assignment = np.full(batch.n_jobs, -1, dtype=int)
                assignment[0] = 0
                return SimpleNamespace(
                    assignment=assignment,
                    order=np.arange(batch.n_jobs),  # includes unassigned
                )

        grid = Grid.from_arrays([2.0, 1.0], [0.95, 0.9])
        sim = GridSimulator(grid, Bad(), rng=0)
        with pytest.raises(ValueError, match="permutation of the assigned"):
            sim.run(make_jobs([1.0, 1.0]))

    def test_order_with_duplicates_rejected(self, one_site_grid):
        from types import SimpleNamespace

        class Bad:
            name = "bad"

            def schedule(self, batch):
                return SimpleNamespace(
                    assignment=np.zeros(batch.n_jobs, dtype=int),
                    order=np.zeros(batch.n_jobs, dtype=int),  # job 0 repeated
                )

        sim = GridSimulator(one_site_grid, Bad(), rng=0)
        with pytest.raises(ValueError, match="permutation of the assigned"):
            sim.run(make_jobs([1.0, 1.0]))

    def test_order_omitting_assigned_job_rejected(self, one_site_grid):
        from types import SimpleNamespace

        class Bad:
            name = "bad"

            def schedule(self, batch):
                return SimpleNamespace(
                    assignment=np.zeros(batch.n_jobs, dtype=int),
                    order=np.arange(batch.n_jobs - 1),  # last job stranded
                )

        sim = GridSimulator(one_site_grid, Bad(), rng=0)
        with pytest.raises(ValueError, match="permutation of the assigned"):
            sim.run(make_jobs([1.0, 1.0]))

    def test_assignment_below_minus_one_rejected(self, one_site_grid):
        from types import SimpleNamespace

        class Bad:
            name = "bad"

            def schedule(self, batch):
                return SimpleNamespace(
                    assignment=np.full(batch.n_jobs, -2, dtype=int),
                    order=np.empty(0, dtype=int),
                )

        sim = GridSimulator(one_site_grid, Bad(), rng=0)
        with pytest.raises(ValueError, match="below -1"):
            sim.run(make_jobs([1.0]))

    def test_real_results_are_not_rechecked(self, monkeypatch):
        # a ScheduleResult checked its order when it was built; the
        # engine re-checks only duck-typed results (tests above)
        import repro.grid.engine as engine

        calls = []
        monkeypatch.setattr(
            engine, "check_order_permutation", lambda *a: calls.append(a)
        )
        grid = Grid.from_arrays([2.0, 1.0], [0.95, 0.9])
        GridSimulator(grid, MinMinScheduler("risky"), rng=0).run(
            make_jobs([1.0, 2.0, 3.0], arrivals=[0.0, 0.0, 150.0])
        )
        assert calls == []

    def test_batches_share_grid_views_and_gather_etc(self):
        from repro.grid.etc import etc_matrix

        grid = Grid.from_arrays([2.0, 1.0, 4.0], [0.95, 0.9, 0.5])
        sched = FixedSiteScheduler(site=1)
        jobs = make_jobs([3.0, 1.0, 2.0, 5.0], arrivals=[0, 0, 150, 320])
        GridSimulator(grid, sched, rng=0).run(jobs)
        assert len(sched.batches) >= 2
        for batch in sched.batches:
            for view, own in (
                (batch.site_security, grid.security_levels),
                (batch.speeds, grid.speeds),
            ):
                assert not view.flags.writeable
                assert np.shares_memory(view, own)
            # gathered from the run's table: equal to a per-batch build
            np.testing.assert_array_equal(
                batch.etc, etc_matrix(batch.workloads, grid.speeds)
            )
            assert (batch.ready >= batch.now).all()

    def test_constructor_validation(self, one_site_grid):
        with pytest.raises(TypeError, match="schedule"):
            GridSimulator(one_site_grid, object())
        with pytest.raises(ValueError, match="failure_point"):
            GridSimulator(
                one_site_grid, FixedSiteScheduler(), failure_point="mid"
            )
        with pytest.raises(ValueError, match="fallback"):
            GridSimulator(
                one_site_grid, FixedSiteScheduler(), fallback="ignore"
            )
        with pytest.raises(ValueError):
            GridSimulator(
                one_site_grid, FixedSiteScheduler(), batch_interval=0.0
            )


class TestFailureHandling:
    @pytest.fixture
    def risky_grid(self):
        # Site 0 is insecure and fast; site 1 is safe and slow.
        return Grid.from_arrays([4.0, 1.0], [0.1, 0.99])

    def test_doomed_job_fails_and_retries_secure(self, risky_grid):
        # SD=0.9 on SL=0.1 with huge lambda -> failure certain.
        # Min-Min risky prefers the fast insecure site (ETC 1s vs 4s);
        # the attempt is doomed, and the secure-only retry must land
        # on the safe site.
        jobs = make_jobs([4.0], sds=[0.9])
        sim = GridSimulator(
            risky_grid,
            MinMinScheduler("risky", lam=1000.0),
            batch_interval=10.0,
            lam=1000.0,
            rng=3,
        )
        res = sim.run(jobs)
        rec = res.records[0]
        assert rec.ever_failed and rec.took_risk
        assert rec.attempts >= 2
        assert rec.sites_visited[-1] == 1  # retried on the safe site
        assert rec.state is JobState.DONE

    def test_secure_placement_never_fails(self, risky_grid):
        jobs = make_jobs([4.0] * 20, sds=[0.9] * 20)
        sim = GridSimulator(
            risky_grid,
            FixedSiteScheduler(site=1),
            batch_interval=10.0,
            lam=1000.0,
            rng=5,
        )
        res = sim.run(jobs)
        assert all(not r.ever_failed for r in res.records)
        assert all(not r.took_risk for r in res.records)
        assert all(r.attempts == 1 for r in res.records)

    def test_failure_point_end_charges_full_time(self, risky_grid):
        jobs = make_jobs([4.0], sds=[0.9])
        sim = GridSimulator(
            risky_grid,
            MinMinScheduler("risky", lam=1000.0),
            batch_interval=10.0,
            lam=1000.0,
            failure_point="end",
            rng=1,
        )
        res = sim.run(jobs)
        rec = res.records[0]
        if rec.ever_failed and rec.sites_visited[0] == 0:
            # failed attempt occupied site 0 for the full 1.0 s
            assert res.busy_time[0] == pytest.approx(1.0)

    def test_nfail_bounded_by_nrisk(self):
        grid = Grid.from_arrays([1.0, 1.0, 2.0], [0.3, 0.6, 0.95])
        jobs = make_jobs(
            [5.0] * 60,
            arrivals=np.linspace(0, 500, 60),
            sds=np.linspace(0.6, 0.9, 60),
        )
        sim = GridSimulator(
            grid, MinMinScheduler("risky"), batch_interval=50.0, rng=11
        )
        res = sim.run(jobs)
        n_risk = sum(r.took_risk for r in res.records)
        n_fail = sum(r.ever_failed for r in res.records)
        assert 0 < n_fail <= n_risk

    def test_failed_jobs_only_retry_on_safe_sites(self):
        grid = Grid.from_arrays([1.0, 1.0, 2.0], [0.3, 0.6, 0.95])
        jobs = make_jobs(
            [5.0] * 60,
            arrivals=np.linspace(0, 500, 60),
            sds=[0.9] * 60,
        )
        sim = GridSimulator(
            grid, MinMinScheduler("risky"), batch_interval=50.0, rng=2
        )
        res = sim.run(jobs)
        for rec in res.records:
            if rec.ever_failed:
                # every visit after the first failure must be site 2
                assert rec.sites_visited[-1] == 2
                assert rec.attempts == len(rec.sites_visited)


class TestFallback:
    def test_force_max_sl(self):
        # No site can satisfy SD=0.9 under secure mode.
        grid = Grid.from_arrays([1.0, 2.0], [0.4, 0.6])
        jobs = make_jobs([2.0], sds=[0.9])
        sim = GridSimulator(
            grid,
            MinMinScheduler("secure"),
            batch_interval=10.0,
            fallback="force_max_sl",
            rng=0,
        )
        res = sim.run(jobs)
        rec = res.records[0]
        assert rec.forced
        assert rec.sites_visited[0] == 1  # the max-SL site
        assert res.n_forced == 1

    def test_error_fallback_raises(self):
        grid = Grid.from_arrays([1.0], [0.4])
        jobs = make_jobs([2.0], sds=[0.9])
        sim = GridSimulator(
            grid,
            MinMinScheduler("secure"),
            batch_interval=10.0,
            fallback="error",
            rng=0,
        )
        with pytest.raises(SchedulerDeadlock):
            sim.run(jobs)

    def test_feasible_jobs_proceed_while_infeasible_deferred(self):
        grid = Grid.from_arrays([1.0, 2.0], [0.4, 0.7])
        jobs = make_jobs([2.0, 2.0], sds=[0.65, 0.9])
        sim = GridSimulator(
            grid, MinMinScheduler("secure"), batch_interval=10.0, rng=0
        )
        res = sim.run(jobs)
        assert not res.records[0].forced
        assert res.records[1].forced


class TestDeterminism:
    def test_same_seed_identical(self, small_grid):
        jobs = make_jobs(
            [5.0] * 30,
            arrivals=np.linspace(0, 300, 30),
            sds=np.linspace(0.6, 0.9, 30),
        )
        outs = []
        for _ in range(2):
            sim = GridSimulator(
                small_grid,
                MinMinScheduler("risky"),
                batch_interval=50.0,
                rng=42,
            )
            res = sim.run(list(jobs))
            outs.append([r.completion for r in res.records])
        assert outs[0] == outs[1]

    def test_different_seed_differs(self, small_grid):
        jobs = make_jobs(
            [5.0] * 30,
            arrivals=np.linspace(0, 300, 30),
            sds=[0.9] * 30,
        )
        outs = []
        for seed in (1, 2):
            sim = GridSimulator(
                small_grid,
                MinMinScheduler("risky"),
                batch_interval=50.0,
                rng=seed,
            )
            res = sim.run(list(jobs))
            outs.append(tuple(r.completion for r in res.records))
        assert outs[0] != outs[1]


class TestResultInvariants:
    def test_full_run_invariants(self, small_grid):
        jobs = make_jobs(
            np.linspace(1, 30, 40),
            arrivals=np.linspace(0, 400, 40),
            sds=np.linspace(0.6, 0.9, 40),
        )
        sim = GridSimulator(
            small_grid, MinMinScheduler("f-risky", f=0.5),
            batch_interval=50.0, rng=7,
        )
        res = sim.run(jobs)
        comp, arr, starts = (
            res.completions(),
            res.arrivals(),
            res.first_starts(),
        )
        assert (comp >= starts).all()
        assert (starts >= arr).all()
        assert res.makespan == comp.max()
        assert (res.busy_time <= res.makespan + 1e-9).all()
        assert res.scheduler_seconds > 0
        assert res.n_batches == len(res.batch_sizes)
        assert sum(res.batch_sizes) >= len(jobs)
