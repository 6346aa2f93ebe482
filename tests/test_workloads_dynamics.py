"""Tests for repro.workloads.dynamics and the dynamic-events engine path."""

import numpy as np
import pytest

from repro.experiments.config import RunSettings
from repro.experiments.replay import replay_result, replay_trace
from repro.experiments.spec import (
    ExperimentSpec,
    run_cell,
    run_spec,
    trace_filename,
    trace_slug,
)
from repro.experiments.sweep import ScenarioVariant
from repro.grid.engine import GridSimulator
from repro.grid.job import JobState
from repro.grid.site import Grid
from repro.grid.timeline import DynamicTimeline, SiteOutage
from repro.grid.trace import save_trace
from repro.heuristics.minmin import MinMinScheduler
from repro.registry import build_workload, parse_workload_ref
from repro.workloads.base import Scenario
from repro.workloads.dynamics import (
    DYNAMICS_PARAMS,
    DynamicScenario,
    apply_dynamics,
    validate_dynamics_params,
)
from tests.conftest import make_jobs


@pytest.fixture
def base_scenario(small_grid):
    jobs = tuple(
        make_jobs(
            [30.0, 20.0, 40.0, 10.0, 25.0],
            arrivals=[0.0, 2.0, 4.0, 6.0, 8.0],
        )
    )
    return Scenario(name="base", grid=small_grid, jobs=jobs)


class TestValidateDynamicsParams:
    def test_all_knobs_accepted(self):
        validate_dynamics_params(
            dict(
                dynamics="poisson",
                cancel=0.1,
                breakdown=0.01,
                repair=0.1,
                ptvar=0.2,
                due=3.0,
                online=True,
            )
        )

    @pytest.mark.parametrize(
        "params",
        [
            {"dynamics": "weird"},
            {"cancel": -1.0},
            {"cancel": 0},
            {"breakdown": True},  # bools are not rates
            {"repair": 0.5},  # repair without breakdown
            {"online": 1},  # must be a real boolean
            {"tornado": 0.5},  # unknown knob
        ],
    )
    def test_bad_params_rejected(self, params):
        with pytest.raises(ValueError):
            validate_dynamics_params(params)


class TestApplyDynamics:
    def test_deterministic(self, base_scenario):
        kwargs = dict(
            seed=7,
            dynamics="poisson",
            cancel=0.05,
            breakdown=0.01,
            ptvar=0.3,
            due=2.0,
            online=True,
        )
        a = apply_dynamics(base_scenario, **kwargs)
        b = apply_dynamics(base_scenario, **kwargs)
        assert a == b
        assert isinstance(a, DynamicScenario) and a.timeline.online

    def test_independent_streams(self, base_scenario):
        """Enabling one knob never perturbs another knob's draws."""
        just_cancel = apply_dynamics(base_scenario, seed=7, cancel=0.05)
        both = apply_dynamics(
            base_scenario, seed=7, cancel=0.05, ptvar=0.3
        )
        assert just_cancel.timeline.cancels == both.timeline.cancels

    def test_poisson_redraw_keeps_ids_and_workloads(self, base_scenario):
        dyn = apply_dynamics(base_scenario, seed=3, dynamics="poisson")
        assert [j.job_id for j in dyn.jobs] == [
            j.job_id for j in base_scenario.jobs
        ]
        assert [j.workload for j in dyn.jobs] == [
            j.workload for j in base_scenario.jobs
        ]
        assert [j.arrival for j in dyn.jobs] != [
            j.arrival for j in base_scenario.jobs
        ]

    def test_ptvar_factors_positive_unit_mean_family(self, base_scenario):
        dyn = apply_dynamics(base_scenario, seed=3, ptvar=0.25)
        factors = [f for _, f in dyn.timeline.exec_factors]
        assert len(factors) == len(base_scenario.jobs)
        assert all(f > 0 for f in factors)

    def test_due_dates_scale_with_workload(self, base_scenario):
        dyn = apply_dynamics(base_scenario, seed=3, due=2.0)
        due = dyn.timeline.due_map()
        mean_speed = float(base_scenario.grid.speeds.mean())
        for j in base_scenario.jobs:
            assert due[j.job_id] == pytest.approx(
                j.arrival + 2.0 * j.workload / mean_speed
            )

    def test_outages_disjoint_per_site(self, base_scenario):
        dyn = apply_dynamics(
            base_scenario, seed=3, breakdown=0.01, repair=0.05
        )
        for site in range(base_scenario.grid.n_sites):
            windows = dyn.timeline.outages_for(site)
            for a, b in zip(windows, windows[1:]):
                assert a.end <= b.start


class TestWorkloadRefIntegration:
    def test_ref_splits_dynamics_params(self):
        variant = ScenarioVariant(
            name="dyn",
            workload="psa?dynamics=poisson&cancel=0.001&online=true",
            n_jobs=30,
            n_training_jobs=0,
        )
        scenario, _ = build_workload(variant, seed=11, scale=1.0)
        assert isinstance(scenario, DynamicScenario)
        assert scenario.timeline.online
        assert len(scenario.timeline.cancels) == len(scenario.jobs)

    def test_static_ref_unwrapped(self):
        variant = ScenarioVariant(
            name="stat", workload="psa", n_jobs=30, n_training_jobs=0
        )
        scenario, _ = build_workload(variant, seed=11, scale=1.0)
        assert not isinstance(scenario, DynamicScenario)

    def test_bad_dynamics_ref_fails_at_variant_construction(self):
        with pytest.raises(ValueError):
            ScenarioVariant(
                name="bad", workload="psa?breakdown=-1", n_jobs=30
            )
        with pytest.raises(ValueError):
            ScenarioVariant(
                name="bad", workload="psa?online=1", n_jobs=30
            )

    def test_unknown_generator_param_fails_early(self):
        """A typo'd knob is a ValueError at variant construction, not
        a TypeError traceback inside a sweep worker."""
        with pytest.raises(ValueError, match="tornado"):
            ScenarioVariant(
                name="typo", workload="psa?tornado=0.5", n_jobs=30
            )

    def test_parse_workload_ref(self):
        name, params = parse_workload_ref("nas?dynamics=poisson&due=2.5")
        assert name == "nas"
        assert params == {"dynamics": "poisson", "due": 2.5}
        assert set(params) <= DYNAMICS_PARAMS


class TestEngineDynamics:
    def _run(self, scenario, **sim_kwargs):
        sim = GridSimulator(
            scenario.grid,
            MinMinScheduler("secure"),
            batch_interval=5.0,
            rng=np.random.default_rng(0),
            **sim_kwargs,
        )
        return sim.run(
            scenario.jobs, timeline=getattr(scenario, "timeline", None)
        )

    def test_cancel_before_start_withdraws_job(self, small_grid):
        jobs = tuple(make_jobs([10.0, 10.0], arrivals=[0.0, 0.0]))
        timeline = DynamicTimeline(cancels=((1, 0.5),))
        scenario = DynamicScenario(
            name="c", grid=small_grid, jobs=jobs, timeline=timeline
        )
        # batch interval larger than the cancel time: job 1 is still
        # queued when its patience runs out
        sim = GridSimulator(
            small_grid,
            MinMinScheduler("secure"),
            batch_interval=2.0,
            rng=np.random.default_rng(0),
        )
        result = sim.run(scenario.jobs, timeline=scenario.timeline)
        states = {r.job.job_id: r.state for r in result.records}
        assert states[1] is JobState.CANCELLED
        assert result.n_cancelled == 1
        assert states[0] is JobState.DONE

    def test_cancel_after_start_is_noop(self, small_grid):
        jobs = tuple(make_jobs([10.0], arrivals=[0.0]))
        timeline = DynamicTimeline(cancels=((0, 100.0),))
        result = self._run(
            DynamicScenario(
                name="c2", grid=small_grid, jobs=jobs, timeline=timeline
            )
        )
        assert result.records[0].state is JobState.DONE
        assert result.n_cancelled == 0

    def test_outage_delays_site(self, small_grid):
        """An outage on the only fast site pushes work past its end."""
        jobs = tuple(make_jobs([8.0], arrivals=[0.0]))
        outage = SiteOutage(site_id=3, start=0.0, end=50.0)
        busy = DynamicTimeline(outages=(outage,))
        slow = self._run(
            DynamicScenario(
                name="o", grid=small_grid, jobs=jobs, timeline=busy
            )
        )
        fast = self._run(Scenario(name="o0", grid=small_grid, jobs=jobs))
        rec = slow.records[0]
        if rec.sites_visited == [3]:
            assert rec.first_start >= 50.0
        assert slow.makespan >= fast.makespan

    def test_unknown_ids_rejected(self, small_grid):
        jobs = tuple(make_jobs([10.0]))
        with pytest.raises(ValueError):
            self._run(
                DynamicScenario(
                    name="bad",
                    grid=small_grid,
                    jobs=jobs,
                    timeline=DynamicTimeline(cancels=((99, 1.0),)),
                )
            )
        with pytest.raises(ValueError):
            self._run(
                DynamicScenario(
                    name="bad2",
                    grid=small_grid,
                    jobs=jobs,
                    timeline=DynamicTimeline(
                        outages=(SiteOutage(site_id=99, start=0.0, end=1.0),)
                    ),
                )
            )

    def test_exec_factor_scales_runtime(self, small_grid):
        jobs = tuple(make_jobs([10.0]))
        base = self._run(Scenario(name="b", grid=small_grid, jobs=jobs))
        doubled = self._run(
            DynamicScenario(
                name="d",
                grid=small_grid,
                jobs=jobs,
                timeline=DynamicTimeline(exec_factors=((0, 2.0),)),
            )
        )
        base_span = base.records[0].completion - base.records[0].first_start
        dbl_span = (
            doubled.records[0].completion - doubled.records[0].first_start
        )
        assert dbl_span == pytest.approx(2.0 * base_span)

    def test_online_mode_completes_all_jobs(self, small_grid):
        jobs = tuple(
            make_jobs(
                [30.0, 20.0, 40.0, 10.0], arrivals=[0.0, 3.0, 6.0, 9.0]
            )
        )
        result = self._run(
            DynamicScenario(
                name="on",
                grid=small_grid,
                jobs=jobs,
                timeline=DynamicTimeline(online=True),
            )
        )
        assert all(r.state is JobState.DONE for r in result.records)

    def test_static_path_unchanged_by_timeline_none(self, small_grid):
        jobs = tuple(make_jobs([30.0, 20.0], arrivals=[0.0, 1.0]))
        scenario = Scenario(name="s", grid=small_grid, jobs=jobs)
        a = self._run(scenario)
        sim = GridSimulator(
            small_grid,
            MinMinScheduler("secure"),
            batch_interval=5.0,
            rng=np.random.default_rng(0),
        )
        b = sim.run(scenario.jobs)  # no timeline argument at all
        assert a.makespan == b.makespan
        assert [r.completion for r in a.records] == [
            r.completion for r in b.records
        ]


def _record_one(variant, seed, ref):
    """(trace, report) of one recorded (variant, seed, ref) cell."""
    [(report, trace)] = run_cell(variant, seed, (ref,), record=True)
    return trace, report


def _masked_trace(path):
    """A trace file's lines with the wall-clock report field zeroed."""
    import json

    head, *rows = path.read_text().splitlines()
    meta_row = json.loads(head)
    meta_row["meta"]["report"]["scheduler_seconds"] = 0.0
    return [json.dumps(meta_row, sort_keys=True), *rows]


class TestRecordReplay:
    def test_slug_and_filename(self):
        assert trace_slug("PSA N=120") == "psa-n-120"
        assert (
            trace_filename("PSA N=120", 2005, "min-min-f-risky?f=0.3")
            == "psa-n-120--s2005--min-min-f-risky-f-0.3.jsonl"
        )

    def test_record_replay_bit_identical(self, tmp_path):
        variant = ScenarioVariant(
            name="PSA dyn",
            workload="psa?dynamics=poisson&cancel=0.0005&online=true",
            n_jobs=40,
            n_training_jobs=0,
        )
        trace, report = _record_one(variant, 2005, "min-min-f-risky")
        path = save_trace(tmp_path / "cell.jsonl", trace)
        outcome = replay_trace(path)
        assert outcome.ok, outcome.mismatches
        assert outcome.report.scheduler == report.scheduler

    def test_replay_detects_tampering(self, tmp_path):
        variant = ScenarioVariant(
            name="PSA s", workload="psa", n_jobs=20, n_training_jobs=0
        )
        trace, _ = _record_one(variant, 2005, "min-min-secure")
        path = save_trace(tmp_path / "cell.jsonl", trace)
        text = path.read_text()
        # corrupt one recorded attempt's end time
        import json

        lines = text.splitlines()
        for i, line in enumerate(lines):
            row = json.loads(line)
            if row.get("row") == "attempt":
                row["end"] = row["end"] + 1.0
                lines[i] = json.dumps(row, sort_keys=True,
                                      separators=(",", ":"))
                break
        path.write_text("\n".join(lines) + "\n")
        outcome = replay_trace(path)
        assert not outcome.ok
        assert any("attempt stream" in m for m in outcome.mismatches)

    def test_unreplayable_trace_rejected(self, tmp_path):
        from repro.grid.trace import GridTrace

        grid = Grid.from_arrays(speeds=[1.0], security_levels=[0.9])
        trace = GridTrace(
            meta={}, grid=grid, jobs=tuple(make_jobs([5.0]))
        )
        path = save_trace(tmp_path / "bare.jsonl", trace)
        with pytest.raises(ValueError, match="not replayable"):
            replay_trace(path)

    def test_recording_run_spec_matches_plain_run(self, tmp_path):
        """Recording is an option of the one executor: at one and at
        two workers it writes the same trace files (equal once the
        wall-clock ``scheduler_seconds`` is masked) and returns the
        reports of a run that records nothing."""
        from dataclasses import replace

        spec = ExperimentSpec(
            name="rec",
            schedulers=("min-min-secure", "sufferage-f-risky"),
            variants=(
                ScenarioVariant(
                    name="PSA dyn",
                    workload="psa?dynamics=poisson&cancel=0.0005&online=true",
                    n_jobs=25,
                    n_training_jobs=0,
                ),
            ),
            seeds=(2005, 2006),
        )
        plain = run_spec(spec, max_workers=1)
        dirs = {w: tmp_path / f"w{w}" for w in (1, 2)}
        runs = {
            w: run_spec(spec, max_workers=w, record_traces=d)
            for w, d in dirs.items()
        }
        names = sorted(p.name for p in dirs[1].glob("*.jsonl"))
        assert len(names) == 4
        assert names == sorted(p.name for p in dirs[2].glob("*.jsonl"))
        for name in names:
            assert _masked_trace(dirs[1] / name) == _masked_trace(
                dirs[2] / name
            )

        def masked(res):
            return {
                (v, s): tuple(replace(r, scheduler_seconds=0.0) for r in reps)
                for v, per_sched in res.reports.items()
                for s, reps in per_sched.items()
            }

        assert masked(runs[1]) == masked(plain) == masked(runs[2])

    def test_replay_result_reassembles_grid(self, tmp_path):
        variant = ScenarioVariant(
            name="PSA s", workload="psa", n_jobs=25, n_training_jobs=0
        )
        spec = ExperimentSpec(
            name="rec",
            schedulers=("min-min-secure", "min-min-risky"),
            variants=(variant,),
            seeds=(2005, 2006),
        )
        recorded = run_spec(
            spec, max_workers=1, record_traces=tmp_path / "traces"
        )
        paths = sorted((tmp_path / "traces").glob("*.jsonl"))
        assert len(paths) == 4
        outcomes = [replay_trace(p) for p in paths]
        assert all(o.ok for o in outcomes)
        reassembled = replay_result(outcomes)
        assert reassembled.seeds == recorded.seeds
        assert set(reassembled.reports) == set(recorded.reports)
        from dataclasses import replace

        for vname, per_sched in recorded.reports.items():
            for sched, reps in per_sched.items():
                for a, b in zip(reps, reassembled.reports[vname][sched]):
                    assert replace(a, scheduler_seconds=0.0) == replace(
                        b, scheduler_seconds=0.0
                    )

    def test_replay_workload_ref(self, tmp_path):
        """A recorded trace re-enters the pipeline as 'replay?path=...'."""
        variant = ScenarioVariant(
            name="PSA s", workload="psa", n_jobs=20, n_training_jobs=0
        )
        trace, _ = _record_one(variant, 2005, "min-min-secure")
        path = save_trace(tmp_path / "cell.jsonl", trace)
        replay_variant = ScenarioVariant(
            name="replayed",
            workload=f"replay?path={path}",
            n_jobs=20,
            n_training_jobs=0,
        )
        scenario, training = build_workload(replay_variant, seed=999, scale=0.5)
        assert training is None
        assert scenario.jobs == trace.jobs  # seed/scale deliberately ignored
        assert scenario.grid == trace.grid

    def test_replay_workload_requires_path(self):
        variant = ScenarioVariant(
            name="r", workload="replay", n_jobs=1, n_training_jobs=0
        )
        with pytest.raises(ValueError, match="path"):
            build_workload(variant, seed=1, scale=1.0)


class TestScheduleFnProtocol:
    def test_bound_scheduler_call(self, small_grid):
        from repro.registry import bind_scheduler

        sched = bind_scheduler("min-min-secure", RunSettings())
        jobs = make_jobs([10.0, 20.0], arrivals=[0.0, 0.0])
        result = sched(jobs, small_grid, 0.0)
        assert sorted(result.order.tolist()) == [0, 1]
        assert sched.name  # delegates to the wrapped scheduler

    def test_spec_bind(self, small_grid):
        from repro.registry import scheduler_spec

        spec = scheduler_spec("min-min-secure")
        bound = spec.bind(RunSettings())
        jobs = make_jobs([10.0], arrivals=[0.0])
        result = bound(jobs, small_grid, 0.0)
        assert result.assignment.shape == (1,)
