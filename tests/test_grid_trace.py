"""Tests for repro.grid.trace and engine trace integration."""

import numpy as np
import pytest

from repro.grid.engine import GridSimulator
from repro.grid.reliability import StepFailure
from repro.grid.site import Grid
from repro.grid.trace import Attempt, AttemptLog
from repro.heuristics.minmin import MinMinScheduler
from tests.conftest import make_jobs


class TestAttempt:
    def test_duration(self):
        a = Attempt(0, 1, 10.0, 15.0, False, False, 1)
        assert a.duration == 5.0


class TestAttemptLog:
    def _log(self):
        log = AttemptLog()
        log.record(Attempt(0, 0, 0.0, 5.0, True, True, 1))
        log.record(Attempt(0, 1, 6.0, 10.0, False, False, 2))
        log.record(Attempt(1, 0, 5.0, 8.0, False, True, 1))
        return log

    def test_len_iter(self):
        log = self._log()
        assert len(log) == 3
        assert len(list(log)) == 3

    def test_invalid_attempt_rejected(self):
        log = AttemptLog()
        with pytest.raises(ValueError, match="ends before"):
            log.record(Attempt(0, 0, 5.0, 4.0, False, False, 1))

    def test_for_job(self):
        log = self._log()
        assert [a.attempt_index for a in log.for_job(0)] == [1, 2]

    def test_for_site(self):
        log = self._log()
        assert len(log.for_site(0)) == 2

    def test_failures(self):
        assert len(self._log().failures()) == 1

    def test_waste_accounting(self):
        log = self._log()
        assert log.wasted_time() == 5.0
        assert log.total_busy_time() == 12.0


class TestEngineIntegration:
    @pytest.fixture
    def traced_result(self):
        grid = Grid.from_arrays([2.0, 1.0], [0.3, 0.95])
        jobs = make_jobs(
            [5.0] * 30,
            arrivals=np.linspace(0, 200, 30),
            sds=[0.9] * 30,
        )
        sim = GridSimulator(
            grid,
            MinMinScheduler("risky"),
            batch_interval=50.0,
            rng=1,
            failure_law=StepFailure(tolerance=0.1, p_fail=0.6),
            record_attempts=True,
        )
        return sim.run(jobs)

    def test_log_present_and_consistent(self, traced_result):
        log = traced_result.attempts
        assert log is not None
        # every job's attempt count matches its record
        for rec in traced_result.records:
            assert len(log.for_job(rec.job.job_id)) == rec.attempts

    def test_busy_time_matches_log(self, traced_result):
        per_site = np.zeros(2)
        for a in traced_result.attempts:
            per_site[a.site_id] += a.duration
        np.testing.assert_allclose(per_site, traced_result.busy_time)

    def test_failures_match_records(self, traced_result):
        failed_jobs = {a.job_id for a in traced_result.attempts.failures()}
        expected = {
            r.job.job_id for r in traced_result.records if r.ever_failed
        }
        assert failed_jobs == expected

    def test_risky_flags_consistent(self, traced_result):
        for a in traced_result.attempts:
            # site 0 has SL=0.3 < SD=0.9 -> risky; site 1 is safe
            assert a.risky == (a.site_id == 0)

    def test_no_log_by_default(self):
        grid = Grid.from_arrays([1.0], [0.95])
        sim = GridSimulator(
            grid, MinMinScheduler("risky"), batch_interval=10.0, rng=0
        )
        res = sim.run(make_jobs([2.0]))
        assert res.attempts is None

    def test_bad_failure_law_rejected(self):
        grid = Grid.from_arrays([1.0], [0.95])
        with pytest.raises(TypeError, match="FailureLaw"):
            GridSimulator(
                grid,
                MinMinScheduler("risky"),
                failure_law=lambda sd, sl: 0.5,
            )


class TestTraceCodec:
    """The versioned JSONL trace codec (save_trace / load_trace)."""

    def _trace(self, with_timeline=True, with_attempts=True, meta=None):
        from repro.grid.timeline import DynamicTimeline, SiteOutage
        from repro.grid.trace import GridTrace

        grid = Grid.from_arrays(
            speeds=[1.0, 2.0], security_levels=[0.5, 0.9]
        )
        jobs = tuple(make_jobs([10.0, 20.0, 30.0], arrivals=[0.0, 1.0, 2.5]))
        timeline = None
        if with_timeline:
            timeline = DynamicTimeline(
                cancels=((2, 5.5),),
                outages=(SiteOutage(site_id=0, start=1.0, end=2.0),),
                exec_factors=((1, 1.25),),
                due_dates=((0, 40.0), (1, 50.0)),
                online=True,
            )
        log = None
        if with_attempts:
            log = AttemptLog()
            log.record(Attempt(0, 1, 0.0, 5.0, False, True, 1))
            log.record(Attempt(1, 0, 1.0, 21.0, True, False, 1))
        return GridTrace(
            meta=meta if meta is not None else {"name": "t", "seed": 3},
            grid=grid,
            jobs=jobs,
            timeline=timeline,
            attempts=log,
        )

    def test_roundtrip_bit_identical(self, tmp_path):
        from repro.grid.trace import load_trace, save_trace

        trace = self._trace()
        path = save_trace(tmp_path / "t.jsonl", trace)
        back = load_trace(path)
        assert back.meta == trace.meta
        assert back.grid == trace.grid
        assert back.jobs == trace.jobs
        assert back.timeline == trace.timeline
        assert back.attempts.attempts == trace.attempts.attempts
        # a second save of the loaded trace is byte-identical
        path2 = save_trace(tmp_path / "t2.jsonl", back)
        assert path2.read_bytes() == path.read_bytes()

    def test_roundtrip_static(self, tmp_path):
        from repro.grid.trace import load_trace, save_trace

        trace = self._trace(with_timeline=False, with_attempts=False)
        back = load_trace(save_trace(tmp_path / "s.jsonl", trace))
        assert back.timeline is None and back.attempts is None
        assert back.jobs == trace.jobs

    def test_unknown_version_refused(self, tmp_path):
        import json

        from repro.grid.trace import load_trace, save_trace

        path = save_trace(tmp_path / "v.jsonl", self._trace())
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head["schema_version"] = 99
        path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="schema_version"):
            load_trace(path)

    def test_unknown_row_refused(self, tmp_path):
        from repro.grid.trace import load_trace, save_trace

        path = save_trace(tmp_path / "r.jsonl", self._trace())
        with path.open("a") as fh:
            fh.write('{"row":"wormhole"}\n')
        with pytest.raises(ValueError, match="unknown trace row"):
            load_trace(path)

    def test_not_a_trace_refused(self, tmp_path):
        from repro.grid.trace import load_trace

        path = tmp_path / "x.jsonl"
        path.write_text('{"kind":"something-else"}\n')
        with pytest.raises(ValueError, match="not a grid trace"):
            load_trace(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(empty)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        from repro.grid.trace import save_trace

        save_trace(tmp_path / "a.jsonl", self._trace())
        leftovers = [
            p for p in tmp_path.iterdir() if p.name != "a.jsonl"
        ]
        assert leftovers == []
