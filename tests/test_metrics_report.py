"""Tests for repro.metrics.report."""

import numpy as np
import pytest

from repro.grid.engine import GridSimulator
from repro.heuristics.minmin import MinMinScheduler
from repro.metrics.report import evaluate
from tests.conftest import make_jobs


@pytest.fixture
def result(small_grid):
    jobs = make_jobs(
        np.linspace(2, 40, 30),
        arrivals=np.linspace(0, 300, 30),
        sds=np.linspace(0.6, 0.9, 30),
    )
    sim = GridSimulator(
        small_grid, MinMinScheduler("risky"), batch_interval=50.0, rng=4
    )
    return sim.run(jobs)


class TestEvaluate:
    def test_basic_fields(self, result):
        rep = evaluate(result, "Min-Min Risky")
        assert rep.scheduler == "Min-Min Risky"
        assert rep.n_jobs == 30
        assert rep.makespan == result.makespan
        assert rep.avg_response_time > 0
        assert rep.site_utilization.shape == (4,)

    def test_eq3_slowdown_definition(self, result):
        rep = evaluate(result, "x")
        response = result.completions() - result.arrivals()
        service = result.completions() - result.first_starts()
        expected = response.mean() / service.mean()
        assert rep.slowdown_ratio == pytest.approx(expected)

    def test_slowdown_at_least_one(self, result):
        # response includes queueing, service does not
        assert evaluate(result, "x").slowdown_ratio >= 1.0

    def test_nfail_le_nrisk(self, result):
        rep = evaluate(result, "x")
        assert 0 <= rep.n_fail <= rep.n_risk <= rep.n_jobs

    def test_utilization_bounds(self, result):
        rep = evaluate(result, "x")
        assert (rep.site_utilization >= 0).all()
        assert (rep.site_utilization <= 100.0 + 1e-9).all()

    def test_failure_rate(self, result):
        rep = evaluate(result, "x")
        if rep.n_risk:
            assert rep.failure_rate == rep.n_fail / rep.n_risk
        else:
            assert rep.failure_rate == 0.0

    def test_attempt_accounting(self, result):
        rep = evaluate(result, "x")
        # one attempt per job plus one per failure event at minimum
        assert rep.total_attempts >= rep.n_jobs + rep.n_fail

    def test_row_matches_headers(self, result):
        rep = evaluate(result, "x")
        assert len(rep.row()) == len(rep.ROW_HEADERS)

    def test_mean_utilization_and_idle(self, result):
        rep = evaluate(result, "x")
        assert rep.mean_utilization == pytest.approx(
            rep.site_utilization.mean()
        )
        assert 0 <= rep.idle_sites <= 4


class TestReportSerialization:
    def test_eq_does_not_raise_on_array_field(self, result):
        # a plain dataclass __eq__ would compare the ndarray with ==
        # and raise "truth value of an array is ambiguous"
        a = evaluate(result, "x")
        b = evaluate(result, "x")
        assert a == b
        assert not (a != b)

    def test_eq_detects_differences(self, result):
        a = evaluate(result, "x")
        b = evaluate(result, "y")  # scheduler name differs
        assert a != b
        import dataclasses

        c = dataclasses.replace(
            a, site_utilization=a.site_utilization + 1.0
        )
        assert a != c
        assert a != "not a report"
        assert hash(a) == hash(evaluate(result, "x"))

    def test_dict_round_trip_bit_identical(self, result):
        from repro.metrics.report import PerformanceReport

        rep = evaluate(result, "x")
        d = rep.to_dict()
        assert isinstance(d["site_utilization"], list)
        back = PerformanceReport.from_dict(d)
        assert back == rep
        assert back.makespan == rep.makespan  # exact, not approx
        np.testing.assert_array_equal(
            back.site_utilization, rep.site_utilization
        )

    def test_json_round_trip_bit_identical(self, result):
        import json

        from repro.metrics.report import PerformanceReport

        rep = evaluate(result, "x")
        back = PerformanceReport.from_dict(
            json.loads(json.dumps(rep.to_dict()))
        )
        assert back == rep

    def test_from_dict_rejects_unknown_fields(self, result):
        from repro.metrics.report import PerformanceReport

        d = evaluate(result, "x").to_dict()
        d["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            PerformanceReport.from_dict(d)


class TestEvaluateErrors:
    def test_secure_mode_never_fails(self, small_grid):
        jobs = make_jobs(
            [5.0] * 20,
            arrivals=np.linspace(0, 100, 20),
            sds=np.linspace(0.6, 0.9, 20),
        )
        sim = GridSimulator(
            small_grid, MinMinScheduler("secure"), batch_interval=50.0, rng=0
        )
        rep = evaluate(sim.run(jobs), "Min-Min Secure")
        assert rep.n_fail == 0 and rep.n_risk == 0
