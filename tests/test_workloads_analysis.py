"""Tests for repro.workloads.analysis."""

import numpy as np
import pytest

from repro.workloads.analysis import (
    hourly_histogram,
    profile_scenario,
)
from repro.workloads.nas import NASConfig, nas_scenario
from repro.workloads.psa import PSAConfig, psa_scenario


@pytest.fixture(scope="module")
def nas():
    return nas_scenario(NASConfig(n_jobs=3000, trace_days=20), rng=0)


@pytest.fixture(scope="module")
def psa():
    return psa_scenario(PSAConfig(n_jobs=1000), rng=0)


class TestProfile:
    def test_basic_fields(self, psa):
        p = profile_scenario(psa)
        assert p.n_jobs == 1000
        assert p.span_seconds > 0
        assert p.total_work == pytest.approx(psa.total_work)
        assert 0.6 <= p.sd_mean <= 0.9

    def test_load_ratio_definition(self, psa):
        p = profile_scenario(psa)
        expected = psa.total_work / (psa.grid.total_speed * p.span_seconds)
        assert p.load_ratio == pytest.approx(expected)

    def test_psa_regime_near_critical(self, psa):
        """Calibrated PSA runs close to (slightly above) capacity."""
        p = profile_scenario(psa)
        assert 0.8 < p.load_ratio < 2.0

    def test_nas_regime_overloaded(self, nas):
        p = profile_scenario(nas, squeeze=2.0)
        assert p.overloaded

    def test_nas_prime_time_cycle(self, nas):
        p = profile_scenario(nas, squeeze=2.0)
        # 10 of 24 hours are prime time but carry most arrivals
        assert p.prime_time_fraction > 0.5

    def test_interarrival(self, psa):
        p = profile_scenario(psa)
        assert p.mean_interarrival == pytest.approx(125.0, rel=0.2)

    def test_percentiles_ordered(self, nas):
        p = profile_scenario(nas, squeeze=2.0)
        assert p.workload_p50 <= p.workload_p95 <= p.workload_max

    def test_squeeze_validation(self, psa):
        with pytest.raises(ValueError):
            profile_scenario(psa, squeeze=0.0)


class TestHourlyHistogram:
    def test_shape_and_total(self, nas):
        h = hourly_histogram(nas, squeeze=2.0)
        assert h.shape == (24,)
        assert h.sum() == nas.n_jobs

    def test_daily_cycle_visible(self, nas):
        h = hourly_histogram(nas, squeeze=2.0)
        assert h[8:18].mean() > 1.5 * np.mean(np.r_[h[:8], h[18:]])

    def test_squeeze_validation(self, psa):
        with pytest.raises(ValueError):
            hourly_histogram(psa, squeeze=-1.0)
