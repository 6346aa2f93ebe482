"""Tests for repro.workloads.arrivals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrivals import (
    cyclic_arrivals,
    hourly_rate_profile,
    poisson_arrivals,
)


class TestPoissonArrivals:
    def test_count_and_sorted(self, rng):
        t = poisson_arrivals(500, 0.01, rng)
        assert t.size == 500
        assert (np.diff(t) > 0).all()

    def test_mean_rate(self, rng):
        t = poisson_arrivals(20000, 0.008, rng)
        mean_gap = np.diff(t).mean()
        assert mean_gap == pytest.approx(125.0, rel=0.05)

    def test_start_offset(self, rng):
        t = poisson_arrivals(10, 1.0, rng, start=100.0)
        assert t[0] > 100.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(0, 1.0, rng)
        with pytest.raises(ValueError):
            poisson_arrivals(5, 0.0, rng)

    def test_reproducible(self):
        a = poisson_arrivals(10, 1.0, np.random.default_rng(1))
        b = poisson_arrivals(10, 1.0, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)


class TestHourlyProfile:
    def test_length(self):
        assert hourly_rate_profile(7).size == 7 * 24

    def test_day_night_contrast(self):
        p = hourly_rate_profile(1)
        assert p[12] > p[3]  # noon busier than 3am

    def test_weekend_suppressed(self):
        p = hourly_rate_profile(7)
        monday_noon = p[12]
        saturday_noon = p[5 * 24 + 12]
        assert saturday_noon < monday_noon

    def test_validation(self):
        with pytest.raises(ValueError):
            hourly_rate_profile(0)


class TestCyclicArrivals:
    def test_exact_count_sorted_in_horizon(self, rng):
        t = cyclic_arrivals(1000, 4, rng)
        assert t.size == 1000
        assert (np.diff(t) >= 0).all()
        assert t[0] >= 0 and t[-1] <= 4 * 86400

    def test_squeeze_halves_timeline(self, rng):
        t1 = cyclic_arrivals(500, 4, np.random.default_rng(0), squeeze=1.0)
        t2 = cyclic_arrivals(500, 4, np.random.default_rng(0), squeeze=2.0)
        np.testing.assert_allclose(t2, t1 / 2)

    def test_follows_profile(self, rng):
        """More mass lands in prime-time hours than at night."""
        t = cyclic_arrivals(20000, 10, rng)
        hour = (t % 86400) // 3600
        day_count = ((hour >= 8) & (hour < 18)).sum()
        assert day_count > 0.55 * t.size

    def test_custom_profile(self, rng):
        profile = np.zeros(24)
        profile[6] = 1.0  # everything lands 06:00-07:00
        t = cyclic_arrivals(100, 1, rng, profile=profile)
        assert ((t >= 6 * 3600) & (t <= 7 * 3600)).all()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            cyclic_arrivals(0, 1, rng)
        with pytest.raises(ValueError):
            cyclic_arrivals(10, 1, rng, squeeze=0.0)
        with pytest.raises(ValueError, match="entries"):
            cyclic_arrivals(10, 2, rng, profile=np.ones(24))
        with pytest.raises(ValueError, match="mass"):
            cyclic_arrivals(10, 1, rng, profile=np.zeros(24))

    @given(n=st.integers(1, 200), days=st.integers(1, 5), seed=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_bounds_property(self, n, days, seed):
        t = cyclic_arrivals(n, days, np.random.default_rng(seed))
        assert t.size == n
        assert (t >= 0).all() and (t <= days * 86400).all()


class TestArrivalProperties:
    """Property tests over random profiles and seeds (ISSUE satellite)."""

    @given(
        n=st.integers(2, 300),
        days=st.integers(1, 4),
        seed=st.integers(0, 50),
        hot_hours=st.lists(
            st.integers(0, 23), min_size=1, max_size=24, unique=True
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_cyclic_exactly_n_monotone_random_profiles(
        self, n, days, seed, hot_hours
    ):
        """cyclic_arrivals returns exactly n sorted times for *any*
        nonnegative profile with mass, at any seed."""
        day = np.zeros(24)
        day[hot_hours] = 1.0 + np.arange(len(hot_hours))
        profile = np.tile(day, days)  # one entry per horizon hour
        t = cyclic_arrivals(n, days, np.random.default_rng(seed), profile=profile)
        assert t.size == n
        assert (np.diff(t) >= 0).all()
        assert (t >= 0).all() and (t <= days * 86400).all()

    @given(n=st.integers(1, 200), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_poisson_strictly_increasing_any_seed(self, n, seed):
        t = poisson_arrivals(n, 0.01, np.random.default_rng(seed))
        assert t.size == n
        assert (np.diff(t) > 0).all()
        assert (t > 0).all()
