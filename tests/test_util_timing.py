"""Tests for repro.util.timing."""

import pytest

from repro.util.timing import Stopwatch


class TestStopwatch:
    def test_measures_positive_time(self):
        sw = Stopwatch()
        with sw.measure("work"):
            sum(range(1000))
        assert sw.total("work") > 0
        assert sw.count("work") == 1

    def test_accumulates(self):
        sw = Stopwatch()
        for _ in range(3):
            with sw.measure("w"):
                pass
        assert sw.count("w") == 3
        assert sw.mean("w") == pytest.approx(sw.total("w") / 3)

    def test_unknown_label_zero_total(self):
        assert Stopwatch().total("nope") == 0.0

    def test_mean_unknown_raises(self):
        with pytest.raises(KeyError):
            Stopwatch().mean("nope")

    def test_exception_still_recorded(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            with sw.measure("boom"):
                raise RuntimeError("x")
        assert sw.count("boom") == 1

    def test_reset(self):
        sw = Stopwatch()
        with sw.measure("a"):
            pass
        sw.reset()
        assert sw.count("a") == 0 and sw.total("a") == 0.0

    def test_separate_labels(self):
        sw = Stopwatch()
        with sw.measure("a"):
            pass
        with sw.measure("b"):
            pass
        assert sw.count("a") == 1 and sw.count("b") == 1

    def test_add_records_a_segment(self):
        sw = Stopwatch()
        sw.add("a", 0.25)
        sw.add("a", 0.5)
        assert sw.count("a") == 2 and sw.total("a") == 0.75
