"""Tests for repro.heuristics.factory."""

import pytest

from repro.grid.security import RiskMode
from repro.heuristics.factory import HEURISTIC_CLASSES, make_heuristic
from repro.heuristics.minmin import MinMinScheduler


class TestMakeHeuristic:
    def test_by_name(self):
        sched = make_heuristic("min-min", "risky")
        assert isinstance(sched, MinMinScheduler)
        assert sched.mode is RiskMode.RISKY

    def test_case_insensitive(self):
        assert isinstance(make_heuristic("MIN-MIN"), MinMinScheduler)

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown heuristic"):
            make_heuristic("simulated-annealing")

    def test_kwargs_forwarded(self):
        sched = make_heuristic("min-min", "f-risky", f=0.25)
        assert sched.f == 0.25

    def test_all_registered_construct(self):
        for name in HEURISTIC_CLASSES:
            assert make_heuristic(name).name
