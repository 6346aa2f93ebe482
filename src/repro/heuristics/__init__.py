"""Security-driven batch scheduling heuristics: the paper's Min-Min and
Sufferage under three risk modes, plus Braun-et-al. baselines (Max-Min,
MCT, MET, OLB) and a random mapper."""

from repro.heuristics.base import BatchScheduler, SecurityDrivenScheduler
from repro.heuristics.duplex import DuplexScheduler
from repro.heuristics.estimation import NoisyETCScheduler
from repro.heuristics.factory import (
    HEURISTIC_CLASSES,
    make_heuristic,
)
from repro.heuristics.maxmin import MaxMinScheduler
from repro.heuristics.mct import MCTScheduler
from repro.heuristics.met import METScheduler
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.olb import OLBScheduler
from repro.heuristics.random_sched import RandomScheduler
from repro.heuristics.sufferage import SufferageScheduler

__all__ = [
    "BatchScheduler",
    "SecurityDrivenScheduler",
    "MinMinScheduler",
    "DuplexScheduler",
    "NoisyETCScheduler",
    "MaxMinScheduler",
    "SufferageScheduler",
    "MCTScheduler",
    "METScheduler",
    "OLBScheduler",
    "RandomScheduler",
    "HEURISTIC_CLASSES",
    "make_heuristic",
]
