"""repro — a reproduction of *"Security-Driven Heuristics and A Fast
Genetic Algorithm for Trusted Grid Job Scheduling"* (Song, Kwok,
Hwang — IPDPS 2005).

The package implements, from scratch:

* a discrete-event grid simulator with the paper's security/risk model
  (:mod:`repro.grid`),
* the security-driven Min-Min and Sufferage heuristics under secure /
  risky / f-risky modes plus extra baselines (:mod:`repro.heuristics`),
* the Space-Time Genetic Algorithm with its history lookup table —
  the paper's contribution (:mod:`repro.core`),
* the NAS-trace synthesizer and PSA workload generator
  (:mod:`repro.workloads`),
* the Section 4.1 metrics (:mod:`repro.metrics`) and one experiment
  spec builder and renderer per paper table/figure
  (:mod:`repro.experiments`).

Quickstart::

    from repro import (GridSimulator, MinMinScheduler, evaluate,
                       psa_scenario, PSAConfig)
    sc = psa_scenario(PSAConfig(n_jobs=200), rng=0)
    sim = GridSimulator(sc.grid, MinMinScheduler("f-risky", f=0.5))
    print(evaluate(sim.run(sc.jobs), "Min-Min f-Risky"))
"""

from repro.core import (
    GAConfig,
    GAResult,
    HistoryTable,
    RecordingScheduler,
    StandardGAScheduler,
    STGAScheduler,
    warmup_history,
)
from repro.grid import (
    DEFAULT_LAMBDA,
    Batch,
    Grid,
    GridSimulator,
    Job,
    RiskMode,
    ScheduleResult,
    SimulationResult,
    Site,
    failure_probability,
)
from repro.heuristics import (
    BatchScheduler,
    MaxMinScheduler,
    MCTScheduler,
    METScheduler,
    MinMinScheduler,
    OLBScheduler,
    RandomScheduler,
    SufferageScheduler,
    make_heuristic,
)
from repro.metrics import PerformanceReport, compare_to_reference, evaluate
from repro.registry import (
    SchedulerSpec,
    WorkloadSpec,
    available_schedulers,
    available_workloads,
    build_scheduler,
    build_workload,
    register_scheduler,
    register_workload,
    scheduler_spec,
    workload_spec,
)
from repro.workloads import (
    NASConfig,
    PSAConfig,
    Scenario,
    nas_scenario,
    psa_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # grid
    "Job",
    "Site",
    "Grid",
    "Batch",
    "ScheduleResult",
    "GridSimulator",
    "SimulationResult",
    "RiskMode",
    "failure_probability",
    "DEFAULT_LAMBDA",
    # heuristics
    "BatchScheduler",
    "MinMinScheduler",
    "MaxMinScheduler",
    "SufferageScheduler",
    "MCTScheduler",
    "METScheduler",
    "OLBScheduler",
    "RandomScheduler",
    "make_heuristic",
    # core
    "GAConfig",
    "GAResult",
    "HistoryTable",
    "STGAScheduler",
    "StandardGAScheduler",
    "RecordingScheduler",
    "warmup_history",
    # workloads
    "Scenario",
    "PSAConfig",
    "psa_scenario",
    "NASConfig",
    "nas_scenario",
    # metrics
    "PerformanceReport",
    "evaluate",
    "compare_to_reference",
    # registry
    "SchedulerSpec",
    "WorkloadSpec",
    "register_scheduler",
    "register_workload",
    "scheduler_spec",
    "workload_spec",
    "available_schedulers",
    "available_workloads",
    "build_scheduler",
    "build_workload",
]
