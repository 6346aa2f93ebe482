"""Grid substrate: jobs, sites, the security/risk model, the ETC model
and the discrete-event simulation engine for periodic online batch
scheduling (paper Section 2)."""

from repro.grid.batch import (
    Batch,
    ScheduleResult,
    check_order_permutation,
    snapshot_batch,
)
from repro.grid.engine import GridSimulator, SchedulerDeadlock, SimulationResult
from repro.grid.etc import etc_matrix
from repro.grid.events import Event, EventKind, EventQueue
from repro.grid.job import Job, JobRecord, JobState
from repro.grid.reliability import (
    BUILTIN_LAWS,
    ExponentialFailure,
    FailureLaw,
    LinearFailure,
    StepFailure,
    WeibullFailure,
    make_failure_law,
)
from repro.grid.security import (
    DEFAULT_LAMBDA,
    RiskMode,
    eligibility_matrix,
    failure_probability,
    risk_tolerance,
)
from repro.grid.site import Grid, Site
from repro.grid.timeline import DynamicTimeline, SiteOutage
from repro.grid.trace import (
    TRACE_SCHEMA_VERSION,
    Attempt,
    AttemptLog,
    GridTrace,
    load_trace,
    save_trace,
)

__all__ = [
    "Batch",
    "ScheduleResult",
    "check_order_permutation",
    "snapshot_batch",
    "GridSimulator",
    "SimulationResult",
    "SchedulerDeadlock",
    "etc_matrix",
    "Event",
    "EventKind",
    "EventQueue",
    "Job",
    "JobRecord",
    "JobState",
    "DEFAULT_LAMBDA",
    "RiskMode",
    "failure_probability",
    "risk_tolerance",
    "eligibility_matrix",
    "Grid",
    "Site",
    "FailureLaw",
    "ExponentialFailure",
    "WeibullFailure",
    "StepFailure",
    "LinearFailure",
    "BUILTIN_LAWS",
    "make_failure_law",
    "Attempt",
    "AttemptLog",
    "GridTrace",
    "TRACE_SCHEMA_VERSION",
    "save_trace",
    "load_trace",
    "DynamicTimeline",
    "SiteOutage",
]
