"""One (variant, seed) cell: build, bind, simulate, check, evaluate.

``run_cell`` is the benchmark-side twin of the sweep layer's worker:
it runs a scheduler lineup on one freshly built scenario through the
program's public entry points (``ScenarioVariant.build_scenarios``,
``bind_scheduler``, ``simulate_scheduler``, ``evaluate``) in the order
``run_lineup`` uses, so its reports equal ``run_spec``'s for the same
cell (the benchmark checks this cell by cell).  Unlike ``run_lineup``
it keeps each ``SimulationResult`` long enough to check the
simulator's conservation laws, and it times single ``schedule()``
calls of the schedulers whose decision latency is reported.

Timed end-to-end rounds never go through this module: they call
``run_spec``.  ``run_cell`` serves the untimed check pass and the
traced rounds, whose spans need a worker the benchmark owns.

The function is module-level and its task and outcome are plain
dataclasses, so it can run in a process-pool worker.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import tracing


@dataclass(frozen=True)
class CellTask:
    """Picklable description of one cell."""

    cell_id: str
    variant: object  # repro.experiments.sweep.ScenarioVariant
    seed: int
    scale: float
    settings: object  # repro.experiments.config.RunSettings
    lineup: tuple[str, ...]
    #: refs whose schedule() calls are timed one by one
    timed_refs: tuple[str, ...]
    trace: bool = False


@dataclass
class CellOutcome:
    """What one cell produced and what its checks found."""

    cell_id: str
    variant: str
    seed: int
    reports: list = field(default_factory=list)
    #: ref -> report, for the makespan-ratio metric
    by_ref: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    decision_s: list[float] = field(default_factory=list)
    terminal_jobs: int = 0
    #: deterministic counters (engine, history) of the lineup's runs
    counters: dict = field(default_factory=dict)
    busy_s: float = 0.0
    spans: list = field(default_factory=list)
    trace_counts: dict = field(default_factory=dict)


class TimedScheduler:
    """Times each ``schedule()`` call of the wrapped scheduler."""

    def __init__(self, inner, sink: list[float]) -> None:
        self._inner = inner
        self._sink = sink

    @property
    def name(self) -> str:
        return self._inner.name

    def schedule(self, batch):
        start = time.perf_counter()
        result = self._inner.schedule(batch)
        self._sink.append(time.perf_counter() - start)
        return result

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def check_result(result, label: str) -> list[str]:
    """The simulator's conservation laws on one ``SimulationResult``.

    * every job is terminal exactly once: done + cancelled equals the
      job count, with no job id recorded twice.  ``FAILED`` is not
      terminal here (it means "queued for a secure retry"), and the
      simulator only returns once every job is done or cancelled, so
      a record left failed, pending or running is a lost job;
    * no first start comes before the job's arrival;
    * no cancelled job has a completion time.
    """
    from repro.grid.job import JobState

    problems = []
    records = result.records
    ids = [r.job.job_id for r in records]
    if len(set(ids)) != len(ids):
        problems.append(f"{label}: a job id is recorded twice")
    states = [r.state for r in records]
    done = states.count(JobState.DONE)
    cancelled = states.count(JobState.CANCELLED)
    if done + cancelled != len(records):
        stranded = len(records) - done - cancelled
        problems.append(
            f"{label}: {done} done + {cancelled} cancelled != "
            f"{len(records)} jobs ({stranded} left failed, pending or running)"
        )
    if cancelled != result.n_cancelled:
        problems.append(
            f"{label}: {cancelled} cancelled records but "
            f"n_cancelled={result.n_cancelled}"
        )
    early = sum(
        1
        for r in records
        if not math.isnan(r.first_start) and r.first_start < r.job.arrival
    )
    if early:
        problems.append(f"{label}: {early} job(s) started before arrival")
    completed_cancels = sum(
        1
        for r in records
        if r.state is JobState.CANCELLED and not math.isnan(r.completion)
    )
    if completed_cancels:
        problems.append(
            f"{label}: {completed_cancels} cancelled job(s) have a completion"
        )
    return problems


def run_cell(task: CellTask) -> CellOutcome:
    """Run one cell; never raises (a failure is recorded instead)."""
    started = time.perf_counter()
    out = CellOutcome(task.cell_id, task.variant.name, task.seed)
    if task.trace:
        with tracing.activate(tracing.Tracer(task.cell_id)) as tracer:
            with tracing.span("cell"):
                _run(task, out)
        out.spans = tracer.spans
        out.trace_counts = dict(tracer.counts)
    else:
        _run(task, out)
    out.busy_s = time.perf_counter() - started
    return out


def _run(task: CellTask, out: CellOutcome) -> None:
    from repro.experiments.config import PaperDefaults
    from repro.experiments.runner import simulate_scheduler
    from repro.grid.job import JobState
    from repro.metrics.report import evaluate
    from repro.registry import bind_scheduler
    from repro.util.rng import RngFactory

    label = f"{task.variant.name} seed={task.seed}"
    try:
        settings = task.variant.settings_for(task.settings, task.seed)
        with tracing.span("workloads.build"):
            scenario, training = task.variant.build_scenarios(
                task.seed, task.scale
            )
        context = dict(
            scenario=scenario,
            training=training,
            defaults=PaperDefaults(),
            ga_config=None,
        )
        bound = []
        for ref in task.lineup:
            name = "stga.warmup" if ref.startswith("stga") else "registry.bind"
            with tracing.span(name):
                sched = bind_scheduler(
                    ref, settings, RngFactory(settings.seed), **context
                )
            if ref in task.timed_refs:
                sched = TimedScheduler(sched, out.decision_s)
            bound.append((ref, sched))
        counters = {
            "engine.batches": 0,
            "engine.batch_jobs": 0,
            "engine.forced": 0,
            "engine.cancelled": 0,
            "history.queries": 0,
            "history.hits": 0,
        }
        for ref, sched in bound:
            result = simulate_scheduler(scenario, sched, settings)
            out.failures.extend(check_result(result, f"{label} {ref}"))
            with tracing.span("metrics.evaluate"):
                report = evaluate(result, sched.name)
            out.reports.append(report)
            out.by_ref[ref] = report
            out.terminal_jobs += sum(
                r.state in (JobState.DONE, JobState.CANCELLED)
                for r in result.records
            )
            counters["engine.batches"] += result.n_batches
            counters["engine.batch_jobs"] += sum(result.batch_sizes)
            counters["engine.forced"] += result.n_forced
            counters["engine.cancelled"] += result.n_cancelled
            history = getattr(sched, "history", None)
            if history is not None:
                counters["history.queries"] += history.queries
                counters["history.hits"] += history.hits
        out.counters = counters
    except Exception:  # a cell boundary: record and keep the run going
        out.failures.append(f"{label}: raised\n{traceback.format_exc()}")
