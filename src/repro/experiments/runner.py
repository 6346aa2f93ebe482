"""Shared experiment execution: build schedulers, run simulations,
collect :class:`PerformanceReport` objects.

The paper evaluates seven algorithms on identical event streams:
Min-Min and Sufferage in secure / f-risky / risky mode, plus the STGA
(trained on 500 warmup jobs scheduled by Min-Min).  ``run_lineup``
reproduces exactly that protocol; individual pieces are exposed for
the ablation studies.

The lineup itself is *data*: :data:`PAPER_LINEUP` names seven
scheduler-registry refs (see :mod:`repro.registry`), and
``run_lineup(lineup=...)`` runs any list of refs — the STGA, with its
history warm-up, builds through its registry entry like every other
algorithm, so the runner carries no scheduler-specific branching.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.ga import GAConfig
from repro.core.history import HistoryTable
from repro.core.stga import STGAScheduler, warmup_history
from repro.experiments.config import PaperDefaults, RunSettings
from repro.grid.engine import GridSimulator, SimulationResult
from repro.grid.security import RiskMode
from repro.heuristics.base import BatchScheduler
from repro.metrics.report import PerformanceReport, evaluate
from repro.registry import bind_scheduler, register_scheduler
from repro.util.rng import RngFactory
from repro.workloads.base import Scenario, scale_jobs

__all__ = [
    "PAPER_LINEUP",
    "simulate_scheduler",
    "run_scheduler",
    "make_trained_stga",
    "run_lineup",
    "scale_jobs",
    "reports_by_name",
]

#: the paper's seven-algorithm lineup (Figures 8-9, Table 2) as
#: scheduler-registry refs, in presentation order
PAPER_LINEUP = (
    "min-min-secure",
    "min-min-f-risky",
    "min-min-risky",
    "sufferage-secure",
    "sufferage-f-risky",
    "sufferage-risky",
    "stga",
)


def simulate_scheduler(
    scenario: Scenario,
    scheduler: BatchScheduler,
    settings: RunSettings = RunSettings(),
    *,
    engine_seed: int | None = None,
    record_attempts: bool = False,
) -> SimulationResult:
    """Simulate ``scenario`` under ``scheduler``, returning the raw result.

    Threads the scenario's dynamic timeline (if it carries one — see
    :class:`~repro.workloads.dynamics.DynamicScenario`) into the
    engine, so dynamic and static scenarios run through one code path.
    ``record_attempts=True`` attaches a full
    :class:`~repro.grid.trace.AttemptLog` for trace recording.
    """
    seed = settings.seed if engine_seed is None else engine_seed
    sim = GridSimulator(
        scenario.grid,
        scheduler,
        batch_interval=settings.batch_interval,
        lam=settings.lam,
        failure_point=settings.failure_point,
        fallback=settings.fallback,
        rng=RngFactory(seed).stream("engine-failures"),
        record_attempts=record_attempts,
    )
    return sim.run(
        scenario.jobs, timeline=getattr(scenario, "timeline", None)
    )


def run_scheduler(
    scenario: Scenario,
    scheduler: BatchScheduler,
    settings: RunSettings = RunSettings(),
    *,
    engine_seed: int | None = None,
) -> PerformanceReport:
    """Simulate ``scenario`` under ``scheduler`` and evaluate it."""
    result = simulate_scheduler(
        scenario, scheduler, settings, engine_seed=engine_seed
    )
    return evaluate(result, scheduler.name)


def make_trained_stga(
    scenario: Scenario,
    training: Scenario | None,
    settings: RunSettings = RunSettings(),
    *,
    defaults: PaperDefaults = PaperDefaults(),
    ga_config: GAConfig | None = None,
    mode: RiskMode | str = RiskMode.F_RISKY,
    history: HistoryTable | None = None,
    **stga_kwargs,
) -> STGAScheduler:
    """Build an STGA with a history table warmed on ``training`` jobs.

    ``training=None`` skips the warm-up (the table then fills only
    from the STGA's own batches, the paper's "built from the
    beginning" alternative).  ``history`` overrides the default table
    (Table 1's capacity 150 / threshold 0.8) for ablations; extra
    keyword arguments pass through to :class:`STGAScheduler`
    (``risk_penalty``, ``heuristic_seeds``, ...).

    The default gene alphabet is *f-risky* (f = 0.5): under our
    λ = 3.0 failure law, unconstrained risky placements carry higher
    rework cost than in the paper's setup, and the f-risky alphabet is
    what reproduces the paper's "STGA wins" ordering (DESIGN.md §4).
    The STGA still takes abundant risk — N_risk stays comparable to
    the risky heuristics — matching the paper's observation.
    """
    rngs = RngFactory(settings.seed)
    if history is None:
        history = HistoryTable(
            capacity=defaults.lookup_table_size,
            threshold=defaults.similarity_threshold,
        )
    if training is not None:
        warmup_history(
            history,
            scenario.grid,
            training.jobs,
            batch_interval=settings.batch_interval,
            lam=settings.lam,
            rng=rngs.stream("warmup-failures"),
        )
    return STGAScheduler(
        mode,
        f=defaults.f_risky,
        lam=settings.lam,
        config=ga_config if ga_config is not None else settings.ga,
        rng=rngs.stream("stga"),
        history=history,
        **stga_kwargs,
    )


@register_scheduler(
    "stga",
    description="Space-Time GA with its history lookup table, warmed "
    "on the training stream (the paper's contribution)",
    stateful=True,
)
def _build_stga(
    settings,
    rng,
    *,
    scenario=None,
    training=None,
    defaults: PaperDefaults | None = None,
    ga_config=None,
    mode: RiskMode | str = RiskMode.F_RISKY,
    capacity: int | None = None,
    threshold: float | None = None,
    eviction: str | None = None,
    **stga_kwargs,
):
    """Registry factory wrapping the full warm-up protocol.

    Ref parameters override the history table (``capacity``,
    ``threshold``, ``eviction``) and any :class:`STGAScheduler`
    keyword (``risk_penalty``, ``heuristic_seeds``, ...); without
    parameters this is bit-identical to :func:`make_trained_stga`.
    """
    if scenario is None:
        raise ValueError(
            "the 'stga' scheduler needs the run's scenario in its "
            "build context (run_lineup provides it)"
        )
    if defaults is None:
        defaults = PaperDefaults()
    history = None
    if capacity is not None or threshold is not None or eviction is not None:
        history = HistoryTable(
            capacity=capacity if capacity is not None
            else defaults.lookup_table_size,
            threshold=threshold if threshold is not None
            else defaults.similarity_threshold,
            eviction=eviction if eviction is not None else "lru",
        )
    return make_trained_stga(
        scenario,
        training,
        settings,
        defaults=defaults,
        ga_config=ga_config,
        mode=mode,
        history=history,
        **stga_kwargs,
    )


def run_lineup(
    scenario: Scenario,
    training: Scenario | None = None,
    settings: RunSettings = RunSettings(),
    *,
    defaults: PaperDefaults = PaperDefaults(),
    lineup: Sequence[str] | None = None,
) -> list[PerformanceReport]:
    """Run a scheduler lineup on one scenario.

    ``lineup`` is a sequence of scheduler-registry refs (default: the
    paper's seven-algorithm :data:`PAPER_LINEUP`); every ref binds
    through :func:`repro.registry.bind_scheduler` with the run's
    context (scenario, training stream, paper defaults), so stateful
    entries like the STGA need no special treatment here and every
    built scheduler exposes the unified ``ScheduleFn`` call surface.
    GA-based entries take their GA configuration from
    ``settings.ga``.

    Every scheduler sees the same scenario and the same engine failure
    stream seed, so differences are purely scheduling decisions.
    Returns reports in lineup order.
    """
    refs = tuple(lineup) if lineup is not None else PAPER_LINEUP
    context = dict(scenario=scenario, training=training, defaults=defaults)
    built = [
        bind_scheduler(ref, settings, RngFactory(settings.seed), **context)
        for ref in refs
    ]
    return [run_scheduler(scenario, sched, settings) for sched in built]


def reports_by_name(
    reports: Iterable[PerformanceReport],
) -> dict[str, PerformanceReport]:
    """Index reports by scheduler name."""
    out: dict[str, PerformanceReport] = {}
    for rep in reports:
        if rep.scheduler in out:
            raise ValueError(f"duplicate scheduler name {rep.scheduler!r}")
        out[rep.scheduler] = rep
    return out
