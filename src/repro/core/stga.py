"""GA-based batch schedulers: the conventional GA and the paper's STGA.

Both run the identical generational loop (:func:`repro.core.ga.evolve`);
they differ only in where the initial population comes from:

* :class:`StandardGAScheduler` starts every batch from scratch with a
  fully random population — the "conventional GA" of Figure 5;
* :class:`STGAScheduler` additionally seeds the population with the
  best schedules of *similar previous batches* retrieved from a
  :class:`~repro.core.history.HistoryTable`, and stores its own result
  back after every batch.  This is the paper's evolution "over time".

:class:`RecordingScheduler` wraps any scheduler (Min-Min, Sufferage,
...) so that its decisions populate a history table — the paper's
training phase ("we use the Min-Min and Sufferage heuristics [on] a
fixed number of training jobs to generate the initial lookup table
entries"); :func:`warmup_history` runs that phase end to end.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitness import expected_etc
from repro.core.ga import GAConfig, GAResult, evolve
from repro.core.history import HistoryTable
from repro.grid.batch import Batch, ScheduleResult
from repro.grid.security import DEFAULT_LAMBDA, RiskMode
from repro.heuristics.base import BatchScheduler, SecurityDrivenScheduler
from repro.registry import register_scheduler
from repro.util.rng import as_generator
from repro.util.validation import check_non_negative

__all__ = [
    "StandardGAScheduler",
    "STGAScheduler",
    "RecordingScheduler",
    "warmup_history",
]


class _GASchedulerBase(SecurityDrivenScheduler):
    """Shared machinery of the two GA schedulers.

    Parameters
    ----------
    mode, f, lam:
        Risk mode restricting the per-gene site alphabet.  The paper's
        STGA behaves like a risky scheduler (it reports the highest
        N_risk), so ``"risky"`` is the default.
    config:
        GA hyper-parameters (paper defaults in :class:`GAConfig`).
    risk_penalty:
        If > 0, fitness uses risk-penalised execution times
        (:func:`repro.core.fitness.expected_etc`) — an ablation knob,
        0 reproduces the paper.
    rng:
        Seed or generator for all GA randomness.
    """

    def __init__(
        self,
        mode: RiskMode | str = RiskMode.RISKY,
        *,
        f: float = 0.5,
        lam: float = DEFAULT_LAMBDA,
        config: GAConfig | None = None,
        risk_penalty: float = 0.0,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(mode, f=f, lam=lam)
        self.config = config if config is not None else GAConfig()
        self.risk_penalty = check_non_negative("risk_penalty", risk_penalty)
        self.rng = as_generator(rng)
        #: GAResult of the most recent batch (None before the first);
        #: used by the convergence experiments.
        self.last_result: GAResult | None = None
        #: best fitness of the *initial* population, one entry per
        #: batch — the Figure 5 "starting point" comparison data.
        self.initial_fitnesses: list[float] = []
        #: track per-generation best fitness in last_result.history
        self.track_history = False

    def _fitness_etc(self, batch: Batch, feasible: np.ndarray) -> np.ndarray:
        etc = batch.etc[feasible]
        if self.risk_penalty > 0:
            etc = expected_etc(
                etc,
                batch.security_demands[feasible],
                batch.site_security,
                lam=self.lam,
                penalty=self.risk_penalty,
            )
        return etc

    def _seeds(self, batch: Batch, feasible: np.ndarray) -> np.ndarray | None:
        """Initial chromosomes beyond the random fill (STGA hook)."""
        return None

    def _after(
        self, batch: Batch, feasible: np.ndarray, result: GAResult
    ) -> None:
        """Post-schedule hook (STGA stores history here)."""

    def schedule(self, batch: Batch) -> ScheduleResult:
        elig = self.eligibility(batch)
        feasible = elig.any(axis=1)
        assignment = np.full(batch.n_jobs, -1, dtype=int)
        if feasible.any():
            result = evolve(
                self._fitness_etc(batch, feasible),
                batch.ready,
                elig[feasible],
                self.rng,
                self.config,
                initial=self._seeds(batch, feasible),
                track_history=self.track_history,
            )
            assignment[feasible] = result.best
            self.last_result = result
            self.initial_fitnesses.append(result.initial_fitness)
            self._after(batch, feasible, result)
        # Dispatch shortest-execution-first (SPT).  Per-site order does
        # not affect the batch makespan (site completion is the sum of
        # its jobs), but SPT minimises the mean completion time within
        # each site's queue — the same ordering Min-Min's greedy
        # commit sequence produces naturally.
        assigned = np.flatnonzero(assignment >= 0)
        exec_times = batch.etc[assigned, assignment[assigned]]
        order = assigned[np.argsort(exec_times, kind="stable")]
        return ScheduleResult(assignment=assignment, order=order)


class StandardGAScheduler(_GASchedulerBase):
    """Conventional (space-only) GA: random initial population."""

    algorithm = "GA"


@register_scheduler(
    "ga",
    description="conventional (space-only) GA — random initial "
    "population every batch, the Figure 5 baseline",
    aliases=("standard-ga",),
    stateful=True,  # carries its GA rng stream across batches
)
def _build_standard_ga(
    settings,
    rng,
    *,
    defaults=None,
    scenario=None,  # per-run context, unused: no history warm-up
    training=None,
    ga_config=None,
    mode: str = "f-risky",
    f=None,
    **params,
):
    """Registry factory matching the ablation's "conventional GA" setup
    (same gene alphabet as the STGA for a fair contrast)."""
    if f is None:
        f = defaults.f_risky if defaults is not None else 0.5
    return StandardGAScheduler(
        mode,
        f=float(f),
        lam=settings.lam,
        config=ga_config if ga_config is not None else settings.ga,
        rng=rng.stream("conventional-ga"),
        **params,
    )


class STGAScheduler(_GASchedulerBase):
    """The Space-Time Genetic Algorithm (paper Section 3).

    Additional parameters
    ---------------------
    history:
        A :class:`HistoryTable` to query and update; a fresh table
        with the paper's Table 1 settings (capacity 150, threshold
        0.8, LRU) is created when omitted.  Pass a pre-warmed table to
        reproduce the paper's training protocol (see
        :func:`warmup_history`).
    max_seed_fraction:
        Cap on the share of the initial population taken by history
        seeds; the remainder stays random "to guarantee enough
        diversity" (paper).  Default 0.5.
    heuristic_seeds:
        Also seed the population with the *current batch's* Min-Min
        and Sufferage solutions (under the STGA's own risk mode).
        Braun et al. [7] — the heuristic framework the paper builds
        on — seed their GA the same way; combined with elitism this
        makes the STGA's per-batch schedule no worse than the
        heuristics'.  Default True; disable to study the history
        table in isolation (see the ablation benches).
    """

    algorithm = "STGA"

    def __init__(
        self,
        mode: RiskMode | str = RiskMode.RISKY,
        *,
        f: float = 0.5,
        lam: float = DEFAULT_LAMBDA,
        config: GAConfig | None = None,
        risk_penalty: float = 0.0,
        rng: int | np.random.Generator | None = 0,
        history: HistoryTable | None = None,
        max_seed_fraction: float = 0.5,
        heuristic_seeds: bool = True,
    ) -> None:
        super().__init__(
            mode,
            f=f,
            lam=lam,
            config=config,
            risk_penalty=risk_penalty,
            rng=rng,
        )
        if not (0.0 < max_seed_fraction <= 1.0):
            raise ValueError(
                f"max_seed_fraction must be in (0, 1], got {max_seed_fraction}"
            )
        self.history = history if history is not None else HistoryTable()
        self.max_seed_fraction = max_seed_fraction
        self.heuristic_seeds = heuristic_seeds

    @property
    def name(self) -> str:
        return self.label if self.label is not None else "STGA"

    def _sub_batch(self, batch: Batch, feasible: np.ndarray) -> Batch:
        """The feasible-job view of ``batch`` (what the GA solves)."""
        return Batch(
            now=batch.now,
            job_ids=batch.job_ids[feasible],
            workloads=batch.workloads[feasible],
            security_demands=batch.security_demands[feasible],
            secure_only=batch.secure_only[feasible],
            etc=batch.etc[feasible],
            ready=batch.ready,
            site_security=batch.site_security,
            speeds=batch.speeds,
        )

    def _heuristic_seeds(
        self, batch: Batch, feasible: np.ndarray
    ) -> list[np.ndarray]:
        from repro.heuristics.minmin import MinMinScheduler
        from repro.heuristics.sufferage import SufferageScheduler

        sub = self._sub_batch(batch, feasible)
        seeds = []
        for cls in (MinMinScheduler, SufferageScheduler):
            sched = cls(self.mode, f=self.f, lam=self.lam)
            assignment = np.asarray(sched.schedule(sub).assignment)
            if (assignment >= 0).all():  # feasible jobs are assignable
                seeds.append(assignment)
        return seeds

    def _seeds(self, batch: Batch, feasible: np.ndarray) -> np.ndarray | None:
        ready_rel = batch.ready - batch.now
        max_seeds = max(
            1, int(self.config.population_size * self.max_seed_fraction)
        )
        matches = self.history.query(
            ready_rel,
            batch.etc[feasible],
            batch.security_demands[feasible],
            max_results=max_seeds,
        )
        if self.heuristic_seeds:
            matches = self._heuristic_seeds(batch, feasible) + matches
        if not matches:
            return None
        return np.stack(matches[:max_seeds])

    def _after(
        self, batch: Batch, feasible: np.ndarray, result: GAResult
    ) -> None:
        ready_rel = batch.ready - batch.now
        self.history.insert(
            ready_rel,
            batch.etc[feasible],
            batch.security_demands[feasible],
            result.best,
        )


class RecordingScheduler(BatchScheduler):
    """Wrap a scheduler so its decisions populate a history table.

    Only the jobs it actually assigned are recorded (deferred jobs
    carry no schedule information).
    """

    def __init__(self, inner: BatchScheduler, history: HistoryTable) -> None:
        self.inner = inner
        self.history = history

    @property
    def name(self) -> str:
        return f"Recording({self.inner.name})"

    def schedule(self, batch: Batch) -> ScheduleResult:
        result = self.inner.schedule(batch)
        assigned = np.asarray(result.assignment) >= 0
        if assigned.any():
            ready_rel = batch.ready - batch.now
            self.history.insert(
                ready_rel,
                batch.etc[assigned],
                batch.security_demands[assigned],
                np.asarray(result.assignment)[assigned],
            )
        return result


def warmup_history(
    history: HistoryTable,
    grid,
    training_jobs,
    *,
    trainer: BatchScheduler | None = None,
    batch_interval: float = 100.0,
    lam: float = DEFAULT_LAMBDA,
    rng: int | np.random.Generator | None = 0,
) -> None:
    """Populate ``history`` by scheduling ``training_jobs`` (paper:
    500 jobs through Min-Min) on ``grid``.

    Runs a throwaway simulation with a :class:`RecordingScheduler`;
    the simulation result is discarded, only the table matters.
    """
    from repro.grid.engine import GridSimulator  # local: avoid cycle
    from repro.heuristics.minmin import MinMinScheduler

    if trainer is None:
        trainer = MinMinScheduler(RiskMode.RISKY, lam=lam)
    recorder = RecordingScheduler(trainer, history)
    sim = GridSimulator(
        grid,
        recorder,
        batch_interval=batch_interval,
        lam=lam,
        rng=rng,
    )
    sim.run(training_jobs)
