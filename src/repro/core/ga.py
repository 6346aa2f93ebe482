"""The genetic-algorithm core shared by the conventional GA and the STGA.

:func:`evolve` is a pure array-in / array-out optimiser: given the
batch's ETC matrix, site ready times and per-job eligibility, it runs
the generational loop of Section 3 (roulette selection, single-point
crossover, per-gene mutation, elitism) and returns the best assignment
found.  The STGA differs from the conventional GA *only* in the
``initial`` population it passes in — that is the paper's entire
"time" dimension — so both schedulers share this module.

A generation step ping-pongs two preallocated population buffers
through the fused operator kernels of :mod:`repro.core.operators` and
evaluates the children with one reusable
:class:`~repro.core.fitness.FitnessWorkspace`, so the loop allocates
no population copies.  The step's own buffers (crossover tail table,
mutation uniforms) are built on the first generation that runs in
full: most small batches never run one.
:func:`intake_seeds` is the one place seed chromosomes enter the GA.

When the batch's whole search space is no larger than the rows one
stall window evaluates, :func:`evolve` enumerates it up front.  Once
the best-so-far fitness equals that certified optimum no child can
improve on it, so the rest of the run is fixed and the remaining
generations only consume their random draws
(:func:`~repro.core.operators.skip_generations`, in one pass) — the
result and the generator state stay exactly those of the full loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.chromosome import (
    EligibleSites,
    check_population,
    random_population,
    repair_population,
)
from repro.core.fitness import FitnessWorkspace
from repro.core.operators import (
    crossover_inplace,
    crossover_tails,
    elitism_inplace,
    mutate_inplace,
    roulette_select_into,
    skip_generations,
)
from repro.util.validation import check_probability

__all__ = ["GAConfig", "GAResult", "evolve", "intake_seeds"]


def _certified_optimum(
    ws: FitnessWorkspace, sites: EligibleSites, buf: np.ndarray, cap: int
) -> float | None:
    """The exact minimum fitness over every eligible assignment, or None.

    None when the space holds more than ``cap`` chromosomes, or when
    any of them has a non-finite fitness (the loop's roulette would
    raise on it, so nothing may be skipped).  The space is enumerated
    in mixed radix over ``sites.lookup``, at most ``buf``'s P rows at a
    time, each chromosome once, and scored with the decision's own
    workspace: ``evaluate`` is row-independent, so the minimum is the
    very float the loop computes for that chromosome.
    """
    counts = sites.counts
    space = math.prod(counts.tolist())  # exact: Python integers
    if space > cap:
        return None
    p, b = buf.shape
    strides = np.cumprod(np.concatenate(([1], counts[:-1])))
    offsets = np.arange(b, dtype=np.int64) * sites.lookup.shape[1]
    lookup_flat = sites.lookup.ravel()
    best = math.inf
    for start in range(0, space, p):
        rows = np.arange(start, min(start + p, space), dtype=np.int64)
        chunk = buf[: rows.size]
        np.take(lookup_flat, rows[:, None] // strides % counts + offsets, out=chunk)
        fit = ws.evaluate(chunk)
        lo, hi = float(fit.min()), float(fit.max())  # NaN shows in both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return None
        best = min(best, lo)
    return best


@dataclass(frozen=True)
class GAConfig:
    """GA hyper-parameters; defaults are the paper's Table 1 values."""

    population_size: int = 200
    generations: int = 100
    crossover_prob: float = 0.8
    mutation_prob: float = 0.01
    n_elite: int = 2
    #: stop early if the best fitness has not improved for this many
    #: generations (None = run all generations, the paper's setting).
    stall_generations: int | None = None
    #: weight of the aggregate-flow tie-breaker in the fitness (see
    #: :func:`repro.core.fitness.population_fitness`); 0 = pure
    #: makespan, the paper's literal objective.
    flow_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        check_probability("crossover_prob", self.crossover_prob)
        check_probability("mutation_prob", self.mutation_prob)
        if not (0 <= self.n_elite < self.population_size):
            raise ValueError(
                f"n_elite must be in [0, population_size), got {self.n_elite}"
            )
        if self.stall_generations is not None and self.stall_generations < 1:
            raise ValueError(
                f"stall_generations must be >= 1 or None, "
                f"got {self.stall_generations}"
            )
        if self.flow_weight < 0:
            raise ValueError(
                f"flow_weight must be non-negative, got {self.flow_weight}"
            )


@dataclass
class GAResult:
    """Outcome of one :func:`evolve` call."""

    best: np.ndarray  # (B,) best assignment found
    best_fitness: float
    generations_run: int
    #: best-so-far fitness after generation g (index 0 = initial pop);
    #: the Figure 7(b) convergence curve is built from this.
    history: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: fitness of the best *initial* chromosome — the "starting point
    #: on the evolution path" contrasted in Figure 5.
    initial_fitness: float = np.nan


def intake_seeds(
    initial: np.ndarray | None,
    n_jobs: int,
    capacity: int,
    *,
    strict_seeds: bool = False,
) -> np.ndarray | None:
    """Validate seed chromosomes and cap them at ``capacity``.

    Returns None when there are no seeds.  Seeds must be integer site
    indices of ``n_jobs`` genes each — a float seed would otherwise be
    silently truncated by the eligibility repair's integer cast.
    Seeds beyond ``capacity`` are dropped with a
    :class:`RuntimeWarning`, or a :class:`ValueError` when
    ``strict_seeds``.  Draws no random numbers; the caller repairs the
    returned seeds' eligibility
    (:func:`~repro.core.chromosome.repair_population`) from its own
    stream.
    """
    if initial is None or len(initial) == 0:
        return None
    seeds = check_population(np.atleast_2d(initial), context="initial seeds")
    if seeds.shape[1] != n_jobs:
        raise ValueError(
            f"seed chromosomes have {seeds.shape[1]} genes, expected {n_jobs}"
        )
    if seeds.shape[0] > capacity:
        msg = (
            f"{seeds.shape[0]} seed chromosomes exceed the population "
            f"capacity {capacity}; surplus seeds are dropped"
        )
        if strict_seeds:
            raise ValueError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
    return seeds[:capacity]


def evolve(
    etc: np.ndarray,
    ready: np.ndarray,
    eligibility: np.ndarray,
    rng: np.random.Generator,
    config: GAConfig = GAConfig(),
    *,
    initial: np.ndarray | None = None,
    track_history: bool = False,
    strict_seeds: bool = False,
) -> GAResult:
    """Run the generational GA and return the best assignment.

    Parameters
    ----------
    etc:
        (B, S) execution times (possibly risk-penalised, see
        :func:`repro.core.fitness.expected_etc`).
    ready:
        (S,) site ready times.
    eligibility:
        Boolean (B, S); every job needs at least one eligible site.
    rng:
        Random generator driving all stochastic operators.
    config:
        Hyper-parameters.
    initial:
        Optional (K, B) integer seed chromosomes (the STGA's history
        seeds).  They are eligibility-repaired, then topped up with
        random chromosomes to the configured population size; surplus
        seeds beyond ``population_size`` are truncated with a
        :class:`RuntimeWarning` (the dropped seeds silently losing
        their schedules is almost never intended).
    track_history:
        Record the best-so-far fitness per generation (costs one float
        per generation).
    strict_seeds:
        Raise :class:`ValueError` instead of warning when ``initial``
        holds more chromosomes than the population can take.
    """
    ws = FitnessWorkspace(etc, ready, flow_weight=config.flow_weight)
    b = ws.n_jobs
    if b == 0:
        raise ValueError("cannot evolve an empty batch")
    sites = EligibleSites.from_mask(eligibility)
    if sites.n_jobs != b:
        raise ValueError(
            f"eligibility covers {sites.n_jobs} jobs but etc has {b}"
        )

    p = config.population_size
    seeds = intake_seeds(initial, b, p, strict_seeds=strict_seeds)
    if seeds is None:
        pop = random_population(sites, p, rng)
    else:
        seeds = repair_population(seeds, sites, rng)
        fill = p - seeds.shape[0]
        if fill > 0:
            pop = np.vstack([seeds, random_population(sites, fill, rng)])
        else:
            pop = seeds
    pop = np.ascontiguousarray(pop, dtype=np.int64)
    buf = np.empty_like(pop)
    fit = ws.evaluate(pop)
    stall_window = config.stall_generations or config.generations
    # after the population's own evaluate: the certificate may resize
    # the workspace to a shorter last chunk
    f_star = _certified_optimum(ws, sites, buf, p * stall_window)

    best_idx = int(np.argmin(fit))
    best = pop[best_idx].copy()
    best_fit = float(fit[best_idx])
    initial_fit = best_fit
    history = [best_fit] if track_history else None

    scratch = None  # the step's buffers, built on its first full generation
    stall = 0
    gens_run = 0
    while gens_run < config.generations:
        if best_fit == f_star:
            # No child can beat the optimum, so every remaining
            # generation is a stall until the stall exit or the budget.
            n = config.generations - gens_run
            if config.stall_generations is not None:
                n = min(n, config.stall_generations - stall)
            skip_generations(
                rng, n, p, b, config.crossover_prob, config.mutation_prob,
                scratch,
            )
            gens_run += n
            if history is not None:
                history.extend([best_fit] * n)
            break
        if scratch is None:
            tails = crossover_tails(b)
            # mutation's uniforms in its head; skip_generations' draws
            scratch = np.empty(2 * p * b + p)
            uniforms = scratch[: p * b].reshape(p, b)
        gens_run += 1
        elite_idx = np.argsort(fit)[: config.n_elite]
        elites, elite_fit = pop[elite_idx], fit[elite_idx]  # copies

        roulette_select_into(pop, fit, rng, out=buf)
        pop, buf = buf, pop  # ping-pong: buf now holds the old pop
        crossover_inplace(pop, config.crossover_prob, rng, tails)
        mutate_inplace(pop, sites, config.mutation_prob, rng, uniforms)
        fit = ws.evaluate(pop)
        elitism_inplace(pop, fit, elites, elite_fit)

        gen_best = int(np.argmin(fit))
        if fit[gen_best] < best_fit:
            best_fit = float(fit[gen_best])
            best = pop[gen_best].copy()
            stall = 0
        else:
            stall += 1
        if history is not None:
            history.append(best_fit)
        if (
            config.stall_generations is not None
            and stall >= config.stall_generations
        ):
            break

    return GAResult(
        best=best,
        best_fitness=best_fit,
        generations_run=gens_run,
        history=np.asarray(history if history is not None else [], dtype=float),
        initial_fitness=initial_fit,
    )
