"""Test-local oracle for the GA kernels and the event queue.

Plain, copying implementations of the four genetic operators, a naive
per-chromosome fitness, the generational loop composed from them, and
a sorted-list event queue.  They draw from the RNG in the order the
shipped kernels are contracted to (same calls, same sizes), so the
kernel tests can diff outputs *and* post-call generator state against
them.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.core.chromosome import (
    EligibleSites,
    random_population,
    repair_population,
)
from repro.core.ga import GAConfig, GAResult
from repro.core.operators import selection_weights


def roulette_select(population, fitness, rng):
    """Sample a new population with replacement from the wheel."""
    pop = np.asarray(population)
    idx = rng.choice(pop.shape[0], size=pop.shape[0], p=selection_weights(fitness))
    return pop[idx]


def single_point_crossover(population, prob, rng):
    """Swap the tails of adjacent pairs; returns a new array."""
    pop = np.array(population, copy=True)
    p, b = pop.shape
    if b < 2 or p < 2 or prob <= 0:
        return pop
    n_pairs = p // 2
    a = pop[0 : 2 * n_pairs : 2]
    c = pop[1 : 2 * n_pairs : 2]
    crossing = rng.random(n_pairs) < prob
    points = rng.integers(1, b, size=n_pairs)
    tail = (np.arange(b)[None, :] >= points[:, None]) & crossing[:, None]
    pop[0 : 2 * n_pairs : 2], pop[1 : 2 * n_pairs : 2] = (
        np.where(tail, c, a),
        np.where(tail, a, c),
    )
    return pop


def mutate(population, sites: EligibleSites, prob, rng):
    """Per-gene resampling of an eligible site; returns a new array."""
    pop = np.array(population, copy=True)
    if prob <= 0:
        return pop
    mask = rng.random(pop.shape) < prob
    if mask.any():
        fresh = sites.sample(rng, pop.shape)
        pop[mask] = fresh[mask]
    return pop


def apply_elitism(children, child_fitness, elites, elite_fitness):
    """Elites overwrite the worst children; inputs are not modified."""
    pop = np.array(children, copy=True)
    fit = np.array(child_fitness, dtype=float, copy=True)
    n_elite = elites.shape[0]
    if n_elite:
        worst = np.argsort(fit)[-n_elite:]
        pop[worst] = elites
        fit[worst] = elite_fitness
    return pop, fit


def naive_fitness(population, etc, ready, flow_weight=0.0):
    """One chromosome at a time, loads summed in job order."""
    out = []
    for row in np.asarray(population):
        load = {}
        for j, site in enumerate(row):
            load[site] = load.get(site, 0.0) + etc[j, site]
        value = max(ready[site] + total for site, total in load.items())
        if flow_weight:
            value += flow_weight * (ready[row] + etc[np.arange(len(row)), row]).mean()
        out.append(value)
    return np.array(out)


def _track(best, best_fit, pop, fit):
    k = int(np.argmin(fit))
    if fit[k] < best_fit:
        return pop[k].copy(), float(fit[k])
    return best, best_fit


def oracle_evolve(etc, ready, eligibility, rng, config=GAConfig(), initial=None):
    """The generational loop of :func:`repro.core.ga.evolve`, every
    generation run in full: seeds repaired then topped up at random,
    and the stall exit."""
    sites = EligibleSites.from_mask(eligibility)
    fw = config.flow_weight
    p = config.population_size
    if initial is None:
        pop = random_population(sites, p, rng)
    else:
        seeds = repair_population(np.asarray(initial)[:p], sites, rng)
        fill = p - len(seeds)
        pop = seeds
        if fill > 0:
            pop = np.vstack([seeds, random_population(sites, fill, rng)])
    fit = naive_fitness(pop, etc, ready, fw)
    best, best_fit = _track(None, np.inf, pop, fit)
    initial_fit = best_fit
    history = [best_fit]
    stall = 0
    for _ in range(config.generations):
        elite_idx = np.argsort(fit)[: config.n_elite]
        elites, elite_fit = pop[elite_idx], fit[elite_idx]
        pop = roulette_select(pop, fit, rng)
        pop = single_point_crossover(pop, config.crossover_prob, rng)
        pop = mutate(pop, sites, config.mutation_prob, rng)
        pop, fit = apply_elitism(
            pop, naive_fitness(pop, etc, ready, fw), elites, elite_fit
        )
        improved = float(fit.min()) < best_fit
        best, best_fit = _track(best, best_fit, pop, fit)
        stall = 0 if improved else stall + 1
        history.append(best_fit)
        if config.stall_generations is not None and stall >= config.stall_generations:
            break
    return GAResult(
        best=best,
        best_fitness=best_fit,
        generations_run=len(history) - 1,
        history=np.asarray(history),
        initial_fitness=initial_fit,
    )


class SortedEventQueue:
    """Event queue as a list re-sorted on every pop: ``(time, kind,
    push order)`` is the whole contract, nothing else."""

    def __init__(self):
        self._items = []
        self._pushed = 0

    def push(self, event):
        self._items.append(((event.time, int(event.kind), self._pushed), event))
        self._pushed += 1

    def pop(self):
        self._items.sort(key=lambda item: item[0])
        return self._items.pop(0)[1]

    def peek_time(self):
        return min((k[0] for k, _ in self._items), default=float("inf"))

    def __len__(self):
        return len(self._items)
