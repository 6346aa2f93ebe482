"""Genetic operators (paper Section 3).

* *Selection* — value-based roulette wheel: smaller makespan means a
  larger slice of the wheel.  Fitness values are mapped to weights
  ``(worst - f) + 0.05 * span`` so the worst chromosome keeps a small
  but non-zero survival probability (pure ``worst - f`` would zero it
  out and collapse diversity in near-converged populations).
* *Crossover* — single-point tail swap of chromosome pairs with
  probability ``crossover_prob`` (paper: 0.8).
* *Mutation* — each gene independently resamples a uniform eligible
  site with probability ``mutation_prob`` (paper: 0.01).
* *Elitism* — the best ``n_elite`` parents overwrite the worst
  children, guaranteeing monotone best-so-far fitness.

Everything is vectorised over the population.  The operators are
fused kernels: they write into a caller-provided buffer or mutate the
population in place, and take optional per-decision buffers (the
crossover tail table, the mutation uniforms), so a generation step
allocates no population copies.  The GA loop
(:func:`repro.core.ga.evolve`) owns the buffers and guarantees the
inputs are validated integer populations.

The RNG draws are part of each kernel's contract — which calls, of
which sizes, in which order — because every committed baseline was
produced by exactly this stream.  ``tests/ga_oracle.py`` keeps plain
copying versions of the four operators and the kernel tests diff both
the outputs and the post-call generator state against them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.chromosome import EligibleSites

__all__ = [
    "selection_weights",
    "roulette_select_into",
    "crossover_inplace",
    "mutate_inplace",
    "elitism_inplace",
    "crossover_tails",
    "skip_generations",
]

#: floor weight as a fraction of the fitness span, keeps the wheel
#: non-degenerate when all chromosomes are nearly equal.
_WHEEL_FLOOR = 0.05


def selection_weights(fitness: np.ndarray) -> np.ndarray:
    """Roulette-wheel weights for *minimised* fitness values."""
    fit = np.asarray(fitness, dtype=float)
    if fit.ndim != 1 or fit.size == 0:
        raise ValueError(f"fitness must be a non-empty 1-D array, got {fit.shape}")
    worst, best = fit.max(), fit.min()
    # NaN and ±inf both surface in the extremes: no full isfinite pass
    if not (math.isfinite(worst) and math.isfinite(best)):
        raise ValueError("fitness values must be finite")
    span = worst - best
    if span == 0:
        return np.full(fit.shape, 1.0 / fit.size)
    w = (worst - fit) + _WHEEL_FLOOR * span
    return w / w.sum()


def roulette_select_into(
    population: np.ndarray,
    fitness: np.ndarray,
    rng: np.random.Generator,
    out: np.ndarray,
) -> np.ndarray:
    """Sample a new (P, B) population with replacement into ``out``.

    Replicates ``rng.choice(P, size=P, p=probs)`` without its per-call
    validation and allocation overhead: ``Generator.choice`` with
    probabilities draws ``rng.random(P)`` and inverts the CDF with a
    right-sided ``searchsorted`` — doing exactly that here keeps both
    the consumed stream and the selected indices identical to it.
    ``out`` must not alias ``population``.
    """
    probs = selection_weights(fitness)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(population.shape[0]), side="right")
    np.take(population, idx, axis=0, out=out)
    return out


def crossover_tails(b: int) -> np.ndarray:
    """The (b+1, b) crossover mask table: row k, for a cut point k in
    [1, b-1], is True on the tail ``[k:]``; row b is all False (the
    pair does not cross)."""
    return np.arange(b)[None, :] >= np.arange(b + 1)[:, None]


def crossover_inplace(
    population: np.ndarray,
    prob: float,
    rng: np.random.Generator,
    tails: np.ndarray | None = None,
) -> np.ndarray:
    """Crossover adjacent pairs in place; an odd trailing chromosome
    passes through.

    For each pair, with probability ``prob`` a cut point k in [1, B-1]
    is drawn and the two tails ``[k:]`` are exchanged.  Chromosomes of
    length 1 cannot cross and are returned unchanged.  The exchange is
    an XOR swap on the integer genes (``a ^= d; c ^= d`` with
    ``d = (a ^ c) * tail``), which is exact for integers and needs no
    full-population temporaries.  Each pair's tail is a row of
    :func:`crossover_tails`, indexed by its cut point, or by B when it
    does not cross; ``tails`` passes a prebuilt table.
    """
    p, b = population.shape
    if b < 2 or p < 2 or prob <= 0:
        return population
    n_pairs = p // 2
    a = population[0 : 2 * n_pairs : 2]
    c = population[1 : 2 * n_pairs : 2]
    crossing = rng.random(n_pairs) < prob
    points = rng.integers(1, b, size=n_pairs)
    if tails is None:
        tails = crossover_tails(b)
    tail = tails[np.where(crossing, points, b)]
    diff = np.bitwise_xor(a, c)
    diff *= tail  # zero outside the swapped tails
    a ^= diff
    c ^= diff
    return population


def mutate_inplace(
    population: np.ndarray,
    sites: EligibleSites,
    prob: float,
    rng: np.random.Generator,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-gene mutation in place: resample an eligible site with
    probability ``prob``.

    Draws two full-shape uniforms — the hit mask, then the
    :meth:`EligibleSites.sample` uniforms — but evaluates the site
    lookup only at the ~``prob * P * B`` mutated positions.  An
    optional float ``scratch`` of the population's shape receives both
    draws instead of fresh arrays.
    """
    if prob <= 0:
        return population
    u = rng.random(population.shape, out=scratch)
    flat = np.flatnonzero(u < prob)
    if flat.size:
        u = rng.random(population.shape, out=scratch)
        cols = flat % population.shape[1]
        k = (u.take(flat) * sites.counts[cols]).astype(np.int64)
        np.put(population, flat, sites.lookup[cols, k])
    return population


def skip_generations(
    rng: np.random.Generator,
    n: int,
    p: int,
    b: int,
    crossover_prob: float,
    mutation_prob: float,
    scratch: np.ndarray | None = None,
) -> None:
    """Consume exactly the draws of ``n`` generation steps on a (p, b)
    population and do nothing else.

    Equivalent, for the generator, to ``n`` rounds of
    :func:`roulette_select_into`, :func:`crossover_inplace` and
    :func:`mutate_inplace`: none of their draws depends on the
    population, only on its shape and the probabilities.  The GA uses
    this once a certified optimum has made the rest of its run fixed.

    Uniforms that sit next to each other in the stream are drawn in
    one call: ``random(k)`` then ``random(m)`` leaves the generator
    exactly where ``random(k + m)`` does.  Two things end a run.  The
    crossover's ``integers`` call draws from the stream differently,
    so the run before it is drawn first; at b = 2 its range holds one
    value and it draws nothing, so it is skipped.  The mutation mask
    is drawn as the end of a run, because its minimum decides whether
    the value uniforms follow.  ``scratch``, an optional 1-D float
    buffer of at least ``2 * p * b + p`` elements, receives the draws.
    """
    n_pairs = p // 2 if b >= 2 and p >= 2 and crossover_prob > 0 else 0
    pb = p * b

    def draw(k: int) -> np.ndarray:
        if scratch is not None and k <= scratch.size:
            return rng.random(out=scratch[:k])
        return rng.random(k)

    owed = 0  # uniforms of the stream not drawn yet
    for _ in range(n):
        owed += p + n_pairs  # selection, then the crossover coins
        if n_pairs and b > 2:
            draw(owed)
            owed = 0
            rng.integers(1, b, size=n_pairs)
        if mutation_prob > 0:
            owed += pb  # the hit mask ends the run
            u = draw(owed)
            # the value uniforms follow when some gene is hit
            owed = pb if u[-pb:].min() < mutation_prob else 0
    if owed:
        draw(owed)


def elitism_inplace(
    population: np.ndarray,
    fitness: np.ndarray,
    elites: np.ndarray,
    elite_fitness: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite the worst children with the elite parents, in place.

    ``population``/``fitness`` are mutated and returned.  Guarantees
    the best fitness never regresses between generations.
    """
    n_elite = elites.shape[0]
    if n_elite:
        worst = np.argsort(fitness)[-n_elite:]
        population[worst] = elites
        fitness[worst] = elite_fitness
    return population, fitness
