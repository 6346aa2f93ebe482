"""Island-model (coarse-grained parallel) GA — an HPC extension.

The paper cites Kwok & Ahmad's *parallel* genetic algorithm for
multiprocessor scheduling [19] as the GA lineage; this module supplies
the corresponding coarse-grained parallelisation of our batch GA: the
population is split into islands that evolve independently and
exchange their best chromosomes along a ring every few generations.

Islands here are simulated within one process (the per-generation
kernels are already vectorised, so Python-level parallelism would only
add overhead at these population sizes), but the semantics — isolated
demes, periodic elite migration, shared termination — are exactly
what an MPI deployment would distribute one-island-per-rank, and the
module is structured so that step/migrate are rank-local operations.

Migration is the classic ring: every ``migration_interval``
generations each island sends copies of its ``n_migrants`` best
chromosomes to its successor, replacing the successor's worst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chromosome import (
    EligibleSites,
    random_population,
    repair_population,
)
from repro.core.fitness import FitnessWorkspace
from repro.core.ga import GAConfig, GAResult, intake_seeds
from repro.core.operators import (
    crossover_inplace,
    elitism_inplace,
    mutate_inplace,
    roulette_select_into,
)
from repro.core.stga import STGAScheduler
from repro.util.rng import spawn

__all__ = ["IslandConfig", "evolve_islands", "IslandSTGAScheduler"]


@dataclass(frozen=True)
class IslandConfig:
    """Topology parameters of the island model."""

    n_islands: int = 4
    migration_interval: int = 10  # generations between migrations
    n_migrants: int = 2  # elites copied to the ring successor

    def __post_init__(self) -> None:
        if self.n_islands < 1:
            raise ValueError(f"n_islands must be >= 1, got {self.n_islands}")
        if self.migration_interval < 1:
            raise ValueError(
                f"migration_interval must be >= 1, "
                f"got {self.migration_interval}"
            )
        if self.n_migrants < 0:
            raise ValueError(
                f"n_migrants must be >= 0, got {self.n_migrants}"
            )


def _island_sizes(total: int, n_islands: int) -> list[int]:
    """Split a population size into near-equal island sizes (>= 2)."""
    base = max(total // n_islands, 2)
    sizes = [base] * n_islands
    for i in range(max(total - base * n_islands, 0)):
        sizes[i % n_islands] += 1
    return sizes


def evolve_islands(
    etc: np.ndarray,
    ready: np.ndarray,
    eligibility: np.ndarray,
    rng: np.random.Generator,
    config: GAConfig = GAConfig(),
    islands: IslandConfig = IslandConfig(),
    *,
    initial: np.ndarray | None = None,
    track_history: bool = False,
) -> GAResult:
    """Island-model counterpart of :func:`repro.core.ga.evolve`.

    The total population (``config.population_size``) is split across
    islands; seeds (if any) are scattered round-robin, and seeds beyond
    the islands' combined size are dropped with a
    :class:`RuntimeWarning`.  Returns the globally best assignment
    with the same :class:`GAResult` contract.

    All islands live as row slices of two contiguous
    ``(sum(sizes), B)`` ping-pong buffers, and every generation makes
    **one** batched fitness call over all islands.  Each island still
    draws from its own spawned RNG, and the fitness bins are keyed by
    row, so an island evolves exactly as it would alone.
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

    n = islands.n_islands
    sizes = _island_sizes(config.population_size, n)
    rngs = spawn(rng, n)
    # Round-robin scatter of the first sum(sizes) seeds: island i gets
    # seeds i, i+n, i+2n, ..., which are never more than size_i.
    seed_pool = intake_seeds(initial, b, sum(sizes))

    pops: list[np.ndarray] = []
    for i, (size, irng) in enumerate(zip(sizes, rngs)):
        pop = random_population(sites, size, irng)
        if seed_pool is not None:
            mine = seed_pool[i::n]
            if mine.size:
                pop[: mine.shape[0]] = repair_population(mine, sites, irng)
        pops.append(pop)

    bounds = np.concatenate(([0], np.cumsum(sizes)))
    cur = np.ascontiguousarray(np.vstack(pops), dtype=np.int64)
    nxt = np.empty_like(cur)

    def split(arr):
        return [arr[bounds[i] : bounds[i + 1]] for i in range(n)]

    pops, fits = split(cur), split(ws.evaluate(cur))

    def global_best():
        idx = [int(np.argmin(f)) for f in fits]
        vals = [float(f[i]) for f, i in zip(fits, idx)]
        k = int(np.argmin(vals))
        return pops[k][idx[k]].copy(), vals[k]

    best, best_fit = global_best()
    initial_fit = best_fit
    history = [best_fit] if track_history else None

    gens_run = 0
    stall = 0
    for gen in range(1, config.generations + 1):
        gens_run += 1
        snapshots = []
        for i, irng in enumerate(rngs):
            pop, fit = pops[i], fits[i]
            n_elite = min(config.n_elite, len(pop) - 1)
            elite_idx = np.argsort(fit)[:n_elite]
            snapshots.append((pop[elite_idx], fit[elite_idx]))  # copies
            out = nxt[bounds[i] : bounds[i + 1]]
            roulette_select_into(pop, fit, irng, out=out)
            crossover_inplace(out, config.crossover_prob, irng)
            mutate_inplace(out, sites, config.mutation_prob, irng)
        cur, nxt = nxt, cur
        pops, fits = split(cur), split(ws.evaluate(cur))
        for i, (elites, elite_fit) in enumerate(snapshots):
            elitism_inplace(pops[i], fits[i], elites, elite_fit)

        if (
            n > 1
            and islands.n_migrants > 0
            and gen % islands.migration_interval == 0
        ):
            _migrate_ring(pops, fits, islands.n_migrants)

        cand, cand_fit = global_best()
        if cand_fit < best_fit:
            best, best_fit = cand, cand_fit
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


def _migrate_ring(pops, fits, n_migrants: int) -> None:
    """Copy each island's best into its ring successor's worst slots."""
    n = len(pops)
    # Snapshot the migrants first so the exchange is simultaneous.
    outbound = []
    for pop, fit in zip(pops, fits):
        k = min(n_migrants, len(pop))
        idx = np.argsort(fit)[:k]
        outbound.append((pop[idx].copy(), fit[idx].copy()))
    for i in range(n):
        dst = (i + 1) % n
        migrants, mig_fit = outbound[i]
        k = min(len(migrants), len(pops[dst]))
        if k == 0:
            continue
        worst = np.argsort(fits[dst])[-k:]
        pops[dst][worst] = migrants[:k]
        fits[dst][worst] = mig_fit[:k]


class IslandSTGAScheduler(STGAScheduler):
    """STGA whose optimiser is the island-model GA."""

    algorithm = "Island-STGA"

    def __init__(self, *args, islands: IslandConfig | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.islands = islands if islands is not None else IslandConfig()

    @property
    def name(self) -> str:
        return f"Island-STGA(x{self.islands.n_islands})"

    def _run_ga(self, etc, ready, eligibility, *, initial) -> GAResult:
        return evolve_islands(
            etc,
            ready,
            eligibility,
            self.rng,
            self.config,
            self.islands,
            initial=initial,
            track_history=self.track_history,
        )
