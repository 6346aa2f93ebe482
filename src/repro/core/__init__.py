"""The paper's primary contribution: the Space-Time Genetic Algorithm
(STGA) and its building blocks — chromosome encoding, vectorised
fitness, genetic operators, Eq. 2 similarity and the LRU history
lookup table — plus the conventional GA baseline."""

from repro.core.chromosome import (
    EligibleSites,
    random_population,
    repair_population,
)
from repro.core.fitness import (
    assignment_makespan,
    expected_etc,
    population_fitness,
    population_makespan,
)
from repro.core.ga import GAConfig, GAResult, evolve
from repro.core.history import HistoryEntry, HistoryTable
from repro.core.operators import selection_weights
from repro.core.similarity import (
    batch_similarity,
    population_similarity,
    vector_similarity,
)
from repro.core.stga import (
    RecordingScheduler,
    StandardGAScheduler,
    STGAScheduler,
    warmup_history,
)

__all__ = [
    "EligibleSites",
    "random_population",
    "repair_population",
    "population_makespan",
    "population_fitness",
    "assignment_makespan",
    "expected_etc",
    "GAConfig",
    "GAResult",
    "evolve",
    "HistoryEntry",
    "HistoryTable",
    "selection_weights",
    "batch_similarity",
    "population_similarity",
    "vector_similarity",
    "STGAScheduler",
    "StandardGAScheduler",
    "RecordingScheduler",
    "warmup_history",
]
