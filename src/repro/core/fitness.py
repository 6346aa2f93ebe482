"""Vectorised fitness evaluation for the GA schedulers.

Fitness of a chromosome is the *batch makespan* it induces: with site
ready times ``r_s`` and execution-time matrix ``ETC``, the completion
of site s is ``r_s + sum of ETC[j, s] over jobs assigned to s`` and the
makespan is the maximum over sites that received at least one job.
(The sum is order-independent, so the GA optimises exactly what the
engine will realise regardless of dispatch order.)

The whole population is evaluated with a single ``bincount`` — no
Python-level loop over chromosomes — in a reusable
:class:`FitnessWorkspace`, which is what makes 100 generations x 200
chromosomes per scheduling event affordable.

``expected_etc`` implements the optional *risk-penalised* fitness
(ablation): execution times are inflated by the expected rework cost
``P(fail) * penalty``, discouraging risky placements without banning
them.
"""

from __future__ import annotations

import numpy as np

from repro.core.chromosome import check_population
from repro.grid.security import DEFAULT_LAMBDA, failure_probability

__all__ = [
    "population_makespan",
    "population_fitness",
    "FitnessWorkspace",
    "assignment_makespan",
    "expected_etc",
]


def population_makespan(
    population: np.ndarray, etc: np.ndarray, ready: np.ndarray
) -> np.ndarray:
    """Makespan of every chromosome; shape (P,).

    Parameters
    ----------
    population:
        Integer (P, B) site assignments.
    etc:
        (B, S) execution times.
    ready:
        (S,) site ready times (already clipped to >= now).

    This delegates to :func:`population_fitness` with
    ``flow_weight=0`` — the two used to carry separate copies of the
    bincount/occupied/makespan block, and a fix landing in only one of
    them is exactly the bug class the delegation removes.
    """
    return population_fitness(population, etc, ready, flow_weight=0.0)


def population_fitness(
    population: np.ndarray,
    etc: np.ndarray,
    ready: np.ndarray,
    *,
    flow_weight: float = 0.0,
) -> np.ndarray:
    """Makespan plus an optional aggregate-flow penalty; shape (P,).

    With ``flow_weight = 0`` this is exactly
    :func:`population_makespan`.  A positive weight adds
    ``flow_weight * mean_j (ready[site_j] + etc[j, site_j])`` — each
    job's completion time were it dispatched directly after the site's
    current backlog (intra-batch queueing ignored).  This is the same
    per-job quantity Min-Min greedily minimises; as a secondary term
    it steers the GA away from parking jobs on backlogged or slow
    sites when that does not pay off in makespan, improving average
    response time.  It is an implementation knob: the paper's fitness
    wording ("the completion time of the schedule") does not pin the
    tie-breaking down, and 0 reproduces the literal makespan
    objective.

    This is the validating entry point: it checks the population
    against the shapes once, then evaluates it with a one-shot
    :class:`FitnessWorkspace` — the same code the GA loop runs.
    """
    pop = np.asarray(population)
    check_population(pop, context="population_fitness")
    ws = FitnessWorkspace(etc, ready, flow_weight=flow_weight)
    if pop.shape[1] != ws.n_jobs:
        raise ValueError(
            f"incompatible shapes: pop {pop.shape}, etc {ws.etc.shape}, "
            f"ready {ws.ready.shape}"
        )
    check_population(pop, ws.n_sites, context="population_fitness")
    return ws.evaluate(pop)


class FitnessWorkspace:
    """Preallocated fitness evaluator for the GA's hot loop.

    A scheduling decision evaluates thousands of populations against
    the **same** ``etc``/``ready``/``flow_weight``.  The workspace
    hoists everything batch-constant (the flattened ``etc``, the
    per-job gather offsets, the occupancy shortcut below) out of the
    loop and reuses its scratch buffers across calls of one population
    size.  The whole population is evaluated with a single weighted
    ``bincount`` over per-(chromosome, site) bins — no Python-level
    loop over chromosomes.  Bins are keyed by row, so a population
    that stacks chunks of an enumerated search space evaluates each
    row exactly as it would alone.

    The occupancy shortcut: when every execution time is positive
    (checked once at construction), a site is occupied iff its summed
    load is positive, so no counting ``bincount`` is needed.  With any
    zero entries in ``etc`` the workspace falls back to counting.

    ``evaluate`` assumes a validated integer population with genes in
    ``[0, n_sites)`` — the GA loop guarantees this because every gene
    comes from an :class:`~repro.core.chromosome.EligibleSites` lookup;
    external entry points validate via :func:`population_fitness`.
    """

    def __init__(
        self,
        etc: np.ndarray,
        ready: np.ndarray,
        *,
        flow_weight: float = 0.0,
    ) -> None:
        if flow_weight < 0:
            raise ValueError(f"flow_weight must be non-negative, got {flow_weight}")
        self.etc = np.ascontiguousarray(etc, dtype=float)
        self.ready = np.asarray(ready, dtype=float)
        self.flow_weight = float(flow_weight)
        if self.etc.ndim != 2 or self.ready.shape != (self.etc.shape[1],):
            raise ValueError(
                f"incompatible shapes: etc {self.etc.shape}, "
                f"ready {self.ready.shape}"
            )
        self.n_jobs, self.n_sites = self.etc.shape
        self._etc_flat = self.etc.ravel()
        #: start of job j's row in the flattened etc
        self._job_offsets = np.arange(self.n_jobs, dtype=np.int64) * self.n_sites
        self._all_positive = bool((self.etc > 0).all())
        #: etc[j, s] + ready[s] flattened: the flow term's per-job
        #: completion time, gathered like the weights
        self._flow_flat = (
            (self.etc + self.ready[None, :]).ravel() if self.flow_weight else None
        )
        self._p = -1  # scratch buffers are sized on first evaluate

    def _ensure_buffers(self, p: int) -> None:
        if p == self._p:
            return
        self._p = p
        b = self.n_jobs
        self._idx = np.empty((p, b), dtype=np.int64)
        self._weights = np.empty((p, b), dtype=float)
        self._rows = np.arange(p, dtype=np.int64)[:, None]
        self._empty_sites = np.empty((self.n_sites, p), dtype=bool)
        self._per_job = np.empty((p, b), dtype=float) if self.flow_weight else None

    def evaluate(self, population: np.ndarray) -> np.ndarray:
        """Fitness of every chromosome; shape (P,).  Allocates only the
        returned array and the ``bincount`` result."""
        pop = population
        p, s = pop.shape[0], self.n_sites
        self._ensure_buffers(p)
        idx, weights = self._idx, self._weights
        # weights[i, j] = etc[j, pop[i, j]], via the flattened etc
        np.add(pop, self._job_offsets, out=idx)
        np.take(self._etc_flat, idx, out=weights)
        if self.flow_weight:
            np.take(self._flow_flat, idx, out=self._per_job)
        # site-major (site * P + row) bins, reusing the idx buffer, so
        # the makespan max below reduces over the long leading axis
        np.multiply(pop, p, out=idx)
        idx += self._rows
        flat = idx.ravel()
        loads = np.bincount(flat, weights=weights.ravel(), minlength=p * s)
        loads = loads.reshape(s, p)
        empty = self._empty_sites
        if self._all_positive:
            # all etc > 0 → a site's summed load is 0 iff no job hit it,
            # sparing the counting bincount
            np.less_equal(loads, 0.0, out=empty)
        else:
            counts = np.bincount(flat, minlength=p * s).reshape(s, p)
            np.equal(counts, 0, out=empty)
        loads += self.ready[:, None]  # loads is now the completion matrix
        np.copyto(loads, -np.inf, where=empty)
        makespan = loads.max(axis=0)
        if self.flow_weight == 0.0:
            return makespan
        # exactly what per_job.mean(axis=1) computes, minus its overhead
        mean_flow = np.add.reduce(self._per_job, axis=1)
        mean_flow /= self.n_jobs
        return makespan + self.flow_weight * mean_flow


def assignment_makespan(
    assignment: np.ndarray, etc: np.ndarray, ready: np.ndarray
) -> float:
    """Makespan of a single assignment vector (convenience wrapper)."""
    a = np.asarray(assignment, dtype=np.int64)
    return float(population_makespan(a[None, :], etc, ready)[0])


def expected_etc(
    etc: np.ndarray,
    security_demands: np.ndarray,
    security_levels: np.ndarray,
    *,
    lam: float = DEFAULT_LAMBDA,
    penalty: float = 1.0,
) -> np.ndarray:
    """Risk-penalised execution times.

    Each entry is inflated to ``etc * (1 + penalty * P(fail))``: with
    ``penalty = 1`` a placement that fails with probability p is
    charged p extra copies of its execution time — a first-order model
    of the fail-stop restart cost.
    """
    if penalty < 0:
        raise ValueError(f"penalty must be non-negative, got {penalty}")
    pfail = failure_probability(
        np.asarray(security_demands, dtype=float)[:, None],
        np.asarray(security_levels, dtype=float)[None, :],
        lam=lam,
    )
    return np.asarray(etc, dtype=float) * (1.0 + penalty * pfail)
