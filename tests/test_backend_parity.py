"""Differential suite: the shipped GA step and event queue against the
test-local oracle in ``ga_oracle.py``.

The GA has one implementation — fused in-place kernels plus a reusable
:class:`FitnessWorkspace` — and the engine one heap event queue.  This
suite is their mechanical check:

* per kernel: the same output as the copying oracle operator **and**
  the same RNG-stream consumption (same draws, same order, same
  post-call generator state), plus eligibility/permutation validity;
* :class:`FitnessWorkspace` is bit-exact against a naive
  per-chromosome fitness, including the zero-etc counting fallback;
* :func:`skip_generation_draws` leaves the generator exactly where
  the kernels' generation step does;
* :class:`FitnessWorkspace` scores a chromosome bit-identically alone
  or stacked in a larger population (the certified-optimum shortcut
  rests on it);
* the whole generational loop (:func:`evolve`) is bit-identical to
  the same loop composed from oracle operators,
  including seeded runs, stall exits and runs the certified-optimum
  fast-forward cuts short;
* the heap queue pops in exactly the order of a sorted-list oracle
  under arbitrary push/pop interleavings;
* randomized end-to-end scenarios (random grids, job streams, failure
  laws, history capacities) reproduce bit for bit from their seed.
"""

import itertools

import numpy as np
import pytest
from ga_oracle import (
    SortedEventQueue,
    apply_elitism,
    mutate,
    naive_fitness,
    oracle_evolve,
    roulette_select,
    single_point_crossover,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ga as ga_module
from repro.core.chromosome import EligibleSites, check_population
from repro.core.fitness import FitnessWorkspace, population_fitness
from repro.core.ga import GAConfig, evolve
from repro.core.operators import (
    crossover_inplace,
    elitism_inplace,
    mutate_inplace,
    roulette_select_into,
    skip_generation_draws,
)
from repro.experiments.config import RunSettings
from repro.experiments.runner import run_lineup
from repro.grid.engine import GridSimulator
from repro.grid.events import Event, EventKind, EventQueue
from repro.grid.job import Job
from repro.grid.site import Grid, Site
from repro.heuristics.minmin import MinMinScheduler
from repro.workloads.base import Scenario

# ----------------------------------------------------------------------
# randomized scenario generator

N_SCENARIOS = 20


def random_scenario(seed: int) -> Scenario:
    """A random (grid, job stream) pair: random site counts/speeds/
    security levels and job counts/arrivals/workloads/demands."""
    rng = np.random.default_rng(10_000 + seed)
    n_sites = int(rng.integers(2, 8))
    sites = tuple(
        Site(
            site_id=i,
            speed=float(rng.uniform(5.0, 25.0)),
            security_level=float(rng.uniform(0.4, 1.0)),
        )
        for i in range(n_sites)
    )
    n_jobs = int(rng.integers(15, 35))
    arrivals = np.sort(rng.uniform(0.0, 3000.0, size=n_jobs))
    jobs = tuple(
        Job(
            job_id=j,
            arrival=float(arrivals[j]),
            workload=float(rng.uniform(100.0, 5000.0)),
            security_demand=float(rng.uniform(0.6, 0.9)),
        )
        for j in range(n_jobs)
    )
    return Scenario(name=f"parity-{seed}", grid=Grid(sites), jobs=jobs)


def scenario_settings(seed: int) -> RunSettings:
    """Random-but-seeded run settings (failure law, batch interval)."""
    rng = np.random.default_rng(20_000 + seed)
    return RunSettings(
        seed=seed,
        batch_interval=float(rng.choice([300.0, 800.0, 2000.0])),
        lam=float(rng.choice([1.0, 3.0])),
        failure_point=str(rng.choice(["uniform", "end"])),
        ga=GAConfig(population_size=12, generations=6),
    )


def assert_reports_identical(first, second):
    """Bit-identical PerformanceReports modulo wall-clock timing."""
    assert len(first) == len(second)
    for a, b in zip(first, second):
        da, db = a.to_dict(), b.to_dict()
        da.pop("scheduler_seconds")
        db.pop("scheduler_seconds")
        assert da == db, f"{a.scheduler}: {da} != {db}"


def assert_sim_results_identical(a, b):
    """Bit-identical SimulationResult payloads (timing excluded)."""
    assert a.makespan == b.makespan
    assert a.n_batches == b.n_batches
    assert a.n_forced == b.n_forced
    assert a.batch_sizes == b.batch_sizes
    np.testing.assert_array_equal(a.busy_time, b.busy_time)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.job == rb.job
        assert ra.state == rb.state
        assert ra.attempts == rb.attempts
        assert ra.first_start == rb.first_start
        assert ra.completion == rb.completion
        assert ra.took_risk == rb.took_risk
        assert ra.ever_failed == rb.ever_failed
        assert ra.secure_only == rb.secure_only
        assert ra.forced == rb.forced
        assert ra.sites_visited == rb.sites_visited


# ----------------------------------------------------------------------
# end-to-end differential tests


class TestEndToEndParity:
    @pytest.mark.parametrize("seed", range(N_SCENARIOS))
    def test_run_lineup_bit_identical(self, seed):
        """A whole lineup run — heuristics, engine, STGA with its
        history table — is a pure function of its seed: a second run
        reproduces every report bit for bit (no state leaks between
        runs through reused buffers or caches)."""
        scenario = random_scenario(seed)
        settings = scenario_settings(seed)
        # vary the history capacity across scenarios too
        stga_ref = "stga" if seed % 2 == 0 else "stga?capacity=10"
        lineup = ("min-min-risky", "sufferage-secure", stga_ref)

        first = run_lineup(scenario, None, settings, lineup=lineup)
        second = run_lineup(scenario, None, settings, lineup=lineup)
        assert_reports_identical(first, second)

    @pytest.mark.parametrize("seed", [1, 4, 9, 13])
    def test_simulation_result_payloads_identical(self, seed):
        """GridSimulator reproduces every field of its SimulationResult,
        including per-job records and failure/resubmission
        bookkeeping, from the seed alone."""
        scenario = random_scenario(seed)
        results = []
        for _ in range(2):
            sim = GridSimulator(
                scenario.grid,
                MinMinScheduler("risky"),
                batch_interval=500.0,
                lam=1.0,  # failure-heavy: exercises secure-only resubmits
                rng=seed,
            )
            results.append(sim.run(scenario.jobs))
        assert_sim_results_identical(results[0], results[1])
        assert any(r.ever_failed for r in results[0].records), (
            "scenario produced no failures — the secure-only path "
            "went untested"
        )


# ----------------------------------------------------------------------
# GA-level differential tests


def random_problem(seed, with_zero_etc=False):
    rng = np.random.default_rng(seed)
    b, s = int(rng.integers(1, 30)), int(rng.integers(2, 12))
    etc = rng.uniform(0.5, 30.0, size=(b, s))
    if with_zero_etc:
        etc[rng.random((b, s)) < 0.1] = 0.0
    ready = rng.uniform(0.0, 10.0, size=s)
    elig = rng.random((b, s)) < 0.7
    elig[np.arange(b), rng.integers(0, s, size=b)] = True
    return etc, ready, elig


class TestEvolveParity:
    """The fused loops against the same loop built from oracle parts."""

    @pytest.mark.parametrize("seed", range(10))
    def test_evolve_bit_identical(self, seed):
        etc, ready, elig = random_problem(seed)
        rng = np.random.default_rng(seed)
        cfg = GAConfig(
            population_size=int(rng.integers(4, 40)),
            generations=int(rng.integers(0, 25)),
            n_elite=int(rng.integers(0, 3)),
            flow_weight=float(rng.choice([0.0, 0.25])),
        )
        a = evolve(etc, ready, elig, np.random.default_rng(seed), cfg,
                   track_history=True)
        b = oracle_evolve(etc, ready, elig, np.random.default_rng(seed), cfg)
        np.testing.assert_array_equal(a.best, b.best)
        assert a.best_fitness == b.best_fitness
        assert a.initial_fitness == b.initial_fitness
        assert a.generations_run == b.generations_run
        np.testing.assert_array_equal(a.history, b.history)

    def test_rng_stream_position_identical_after_evolve(self):
        """evolve must leave the shared generator where the oracle loop
        does — otherwise everything downstream diverges."""
        etc, ready, elig = random_problem(5)
        cfg = GAConfig(population_size=20, generations=10)
        g1, g2 = np.random.default_rng(17), np.random.default_rng(17)
        evolve(etc, ready, elig, g1, cfg)
        oracle_evolve(etc, ready, elig, g2, cfg)
        np.testing.assert_array_equal(g1.random(8), g2.random(8))


def enumerable_problem(seed, with_zero_etc=False):
    """A problem small enough to enumerate: B <= 3 genes over <= 3
    eligible sites each, so at most 27 chromosomes."""
    rng = np.random.default_rng(seed)
    b, s = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    etc = rng.uniform(0.5, 30.0, size=(b, s))
    if with_zero_etc:
        etc[rng.random((b, s)) < 0.3] = 0.0
    ready = rng.uniform(0.0, 10.0, size=s)
    elig = rng.random((b, s)) < 0.6
    elig[:, 3:] = False
    elig[np.arange(b), rng.integers(0, min(s, 3), size=b)] = True
    return etc, ready, elig


def brute_force(etc, ready, elig, flow_weight):
    """Every eligible chromosome and its naive fitness."""
    space = np.array(
        list(itertools.product(*(np.flatnonzero(row) for row in elig))),
        dtype=np.int64,
    )
    return space, naive_fitness(space, etc, ready, flow_weight)


class TestCertifiedFastForward:
    """evolve against the oracle loop on enumerable problems, where the
    certified-optimum fast-forward may replace generations with their
    draws only: every GAResult field and the post-call generator state
    must match the loop that runs every generation in full."""

    @staticmethod
    def run_both(monkeypatch, etc, ready, elig, cfg, initial, seed):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return skip_generation_draws(*args, **kwargs)

        monkeypatch.setattr(ga_module, "skip_generation_draws", counting)
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        a = evolve(etc, ready, elig, g1, cfg, initial=initial,
                   track_history=True)
        b = oracle_evolve(etc, ready, elig, g2, cfg, initial=initial)
        np.testing.assert_array_equal(a.best, b.best)
        assert a.best_fitness == b.best_fitness
        assert a.initial_fitness == b.initial_fitness
        assert a.generations_run == b.generations_run
        np.testing.assert_array_equal(a.history, b.history)
        assert g1.bit_generator.state == g2.bit_generator.state
        return b, len(calls)

    @staticmethod
    def skipped_generations(result, optimum):
        """Generations the oracle ran after the optimum was in hand."""
        reached = np.flatnonzero(result.history == optimum)
        return result.generations_run - reached[0] if reached.size else 0

    @pytest.mark.parametrize("flow_weight", [0.0, 0.5])
    @pytest.mark.parametrize("stall", [None, 4])
    @pytest.mark.parametrize("zero_etc", [False, True])
    def test_seeded_optimum_fires_at_generation_zero(
        self, monkeypatch, flow_weight, stall, zero_etc
    ):
        etc, ready, elig = enumerable_problem(7, with_zero_etc=zero_etc)
        assert (etc == 0).any() == zero_etc
        space, fit = brute_force(etc, ready, elig, flow_weight)
        cfg = GAConfig(population_size=7, generations=12, n_elite=1,
                       stall_generations=stall, flow_weight=flow_weight)
        assert len(space) <= 7 * (stall or 12)
        result, n_skipped = self.run_both(
            monkeypatch, etc, ready, elig, cfg, space[[np.argmin(fit)]], 3
        )
        assert result.initial_fitness == fit.min()
        assert n_skipped == result.generations_run == (stall or 12)

    @pytest.mark.parametrize("flow_weight", [0.0, 0.5])
    @pytest.mark.parametrize("stall", [None, 7])
    @pytest.mark.parametrize("zero_etc", [False, True])
    def test_unseeded_runs_skip_exactly_the_generations_after_the_optimum(
        self, monkeypatch, flow_weight, stall, zero_etc
    ):
        """Across seeded random problems the optimum is reached at
        generation 0, mid-run and never; in each run the fast-forward
        replaces exactly the generations after it was reached."""
        seen = set()
        for seed in range(40):
            etc, ready, elig = enumerable_problem(seed, with_zero_etc=zero_etc)
            if zero_etc and (etc > 0).all():
                continue
            space, fit = brute_force(etc, ready, elig, flow_weight)
            cfg = GAConfig(population_size=4, generations=20, n_elite=1,
                           mutation_prob=0.05, stall_generations=stall,
                           flow_weight=flow_weight)
            assert len(space) <= 4 * (stall or 20)
            result, n_skipped = self.run_both(
                monkeypatch, etc, ready, elig, cfg, None, seed
            )
            expected = self.skipped_generations(result, fit.min())
            assert n_skipped == expected
            if result.initial_fitness == fit.min():
                seen.add("at start")
            elif expected:
                seen.add("mid-run")
            else:
                seen.add("never")
        assert seen == {"at start", "mid-run", "never"}

    def test_space_over_the_cap_is_not_enumerated(self, monkeypatch):
        """The cap is one stall window's rows: P x stall_generations."""
        etc, ready, elig = enumerable_problem(7)
        space, fit = brute_force(etc, ready, elig, 0.0)
        assert len(space) > 2
        cfg = GAConfig(population_size=2, generations=6, n_elite=1,
                       stall_generations=1)
        _, n_skipped = self.run_both(
            monkeypatch, etc, ready, elig, cfg, space[[np.argmin(fit)]], 3
        )
        assert n_skipped == 0


# ----------------------------------------------------------------------
# operator-level property tests


def make_sites(rng, b, s):
    elig = rng.random((b, s)) < 0.6
    elig[np.arange(b), rng.integers(0, s, size=b)] = True
    return EligibleSites.from_mask(elig), elig


class TestOperatorStreamEquivalence:
    """Each kernel: same output AND same RNG stream consumption as
    its oracle operator."""

    @pytest.mark.parametrize("seed", range(5))
    def test_roulette(self, seed):
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 6, size=(17, 9))
        fit = rng.uniform(1.0, 50.0, size=17)
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = roulette_select(pop, fit, g1)
        out = np.empty_like(pop)
        roulette_select_into(pop, fit, g2, out)
        np.testing.assert_array_equal(ref, out)
        assert g1.random() == g2.random()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
    def test_crossover(self, seed, prob):
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 6, size=(15, 8))  # odd P: trailing row
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = single_point_crossover(pop, prob, g1)
        out = crossover_inplace(pop.copy(), prob, g2)
        np.testing.assert_array_equal(ref, out)
        assert g1.random() == g2.random()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("prob", [0.0, 0.05, 1.0])
    def test_mutate(self, seed, prob):
        rng = np.random.default_rng(seed)
        sites, _ = make_sites(rng, 11, 7)
        pop = sites.sample(rng, (13, 11))
        g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = mutate(pop, sites, prob, g1)
        out = mutate_inplace(pop.copy(), sites, prob, g2)
        np.testing.assert_array_equal(ref, out)
        assert g1.random() == g2.random()

    @pytest.mark.parametrize("seed", range(3))
    def test_elitism(self, seed):
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 5, size=(12, 6))
        fit = rng.uniform(1, 9, size=12)
        elites = rng.integers(0, 5, size=(3, 6))
        efit = rng.uniform(0, 1, size=3)
        ref_pop, ref_fit = apply_elitism(pop, fit, elites, efit)
        fpop, ffit = elitism_inplace(pop.copy(), fit.copy(), elites, efit)
        np.testing.assert_array_equal(ref_pop, fpop)
        np.testing.assert_array_equal(ref_fit, ffit)


class TestDrawContract:
    """The draws-only step against the kernels' RNG contract."""

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(2, 9),
        b=st.integers(1, 5),
        crossover_prob=st.sampled_from([0.0, 0.5, 1.0]),
        mutation_prob=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_only_generations_match_kernel_steps(
        self, p, b, crossover_prob, mutation_prob, k, seed
    ):
        """After k draws-only generations the generator is exactly
        where k real selection/crossover/mutation steps leave it."""
        data = np.random.default_rng(seed + 1)  # not the stream under test
        sites, _ = make_sites(data, b, 4)
        pop = sites.sample(data, (p, b))
        buf = np.empty_like(pop)
        real, skip = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(k):
            fit = data.uniform(1.0, 9.0, size=p)
            roulette_select_into(pop, fit, real, buf)
            pop, buf = buf, pop
            crossover_inplace(pop, crossover_prob, real)
            mutate_inplace(pop, sites, mutation_prob, real)
            skip_generation_draws(skip, p, b, crossover_prob, mutation_prob)
        assert real.bit_generator.state == skip.bit_generator.state


class TestOperatorValidity:
    """Permutation/eligibility validity of the kernel outputs."""

    @pytest.mark.parametrize("seed", range(5))
    def test_roulette_rows_come_from_population(self, seed):
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 9, size=(20, 5))
        fit = rng.uniform(1, 10, size=20)
        out = np.empty_like(pop)
        roulette_select_into(pop, fit, np.random.default_rng(seed), out)
        rows = {tuple(r) for r in pop}
        assert all(tuple(r) in rows for r in out)

    @pytest.mark.parametrize("seed", range(5))
    def test_crossover_preserves_column_multisets(self, seed):
        """A tail swap permutes genes within a column pair — the
        per-column multiset of genes is invariant."""
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 9, size=(16, 6))
        before = np.sort(pop, axis=0)
        out = crossover_inplace(pop.copy(), 1.0, np.random.default_rng(seed))
        np.testing.assert_array_equal(np.sort(out, axis=0), before)

    @pytest.mark.parametrize("seed", range(5))
    def test_mutation_respects_eligibility(self, seed):
        rng = np.random.default_rng(seed)
        sites, elig = make_sites(rng, 9, 6)
        pop = sites.sample(rng, (14, 9))
        out = mutate_inplace(pop, sites, 0.9, np.random.default_rng(seed))
        assert sites.allowed(out).all()


class TestPopulationValidation:
    """Satellite: clear up-front errors instead of deep numpy blowups."""

    def test_float_population_rejected(self):
        with pytest.raises(TypeError, match="integer"):
            check_population(np.zeros((3, 2), dtype=float))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            check_population(np.array([[0, 5]]), 4)
        with pytest.raises(ValueError, match="outside"):
            check_population(np.array([[-1, 2]]), 4)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match=r"\(P, B\)"):
            check_population(np.zeros(3, dtype=int))

    def test_context_named_in_error(self):
        with pytest.raises(ValueError, match="initial seeds"):
            evolve(
                np.ones((3, 2)), np.zeros(2), np.ones((3, 2), bool),
                np.random.default_rng(0), GAConfig(population_size=4),
                initial=np.zeros((2, 3, 1), dtype=int),
            )

    def test_population_fitness_rejects_float_population(self):
        with pytest.raises(TypeError, match="integer"):
            population_fitness(
                np.zeros((2, 3)), np.ones((3, 2)), np.zeros(2)
            )

    def test_operators_reject_float_population(self):
        """The kernels trust their input; a float population is
        stopped where it enters the GA, before any operator runs."""
        with pytest.raises(TypeError, match="integer"):
            evolve(
                np.ones((3, 2)), np.zeros(2), np.ones((3, 2), bool),
                np.random.default_rng(0), GAConfig(population_size=4),
                initial=np.zeros((4, 3), dtype=float),
            )


# ----------------------------------------------------------------------
# fitness workspace


class TestFitnessWorkspaceParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("flow_weight", [0.0, 0.4])
    def test_bit_identical_to_population_fitness(self, seed, flow_weight):
        """Bit-exact against the naive per-chromosome oracle, and
        population_fitness (the validating entry) agrees too."""
        etc, ready, elig = random_problem(200 + seed)
        rng = np.random.default_rng(seed)
        sites = EligibleSites.from_mask(elig)
        ws = FitnessWorkspace(etc, ready, flow_weight=flow_weight)
        for p in (1, 7, 24):
            pop = sites.sample(rng, (p, etc.shape[0]))
            expected = naive_fitness(pop, etc, ready, flow_weight)
            np.testing.assert_array_equal(ws.evaluate(pop), expected)
            np.testing.assert_array_equal(
                population_fitness(pop, etc, ready, flow_weight=flow_weight),
                expected,
            )

    def test_zero_etc_entries_use_counting_fallback(self):
        """With zero execution times 'load > 0' no longer detects
        occupancy; the workspace must fall back to counting."""
        etc, ready, _ = random_problem(300, with_zero_etc=True)
        assert (etc == 0).any()
        rng = np.random.default_rng(3)
        b, s = etc.shape
        pop = rng.integers(0, s, size=(11, b))
        ws = FitnessWorkspace(etc, ready)
        assert not ws._all_positive
        np.testing.assert_array_equal(
            ws.evaluate(pop), naive_fitness(pop, etc, ready)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 40),
        flow_weight=st.sampled_from([0.0, 0.3, 1.0]),
        zero_etc=st.booleans(),
    )
    def test_rows_score_alone_as_in_a_stack(self, seed, p, flow_weight, zero_etc):
        """Each chromosome's value is bit-equal evaluated alone or
        stacked in a larger population, flow term and counting
        fallback included — the certified optimum rests on this."""
        etc, ready, elig = random_problem(seed % 1000, with_zero_etc=zero_etc)
        sites = EligibleSites.from_mask(elig)
        pop = sites.sample(np.random.default_rng(seed), (p, etc.shape[0]))
        stacked = FitnessWorkspace(etc, ready, flow_weight=flow_weight)
        alone = FitnessWorkspace(etc, ready, flow_weight=flow_weight)
        whole = stacked.evaluate(pop)
        for i in range(p):
            assert alone.evaluate(pop[i : i + 1])[0] == whole[i]
        bigger = np.vstack([pop[::-1], pop])
        np.testing.assert_array_equal(stacked.evaluate(bigger)[p:], whole)

    def test_buffers_reused_across_calls(self):
        etc = np.ones((4, 3))
        ws = FitnessWorkspace(etc, np.zeros(3))
        pop = np.zeros((6, 4), dtype=np.int64)
        ws.evaluate(pop)
        buf = ws._weights
        ws.evaluate(pop)
        assert ws._weights is buf


# ----------------------------------------------------------------------
# event queue


def random_events(rng, n):
    kinds = [EventKind.COMPLETION, EventKind.ARRIVAL, EventKind.SCHEDULE]
    # coarse time grid: plenty of exact ties to exercise the
    # (time, kind, seq) tie-breaking
    return [
        Event(
            float(rng.integers(0, 6)),
            kinds[int(rng.integers(0, 3))],
            int(rng.integers(-1, 50)),
        )
        for _ in range(n)
    ]


class TestEventQueueParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_pop_order_identical_under_interleaving(self, seed):
        """Random push/pop interleavings (bulk preload, then trickle)
        pop in exactly the sorted-list oracle's order."""
        rng = np.random.default_rng(seed)
        ref, heap = SortedEventQueue(), EventQueue()
        for ev in random_events(rng, int(rng.integers(1, 40))):
            ref.push(ev)
            heap.push(ev)
        steps = int(rng.integers(10, 60))
        for _ in range(steps):
            assert len(ref) == len(heap)
            assert ref.peek_time() == heap.peek_time()
            if len(ref) and rng.random() < 0.6:
                assert ref.pop() == heap.pop()
            else:
                (ev,) = random_events(rng, 1)
                ref.push(ev)
                heap.push(ev)
        while len(ref):
            assert ref.pop() == heap.pop()
        assert not heap
        assert heap.peek_time() == float("inf")

    def test_empty_pop_raises_index_error(self):
        q = EventQueue()
        with pytest.raises(IndexError, match="empty"):
            q.pop()
        q.push(Event(1.0, EventKind.ARRIVAL, 0))
        q.pop()
        with pytest.raises(IndexError, match="empty"):
            q.pop()

    def test_invalid_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError, match="invalid event time"):
            q.push(Event(-1.0, EventKind.ARRIVAL, 0))
        with pytest.raises(ValueError, match="invalid event time"):
            q.push(Event(float("nan"), EventKind.ARRIVAL, 0))
