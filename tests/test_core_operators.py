"""Tests for repro.core.operators.

The behavioural tests pin the copying oracle operators of
``ga_oracle.py``; ``test_backend_parity.py`` shows the shipped kernels
equal them draw for draw, and the boundary tests below diff both.
"""

import numpy as np
import pytest
from ga_oracle import (
    apply_elitism,
    mutate,
    roulette_select,
    single_point_crossover,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chromosome import EligibleSites
from repro.core.operators import (
    crossover_inplace,
    mutate_inplace,
    roulette_select_into,
    selection_weights,
)


class TestSelectionWeights:
    def test_better_fitness_higher_weight(self):
        w = selection_weights(np.array([1.0, 2.0, 3.0]))
        assert w[0] > w[1] > w[2]
        assert w.sum() == pytest.approx(1.0)

    def test_worst_keeps_nonzero_weight(self):
        w = selection_weights(np.array([1.0, 100.0]))
        assert w[1] > 0

    def test_uniform_when_all_equal(self):
        w = selection_weights(np.full(4, 7.0))
        np.testing.assert_allclose(w, 0.25)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            selection_weights(np.array([]))
        with pytest.raises(ValueError):
            selection_weights(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            selection_weights(np.ones((2, 2)))

    @given(
        fits=st.lists(
            st.floats(1.0, 1e6, allow_nan=False), min_size=1, max_size=30
        )
    )
    def test_is_distribution_property(self, fits):
        w = selection_weights(np.array(fits))
        assert (w >= 0).all()
        assert w.sum() == pytest.approx(1.0)


class TestRouletteSelect:
    def test_shape_preserved(self, rng):
        pop = np.arange(12).reshape(6, 2)
        out = roulette_select(pop, np.arange(1.0, 7.0), rng)
        assert out.shape == pop.shape

    def test_strong_bias_to_best(self, rng):
        pop = np.array([[0], [1]])
        fit = np.array([1.0, 1000.0])
        out = roulette_select(np.repeat(pop, 1, axis=0), fit, rng)
        # With extreme fitness gap the best should dominate selection.
        picks = [roulette_select(pop, fit, rng)[:, 0] for _ in range(50)]
        frac_best = np.mean([np.mean(p == 0) for p in picks])
        assert frac_best > 0.8


class TestCrossover:
    def test_prob_zero_identity(self, rng):
        pop = np.arange(20).reshape(4, 5)
        out = single_point_crossover(pop, 0.0, rng)
        np.testing.assert_array_equal(out, pop)

    def test_gene_multiset_preserved_per_position(self, rng):
        """Crossover only exchanges genes between chromosomes at the
        same position — the per-column multiset is invariant."""
        pop = rng.integers(0, 5, size=(10, 8))
        out = single_point_crossover(pop, 1.0, rng)
        for col in range(8):
            assert sorted(out[:, col]) == sorted(pop[:, col])

    def test_pairs_swap_tails(self):
        rng = np.random.default_rng(0)
        pop = np.array([[1, 1, 1, 1], [2, 2, 2, 2]])
        out = single_point_crossover(pop, 1.0, rng)
        # some prefix stays, some suffix swapped
        assert (out[0] != pop[0]).any()
        joined = np.sort(np.concatenate([out[0], out[1]]))
        np.testing.assert_array_equal(joined, np.sort(pop.ravel()))

    def test_single_gene_chromosomes_unchanged(self, rng):
        pop = np.array([[1], [2]])
        out = single_point_crossover(pop, 1.0, rng)
        np.testing.assert_array_equal(np.sort(out.ravel()), [1, 2])

    def test_input_not_mutated(self, rng):
        pop = np.zeros((4, 4), dtype=int)
        before = pop.copy()
        single_point_crossover(pop, 1.0, rng)
        np.testing.assert_array_equal(pop, before)


class TestMutate:
    def _sites(self, b=6, s=4):
        return EligibleSites.from_mask(np.ones((b, s), dtype=bool))

    def test_prob_zero_identity(self, rng):
        pop = np.zeros((5, 6), dtype=int)
        out = mutate(pop, self._sites(), 0.0, rng)
        np.testing.assert_array_equal(out, pop)

    def test_prob_one_stays_eligible(self, rng):
        mask = np.zeros((6, 4), dtype=bool)
        mask[:, 2] = True  # only site 2 eligible
        sites = EligibleSites.from_mask(mask)
        pop = np.zeros((5, 6), dtype=int)
        out = mutate(pop, sites, 1.0, rng)
        assert (out == 2).all()

    def test_mutation_rate_roughly_respected(self, rng):
        pop = np.zeros((100, 50), dtype=int)
        out = mutate(pop, self._sites(50, 4), 0.1, rng)
        changed = (out != pop).mean()
        # genes resample uniformly over 4 sites: expect ~0.1*3/4
        assert 0.04 < changed < 0.12

    def test_input_not_mutated(self, rng):
        pop = np.zeros((3, 6), dtype=int)
        mutate(pop, self._sites(), 1.0, rng)
        assert (pop == 0).all()


class TestElitism:
    def test_elites_preserved(self):
        children = np.array([[0], [1], [2]])
        child_fit = np.array([5.0, 6.0, 7.0])
        elites = np.array([[9]])
        elite_fit = np.array([1.0])
        pop, fit = apply_elitism(children, child_fit, elites, elite_fit)
        assert 9 in pop[:, 0]
        assert fit.min() == 1.0

    def test_worst_replaced(self):
        children = np.array([[0], [1], [2]])
        child_fit = np.array([5.0, 9.0, 7.0])
        pop, fit = apply_elitism(
            children, child_fit, np.array([[8]]), np.array([1.0])
        )
        assert 1 not in pop[:, 0]  # the fitness-9 child was evicted

    def test_zero_elites_noop(self):
        children = np.array([[0]])
        child_fit = np.array([5.0])
        pop, fit = apply_elitism(
            children, child_fit, np.empty((0, 1), int), np.empty(0)
        )
        np.testing.assert_array_equal(pop, children)

    def test_inputs_not_mutated(self):
        children = np.array([[0], [1]])
        child_fit = np.array([5.0, 6.0])
        apply_elitism(children, child_fit, np.array([[7]]), np.array([1.0]))
        np.testing.assert_array_equal(children, [[0], [1]])
        np.testing.assert_array_equal(child_fit, [5.0, 6.0])


class TestBoundaryRates:
    """rate=0 and rate=1 boundaries, pinned for the kernels and the
    oracle alike."""

    def _sites(self, b=7, s=4, seed=3):
        rng = np.random.default_rng(seed)
        mask = rng.random((b, s)) < 0.6
        mask[np.arange(b), rng.integers(0, s, size=b)] = True
        return EligibleSites.from_mask(mask)

    def test_crossover_rate_zero_identity_both_backends(self, rng):
        pop = rng.integers(0, 4, size=(10, 6))
        ref = single_point_crossover(pop, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(ref, pop)
        out = crossover_inplace(pop.copy(), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, pop)

    def test_crossover_rate_one_crosses_every_pair(self, rng):
        for attempt in range(5):
            g = np.random.default_rng(attempt)
            pop = np.vstack([np.zeros((5, 6), dtype=int),
                             np.full((5, 6), 3, dtype=int)])
            g.shuffle(pop)
            out = single_point_crossover(pop, 1.0, np.random.default_rng(attempt))
            kernel = crossover_inplace(
                pop.copy(), 1.0, np.random.default_rng(attempt)
            )
            np.testing.assert_array_equal(out, kernel)
            # every heterogeneous pair must actually exchange a tail:
            # the crossover point is in [1, B), so the last gene always
            # swaps when the parents differ there
            for a, b, oa, ob in zip(pop[0::2], pop[1::2], out[0::2], out[1::2]):
                if a[-1] != b[-1]:
                    assert oa[-1] == b[-1] and ob[-1] == a[-1]

    def test_mutation_rate_zero_identity_and_no_rng_consumption(self):
        sites = self._sites()
        g0 = np.random.default_rng(0)
        pop = sites.sample(g0, (9, 7))
        for fn in (
            lambda p, g: mutate(p, sites, 0.0, g),
            lambda p, g: mutate_inplace(p, sites, 0.0, g),
        ):
            g = np.random.default_rng(42)
            out = fn(pop.copy() if fn is not mutate else pop, g)
            np.testing.assert_array_equal(out, pop)
            # prob<=0 short-circuits before any draw — the stream is
            # untouched, so this equals a fresh generator's first draw
            assert g.random() == np.random.default_rng(42).random()

    def test_mutation_rate_one_touches_every_gene(self):
        """rate=1: every gene is redrawn from its eligibility row (the
        redraw may coincide with the old value, so assert on the RNG
        mask semantics: all genes remain eligible and kernel and oracle
        agree bit-for-bit, including with single-site rows where the
        'redraw' is forced to the same value)."""
        sites = self._sites(b=6, s=5, seed=9)
        g = np.random.default_rng(1)
        pop = sites.sample(g, (8, 6))
        ref = mutate(pop, sites, 1.0, np.random.default_rng(7))
        out = mutate_inplace(pop.copy(), sites, 1.0, np.random.default_rng(7))
        np.testing.assert_array_equal(ref, out)
        assert sites.allowed(ref).all()
        # with >=2 eligible sites everywhere and rate=1, at least one
        # gene changes with overwhelming probability across 8x6 genes
        assert (ref != pop).any()

    def test_selection_rate_boundaries_not_applicable_note(self):
        """Selection has no rate parameter; uniform fitness gives a
        uniform distribution — kernel and oracle must then sample the
        same rows from the same stream."""
        pop = np.arange(24, dtype=np.int64).reshape(8, 3) % 4
        fit = np.full(8, 5.0)
        ref = roulette_select(pop, fit, np.random.default_rng(11))
        out = np.empty_like(pop)
        roulette_select_into(pop, fit, np.random.default_rng(11), out)
        np.testing.assert_array_equal(ref, out)
