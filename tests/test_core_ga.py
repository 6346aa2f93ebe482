"""Tests for repro.core.ga — the generational loop."""

import numpy as np
import pytest

from repro.core.fitness import assignment_makespan
from repro.core.ga import GAConfig, evolve


def full_elig(b, s):
    return np.ones((b, s), dtype=bool)


class TestGAConfig:
    def test_paper_defaults(self):
        cfg = GAConfig()
        assert cfg.population_size == 200
        assert cfg.generations == 100
        assert cfg.crossover_prob == 0.8
        assert cfg.mutation_prob == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=1),
            dict(generations=-1),
            dict(crossover_prob=1.5),
            dict(mutation_prob=-0.1),
            dict(n_elite=200),  # == population size
            dict(stall_generations=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)


class TestEvolve:
    def _problem(self, seed=0, b=8, s=4):
        rng = np.random.default_rng(seed)
        etc = rng.uniform(1, 20, size=(b, s))
        ready = rng.uniform(0, 10, size=s)
        return etc, ready

    def test_finds_optimum_tiny_problem(self, rng):
        # 2 jobs x 2 sites: enumerable optimum.
        etc = np.array([[4.0, 8.0], [8.0, 4.0]])
        ready = np.zeros(2)
        res = evolve(
            etc,
            ready,
            full_elig(2, 2),
            rng,
            GAConfig(population_size=20, generations=30),
        )
        assert res.best_fitness == 4.0
        np.testing.assert_array_equal(res.best, [0, 1])

    def test_monotone_best_so_far(self, rng):
        etc, ready = self._problem()
        res = evolve(
            etc,
            ready,
            full_elig(8, 4),
            rng,
            GAConfig(population_size=30, generations=40),
            track_history=True,
        )
        assert (np.diff(res.history) <= 1e-12).all()
        assert res.history[-1] == res.best_fitness
        assert res.history[0] == res.initial_fitness

    def test_best_consistent_with_fitness(self, rng):
        etc, ready = self._problem(3)
        res = evolve(
            etc, ready, full_elig(8, 4), rng,
            GAConfig(population_size=20, generations=20),
        )
        assert assignment_makespan(res.best, etc, ready) == pytest.approx(
            res.best_fitness
        )

    def test_zero_generations_returns_initial_best(self, rng):
        etc, ready = self._problem(1)
        res = evolve(
            etc, ready, full_elig(8, 4), rng,
            GAConfig(population_size=10, generations=0),
        )
        assert res.generations_run == 0
        assert res.best_fitness == res.initial_fitness

    def test_respects_eligibility(self, rng):
        etc, ready = self._problem(2)
        elig = np.zeros((8, 4), dtype=bool)
        elig[:, 1] = True
        res = evolve(
            etc, ready, elig, rng,
            GAConfig(population_size=10, generations=10),
        )
        assert (res.best == 1).all()

    def test_seeds_improve_start(self, rng):
        """Seeding with a good solution lowers the initial fitness."""
        etc, ready = self._problem(5, b=12, s=4)
        cfg = GAConfig(population_size=30, generations=0)
        cold = evolve(etc, ready, full_elig(12, 4), np.random.default_rng(1), cfg)
        # seed = a strong solution found by a longer run
        strong = evolve(
            etc, ready, full_elig(12, 4), np.random.default_rng(2),
            GAConfig(population_size=60, generations=60),
        ).best
        warm = evolve(
            etc, ready, full_elig(12, 4), np.random.default_rng(1), cfg,
            initial=strong[None, :],
        )
        assert warm.initial_fitness <= cold.initial_fitness

    def test_bad_seed_shape_rejected(self, rng):
        etc, ready = self._problem()
        with pytest.raises(ValueError, match="genes"):
            evolve(
                etc, ready, full_elig(8, 4), rng,
                GAConfig(population_size=10, generations=1),
                initial=np.zeros((2, 5), dtype=int),
            )

    def test_seed_repair(self, rng):
        """Seeds violating eligibility are repaired, not rejected."""
        etc, ready = self._problem()
        elig = np.zeros((8, 4), dtype=bool)
        elig[:, 0] = True
        res = evolve(
            etc, ready, elig, rng,
            GAConfig(population_size=10, generations=2),
            initial=np.full((3, 8), 3),
        )
        assert (res.best == 0).all()

    def test_surplus_seeds_truncated_with_warning(self, rng):
        etc, ready = self._problem()
        seeds = np.zeros((50, 8), dtype=int)
        with pytest.warns(RuntimeWarning, match="surplus seeds are dropped"):
            res = evolve(
                etc, ready, full_elig(8, 4), rng,
                GAConfig(population_size=10, generations=1),
                initial=seeds,
            )
        assert res.best_fitness > 0  # ran without error

    def test_surplus_seeds_strict_raises(self, rng):
        etc, ready = self._problem()
        seeds = np.zeros((11, 8), dtype=int)
        with pytest.raises(ValueError, match="surplus seeds are dropped"):
            evolve(
                etc, ready, full_elig(8, 4), rng,
                GAConfig(population_size=10, generations=1),
                initial=seeds,
                strict_seeds=True,
            )

    def test_float_seeds_rejected_not_truncated(self, rng):
        """A float seed would be silently truncated to an integer site
        index by the eligibility repair; it must fail up front."""
        etc, ready = self._problem(b=4)
        with pytest.raises(TypeError, match="initial seeds.*integer"):
            evolve(
                etc, ready, full_elig(4, 4), rng,
                GAConfig(population_size=10, generations=1),
                initial=np.full((2, 4), 1.7),
            )

    def test_surplus_seeds_population_size_respected(self, rng):
        """The >population-size seed path still yields a valid result
        drawn from the truncated seed set (plus repair/evolution)."""
        etc, ready = self._problem()
        p = 6
        seeds = np.tile(np.arange(4) % 4, (20, 2))[:, :8] % 4
        with pytest.warns(RuntimeWarning):
            res = evolve(
                etc, ready, full_elig(8, 4), rng,
                GAConfig(population_size=p, generations=0, n_elite=0),
                initial=np.asarray(seeds, dtype=int),
            )
        assert res.best.shape == (8,)
        assert ((res.best >= 0) & (res.best < 4)).all()

    def test_exact_population_size_seeds_no_warning(self, rng):
        import warnings as _warnings

        etc, ready = self._problem()
        seeds = np.zeros((10, 8), dtype=int)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            evolve(
                etc, ready, full_elig(8, 4), rng,
                GAConfig(population_size=10, generations=1),
                initial=seeds,
            )

    def test_stall_early_stop(self, rng):
        etc = np.array([[1.0]])  # single job, single site: no progress
        res = evolve(
            etc, np.zeros(1),
            full_elig(1, 1),
            rng,
            GAConfig(
                population_size=5, generations=100, stall_generations=3,
                n_elite=1,
            ),
            track_history=True,
        )
        assert res.generations_run <= 5

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            evolve(np.empty((0, 2)), np.zeros(2), full_elig(0, 2), rng)

    def test_deterministic_given_rng(self):
        etc, ready = self._problem(9)
        a = evolve(
            etc, ready, full_elig(8, 4), np.random.default_rng(5),
            GAConfig(population_size=20, generations=15),
        )
        b = evolve(
            etc, ready, full_elig(8, 4), np.random.default_rng(5),
            GAConfig(population_size=20, generations=15),
        )
        np.testing.assert_array_equal(a.best, b.best)
        assert a.best_fitness == b.best_fitness

    def test_more_generations_no_worse(self):
        etc, ready = self._problem(11, b=15, s=5)
        short = evolve(
            etc, ready, full_elig(15, 5), np.random.default_rng(3),
            GAConfig(population_size=30, generations=5),
        )
        long = evolve(
            etc, ready, full_elig(15, 5), np.random.default_rng(3),
            GAConfig(population_size=30, generations=80),
        )
        assert long.best_fitness <= short.best_fitness
