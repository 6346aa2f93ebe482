"""Tests for repro.core.islands — the island-model GA."""

import numpy as np
import pytest

from repro.core.ga import GAConfig, evolve
from repro.core.islands import (
    IslandConfig,
    IslandSTGAScheduler,
    _island_sizes,
    evolve_islands,
)


def full_elig(b, s):
    return np.ones((b, s), dtype=bool)


class TestIslandConfig:
    def test_defaults(self):
        cfg = IslandConfig()
        assert cfg.n_islands == 4
        assert cfg.migration_interval == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_islands=0),
            dict(migration_interval=0),
            dict(n_migrants=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IslandConfig(**kwargs)


class TestIslandSizes:
    def test_even_split(self):
        assert _island_sizes(40, 4) == [10, 10, 10, 10]

    def test_remainder_distributed(self):
        assert _island_sizes(42, 4) == [11, 11, 10, 10]

    def test_minimum_two(self):
        assert all(s >= 2 for s in _island_sizes(3, 4))


class TestEvolveIslands:
    def _problem(self, seed=0, b=10, s=4):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(1, 20, size=(b, s)),
            rng.uniform(0, 10, size=s),
        )

    def test_finds_optimum_tiny(self, rng):
        etc = np.array([[4.0, 8.0], [8.0, 4.0]])
        res = evolve_islands(
            etc,
            np.zeros(2),
            full_elig(2, 2),
            rng,
            GAConfig(population_size=24, generations=30),
            IslandConfig(n_islands=3, migration_interval=5),
        )
        assert res.best_fitness == 4.0

    def test_monotone_history(self, rng):
        etc, ready = self._problem()
        res = evolve_islands(
            etc, ready, full_elig(10, 4), rng,
            GAConfig(population_size=30, generations=30),
            IslandConfig(n_islands=3),
            track_history=True,
        )
        assert (np.diff(res.history) <= 1e-12).all()

    def test_single_island_close_to_plain_ga(self):
        """One island with no migration is a plain GA."""
        etc, ready = self._problem(3, b=12, s=4)
        cfg = GAConfig(population_size=30, generations=40)
        island = evolve_islands(
            etc, ready, full_elig(12, 4), np.random.default_rng(0), cfg,
            IslandConfig(n_islands=1),
        )
        plain = evolve(
            etc, ready, full_elig(12, 4), np.random.default_rng(0), cfg
        )
        # same operator pipeline, so quality should be comparable
        assert island.best_fitness <= plain.best_fitness * 1.15

    def test_respects_eligibility(self, rng):
        etc, ready = self._problem(5)
        elig = np.zeros((10, 4), dtype=bool)
        elig[:, 2] = True
        res = evolve_islands(
            etc, ready, elig, rng,
            GAConfig(population_size=16, generations=5),
            IslandConfig(n_islands=2),
        )
        assert (res.best == 2).all()

    def test_seeds_scattered_and_used(self, rng):
        etc, ready = self._problem(7)
        strong = evolve(
            etc, ready, full_elig(10, 4), np.random.default_rng(1),
            GAConfig(population_size=60, generations=60),
        ).best
        res = evolve_islands(
            etc, ready, full_elig(10, 4), rng,
            GAConfig(population_size=16, generations=0),
            IslandConfig(n_islands=4),
            initial=np.tile(strong, (4, 1)),
        )
        # With the strong seed on every island, generation-0 best
        # must match the seed's fitness.
        from repro.core.fitness import population_makespan

        seed_fit = population_makespan(strong[None, :], etc, ready)[0]
        assert res.initial_fitness <= seed_fit + 1e-9

    def test_bad_seed_shape_rejected(self, rng):
        etc, ready = self._problem()
        with pytest.raises(ValueError, match="genes"):
            evolve_islands(
                etc, ready, full_elig(10, 4), rng,
                GAConfig(population_size=16, generations=1),
                IslandConfig(n_islands=2),
                initial=np.zeros((2, 7), dtype=int),
            )

    def test_surplus_seeds_warn_like_evolve(self, rng):
        """20 seeds cannot fit 8 chromosomes; the 12 dropped seeds are
        announced exactly as evolve announces them."""
        etc, ready = self._problem()
        with pytest.warns(RuntimeWarning, match="surplus seeds are dropped"):
            evolve_islands(
                etc, ready, full_elig(10, 4), rng,
                GAConfig(population_size=8, generations=1),
                initial=np.zeros((20, 10), dtype=int),
            )

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            evolve_islands(
                np.empty((0, 2)), np.zeros(2), full_elig(0, 2), rng
            )

    def test_stall_early_stop(self, rng):
        etc = np.array([[1.0]])
        res = evolve_islands(
            etc, np.zeros(1), full_elig(1, 1), rng,
            GAConfig(population_size=8, generations=100,
                     stall_generations=3, n_elite=1),
            IslandConfig(n_islands=2),
        )
        assert res.generations_run <= 5

    def test_deterministic(self):
        etc, ready = self._problem(11)
        args = (etc, ready, full_elig(10, 4))
        cfg = GAConfig(population_size=20, generations=15)
        a = evolve_islands(*args, np.random.default_rng(5), cfg)
        b = evolve_islands(*args, np.random.default_rng(5), cfg)
        np.testing.assert_array_equal(a.best, b.best)


class TestIslandScheduler:
    def test_name(self):
        sched = IslandSTGAScheduler(
            config=GAConfig(population_size=16, generations=5),
            islands=IslandConfig(n_islands=2),
        )
        assert sched.name == "Island-STGA(x2)"

    def test_schedules_batch(self, batch_factory):
        sched = IslandSTGAScheduler(
            config=GAConfig(population_size=16, generations=8),
            islands=IslandConfig(n_islands=2, migration_interval=3),
            rng=0,
        )
        res = sched.schedule(batch_factory([4.0, 8.0, 12.0]))
        assert (res.assignment >= 0).all()
        assert len(sched.history) == 1  # inherits STGA history insert


class TestMigrationEdges:
    """Edge cases of the ring exchange (backend-independent)."""

    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(1, 20, size=(8, 3)), np.zeros(3)

    def test_single_island_migration_is_noop(self):
        """I=1: the ring is a self-loop; migrating must change nothing
        (the guard skips _migrate_ring entirely), so results match a
        config with migration effectively disabled."""
        etc, ready = self._problem(4)
        cfg = GAConfig(population_size=12, generations=10)
        runs = [
            evolve_islands(
                etc, ready, full_elig(8, 3), np.random.default_rng(9),
                cfg, IslandConfig(n_islands=1, migration_interval=interval),
            )
            for interval in (1, 1000)
        ]
        assert runs[0].best_fitness == runs[1].best_fitness
        np.testing.assert_array_equal(runs[0].best, runs[1].best)

    def test_migrants_capped_at_island_population(self):
        """n_migrants >= the island population must not crash or grow
        the islands — each island sends at most its whole population."""
        etc, ready = self._problem(5)
        res = evolve_islands(
            etc, ready, full_elig(8, 3), np.random.default_rng(2),
            GAConfig(population_size=6, generations=6),
            # 3 islands of 2 chromosomes each, 50 requested migrants
            IslandConfig(n_islands=3, migration_interval=1, n_migrants=50),
        )
        assert res.best.shape == (8,)
        assert np.isfinite(res.best_fitness)

    def test_ring_direction_is_successor(self):
        """Island i's best lands in island (i+1) % n — not the
        predecessor.  Seed island 0 with a uniquely-best chromosome and
        check exactly island 1 received it."""
        from repro.core.islands import _migrate_ring

        best_row = np.array([7, 7, 7])
        pops = [
            np.vstack([best_row, [0, 0, 0]]),
            np.full((2, 3), 1),
            np.full((2, 3), 2),
        ]
        fits = [
            np.array([0.5, 9.0]),  # island 0 holds the global best
            np.array([5.0, 6.0]),
            np.array([5.0, 6.0]),
        ]
        _migrate_ring(pops, fits, 1)
        assert any(np.array_equal(r, best_row) for r in pops[1])
        assert not any(np.array_equal(r, best_row) for r in pops[2])

    def test_exchange_is_simultaneous(self):
        """Migrants are snapshotted before any island is overwritten:
        with a full exchange (n_migrants = population) around a 2-ring,
        the islands swap rather than island 0's rows cascading through."""
        from repro.core.islands import _migrate_ring

        a = np.full((2, 2), 0)
        b = np.full((2, 2), 1)
        pops = [a.copy(), b.copy()]
        fits = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        _migrate_ring(pops, fits, 2)
        np.testing.assert_array_equal(pops[0], b)
        np.testing.assert_array_equal(pops[1], a)

    def test_migration_determinism_across_backends(self):
        """The ring exchange happens on the same generations with the
        same migrants as in the oracle loop that evolves and evaluates
        every island separately (this pins the migration-heavy
        corner)."""
        from ga_oracle import oracle_evolve_islands

        etc, ready = self._problem(6)
        cfg = GAConfig(population_size=18, generations=12)
        isl = IslandConfig(n_islands=3, migration_interval=1, n_migrants=3)
        args = (etc, ready, full_elig(8, 3))
        a = evolve_islands(
            *args, np.random.default_rng(13), cfg, isl, track_history=True
        )
        b = oracle_evolve_islands(*args, np.random.default_rng(13), cfg, isl)
        np.testing.assert_array_equal(a.history, b.history)
        np.testing.assert_array_equal(a.best, b.best)
