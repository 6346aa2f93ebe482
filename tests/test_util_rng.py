"""Tests for repro.util.rng — deterministic stream management."""

import numpy as np

from repro.util.rng import RngFactory, as_generator


class TestAsGenerator:
    def test_int_seed_reproducible(self):
        assert as_generator(7).random() == as_generator(7).random()

    def test_different_seeds_differ(self):
        assert as_generator(1).random() != as_generator(2).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestRngFactory:
    def test_same_name_same_stream_across_factories(self):
        x = RngFactory(seed=42).stream("arrivals").random()
        y = RngFactory(seed=42).stream("arrivals").random()
        assert x == y

    def test_stream_cached_within_factory(self):
        f = RngFactory(seed=0)
        assert f.stream("a") is f.stream("a")

    def test_different_names_independent(self):
        f = RngFactory(seed=0)
        assert f.stream("a").random() != f.stream("b").random()

    def test_different_seeds_differ(self):
        a = RngFactory(seed=1).stream("x").random()
        b = RngFactory(seed=2).stream("x").random()
        assert a != b

    def test_order_independence(self):
        """Requesting other streams first must not perturb a stream."""
        f1 = RngFactory(seed=9)
        f1.stream("noise")
        v1 = f1.stream("target").random()
        f2 = RngFactory(seed=9)
        v2 = f2.stream("target").random()
        assert v1 == v2

    def test_fresh_resets_stream(self):
        f = RngFactory(seed=5)
        first = f.stream("s").random()
        again = f.fresh("s").random()
        assert first == again
