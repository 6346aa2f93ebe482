"""Tests for repro.grid.site."""

import numpy as np
import pytest

from repro.grid.site import Grid, Site


class TestSite:
    def test_construction(self):
        s = Site(site_id=0, speed=8.0, security_level=0.9, nodes=8)
        assert s.speed == 8.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(site_id=-1, speed=1.0, security_level=0.5),
            dict(site_id=0, speed=0.0, security_level=0.5),
            dict(site_id=0, speed=-2.0, security_level=0.5),
            dict(site_id=0, speed=1.0, security_level=-0.1),
            dict(site_id=0, speed=1.0, security_level=0.5, nodes=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Site(**kwargs)


class TestGrid:
    def test_from_arrays(self):
        g = Grid.from_arrays([1.0, 2.0], [0.5, 0.9])
        assert g.n_sites == 2
        assert g[1].speed == 2.0
        np.testing.assert_allclose(g.security_levels, [0.5, 0.9])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one site"):
            Grid(())

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError, match="site_ids"):
            Grid((Site(1, 1.0, 0.5),))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Grid.from_arrays([1.0], [0.5, 0.6])

    def test_nodes_shape_checked(self):
        with pytest.raises(ValueError, match="nodes"):
            Grid.from_arrays([1.0, 2.0], [0.5, 0.6], nodes=[1])

    def test_vector_views_read_only(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.speeds[0] = 99.0

    def test_total_speed(self, small_grid):
        assert small_grid.total_speed == 15.0

    def test_len_and_iter_order(self, small_grid):
        assert len(small_grid) == 4
        assert [s.site_id for s in small_grid.sites] == [0, 1, 2, 3]

    def test_max_security_site(self, small_grid):
        assert small_grid.max_security_site() == 3

    def test_nodes_passthrough(self):
        g = Grid.from_arrays([16.0, 8.0], [0.5, 0.6], nodes=[16, 8])
        assert g[0].nodes == 16 and g[1].nodes == 8
