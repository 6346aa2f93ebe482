"""Tests for repro.grid.etc."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.grid.etc import etc_matrix


class TestEtcMatrix:
    def test_values(self):
        etc = etc_matrix([10.0, 20.0], [1.0, 2.0, 5.0])
        np.testing.assert_allclose(
            etc, [[10.0, 5.0, 2.0], [20.0, 10.0, 4.0]]
        )

    def test_negative_workload_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            etc_matrix([-1.0], [1.0])

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            etc_matrix([1.0], [0.0])

    def test_2d_workloads_rejected(self):
        with pytest.raises(ValueError):
            etc_matrix(np.ones((2, 2)), [1.0])

    @given(
        w=arrays(float, st.integers(1, 8),
                 elements=st.floats(0.1, 1e6)),
        v=arrays(float, st.integers(1, 6),
                 elements=st.floats(0.1, 1e3)),
    )
    def test_shape_and_positivity_property(self, w, v):
        etc = etc_matrix(w, v)
        assert etc.shape == (w.size, v.size)
        assert (etc > 0).all()
        # faster site => smaller time, row-wise
        order = np.argsort(v)
        sorted_etc = etc[:, order]
        assert (np.diff(sorted_etc, axis=1) <= 1e-9).all()
