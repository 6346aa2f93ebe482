"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_1d,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestScalarChecks:
    def test_positive_ok(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", bad)

    def test_non_negative_ok(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_non_negative_rejects(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative("x", -0.1)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_probability_ok(self, p):
        assert check_probability("p", p) == p

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_probability_rejects(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability("p", p)

    def test_in_range(self):
        assert check_in_range("v", 3, 1, 5) == 3.0
        with pytest.raises(ValueError):
            check_in_range("v", 6, 1, 5)


class TestArrayChecks:
    def test_1d_ok(self):
        out = check_1d("a", [1, 2, 3])
        assert out.dtype == float and out.shape == (3,)

    def test_1d_rejects_2d(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_1d("a", np.zeros((2, 2)))
