"""Tests for repro.grid.security — Eq. 1 and the risk modes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grid.security import (
    RiskMode,
    eligibility_matrix,
    failure_probability,
    risk_tolerance,
)


class TestFailureProbability:
    def test_safe_site_never_fails(self):
        assert failure_probability(0.6, 0.6) == 0.0
        assert failure_probability(0.6, 0.9) == 0.0

    def test_eq1_value(self):
        # P = 1 - exp(-lam * gap)
        p = failure_probability(0.9, 0.4, lam=3.0)
        assert p == pytest.approx(1 - np.exp(-1.5))

    def test_monotone_in_gap(self):
        gaps = np.linspace(0, 0.5, 20)
        ps = failure_probability(0.5 + gaps, 0.5)
        assert (np.diff(ps) > 0).all()

    def test_monotone_in_lambda(self):
        assert failure_probability(0.9, 0.5, lam=6.0) > failure_probability(
            0.9, 0.5, lam=1.0
        )

    def test_broadcasting(self):
        sd = np.array([[0.6], [0.9]])
        sl = np.array([0.5, 0.7, 1.0])
        out = failure_probability(sd, sl)
        assert out.shape == (2, 3)
        assert out[0, 2] == 0.0

    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            failure_probability(0.9, 0.5, lam=0.0)

    @given(
        sd=st.floats(0.0, 1.0),
        sl=st.floats(0.0, 1.0),
        lam=st.floats(0.1, 50.0),
    )
    def test_probability_bounds_property(self, sd, sl, lam):
        p = failure_probability(sd, sl, lam=lam)
        # mathematically p < 1, but 1-exp(-x) rounds to 1.0 in float
        # for large lam*(sd-sl), so the closed upper bound is correct
        assert 0.0 <= p <= 1.0


class TestTolerance:
    def test_modes(self):
        assert risk_tolerance(RiskMode.SECURE) == 0.0
        assert risk_tolerance(RiskMode.RISKY) == 1.0
        assert risk_tolerance(RiskMode.F_RISKY, 0.3) == 0.3

    def test_string_parse(self):
        assert RiskMode.parse("secure") is RiskMode.SECURE
        assert RiskMode.parse("f-risky") is RiskMode.F_RISKY
        with pytest.raises(ValueError, match="unknown risk mode"):
            RiskMode.parse("bogus")


class TestEligibility:
    def test_secure_requires_sd_le_sl(self):
        elig = eligibility_matrix([0.6, 0.9], [0.5, 0.7, 0.95], mode="secure")
        expected = np.array([[False, True, True], [False, False, True]])
        np.testing.assert_array_equal(elig, expected)

    def test_risky_allows_all(self):
        elig = eligibility_matrix([0.9], [0.1, 0.5], mode="risky")
        assert elig.all()

    def test_f_risky_between_secure_and_risky(self):
        sd = np.linspace(0.6, 0.9, 8)
        sl = np.linspace(0.4, 1.0, 6)
        sec = eligibility_matrix(sd, sl, mode="secure")
        fr = eligibility_matrix(sd, sl, mode="f-risky", f=0.5)
        ris = eligibility_matrix(sd, sl, mode="risky")
        assert (sec <= fr).all() and (fr <= ris).all()

    def test_f_risky_threshold_exact(self):
        # gap exactly at the tolerance boundary (Eq. 1 inverted) stays
        # eligible
        lam, f = 3.0, 0.5
        gap = -np.log1p(-f) / lam
        elig = eligibility_matrix(
            [0.5 + gap], [0.5], mode="f-risky", f=f, lam=lam
        )
        assert elig[0, 0]

    def test_secure_only_overrides_risky(self):
        elig = eligibility_matrix(
            [0.9, 0.9],
            [0.5, 0.95],
            mode="risky",
            secure_only=[True, False],
        )
        np.testing.assert_array_equal(
            elig, [[False, True], [True, True]]
        )

    @given(f=st.floats(0.0, 1.0))
    def test_f_monotone_property(self, f):
        """Larger f can only widen eligibility."""
        sd = np.array([0.6, 0.75, 0.9])
        sl = np.array([0.4, 0.6, 0.8, 1.0])
        small = eligibility_matrix(sd, sl, mode="f-risky", f=min(f, 0.3))
        large = eligibility_matrix(sd, sl, mode="f-risky", f=max(f, 0.3))
        assert (small <= large).all()
