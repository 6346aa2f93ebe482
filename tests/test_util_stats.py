"""Tests for repro.util.stats."""

import pytest

from repro.util.stats import t_critical


class TestTCritical:
    #: standard two-sided 95 % t-table, hand-copied (scipy-free)
    TABLE_95 = {
        1: 12.7062047,
        2: 4.3026527,
        4: 2.7764451,
        9: 2.2621572,
        10: 2.2281389,
        29: 2.0452296,
        100: 1.9839715,
    }

    @pytest.mark.parametrize("df,expected", sorted(TABLE_95.items()))
    def test_matches_t_table(self, df, expected):
        assert t_critical(df) == pytest.approx(expected, abs=5e-7)

    def test_large_df_approaches_normal(self):
        assert t_critical(10**6) == pytest.approx(1.959964, abs=1e-4)

    def test_other_confidence_levels(self):
        # 99 % two-sided at df = 9 (t-table: 3.2498355)
        assert t_critical(9, confidence=0.99) == pytest.approx(
            3.2498355, abs=5e-7
        )
        # 90 % two-sided at df = 4 (t-table: 2.1318468)
        assert t_critical(4, confidence=0.90) == pytest.approx(
            2.1318468, abs=5e-7
        )

    def test_monotone_decreasing_in_df(self):
        values = [t_critical(df) for df in (1, 2, 5, 10, 50, 500)]
        assert values == sorted(values, reverse=True)
        assert all(v > 1.959963 for v in values)

    def test_validation(self):
        with pytest.raises(ValueError, match="df"):
            t_critical(0)
        with pytest.raises(ValueError, match="confidence"):
            t_critical(5, confidence=1.0)
        with pytest.raises(ValueError, match="confidence"):
            t_critical(5, confidence=0.0)
