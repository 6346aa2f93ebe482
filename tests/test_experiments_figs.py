"""Smoke + structure tests for the figure specs and renderers (tiny
scale).

Shape assertions on the paper's qualitative claims live in the
benchmarks (which run at a larger scale); here we verify that each
figure's spec runs through ``run_spec`` and renders well-formed,
deterministic output quickly.
"""

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.fig7 import (
    best_f,
    converged_after,
    frisky_series,
    frisky_sweep_spec,
    iteration_series,
    render_fig7a,
    render_fig7b,
    stga_iteration_spec,
)
from repro.experiments.fig8 import nas_lineups, nas_spec, render_fig8
from repro.experiments.fig9 import render_fig9, utilization_panels
from repro.experiments.fig10 import psa_scaling_spec, render_fig10, series
from repro.experiments.spec import run_spec
from repro.experiments.table2 import render_table2, table2_rows

FAST_GA = GAConfig(population_size=16, generations=8)
SETTINGS = RunSettings(batch_interval=2000.0, seed=3, ga=FAST_GA)


class TestFig7a:
    def test_structure(self):
        res = run_spec(
            frisky_sweep_spec(
                n_jobs=40, scale=1.0, f_values=(0.0, 0.5, 1.0),
                settings=SETTINGS,
            ),
            max_workers=1,
        )
        f_values, mm, sf = frisky_series(res)
        np.testing.assert_array_equal(f_values, [0.0, 0.5, 1.0])
        assert mm.shape == sf.shape == (1, 3)
        assert (mm > 0).all() and (sf > 0).all()
        assert 0.0 <= best_f(res, "minmin") <= 1.0
        out = render_fig7a(res)
        assert "Figure 7(a)" in out and "best f (Sufferage)" in out


def _fig7b(**kwargs):
    kwargs.setdefault("n_jobs", 30)
    return run_spec(
        stga_iteration_spec(scale=1.0, settings=SETTINGS, **kwargs),
        max_workers=1,
    )


class TestFig7b:
    def test_structure(self):
        res = _fig7b(n_jobs=40, generations=(0, 5, 10))
        generations, makespan = iteration_series(res)
        np.testing.assert_array_equal(generations, [0, 5, 10])
        assert (makespan > 0).all()
        assert converged_after(res) in (0, 5, 10)
        assert "Figure 7(b)" in render_fig7b(res)

    def test_generation_grid_deduped_sorted(self):
        res = _fig7b(generations=(5, 0, 5))
        np.testing.assert_array_equal(iteration_series(res)[0], [0, 5])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            stga_iteration_spec(n_jobs=30, generations=(-5,))


@pytest.fixture(scope="module")
def nas_result():
    return run_spec(nas_spec(scale=0.004, settings=SETTINGS), max_workers=1)


@pytest.fixture(scope="module")
def nas_lineup(nas_result):
    (lineup,) = nas_lineups(nas_result)
    return lineup


class TestFig8:
    def test_seven_algorithms(self, nas_lineup):
        assert len(nas_lineup) == 7
        assert nas_lineup[-1].scheduler == "STGA"

    def test_secure_zero_failures(self, nas_result):
        variant = nas_result.variants[0].name
        (secure,) = nas_result.cell(variant, "Min-Min Secure")
        assert secure.n_fail == 0
        assert secure.n_risk == 0

    def test_nfail_le_nrisk_everywhere(self, nas_lineup):
        for rep in nas_lineup:
            assert rep.n_fail <= rep.n_risk

    def test_render(self, nas_result):
        out = render_fig8(nas_result)
        assert "STGA" in out and "makespan" in out


class TestFig9:
    def test_three_panels(self, nas_result, nas_lineup):
        a, b, c = utilization_panels(nas_lineup)
        assert a.utilization.shape[1] == 12
        assert a.schedulers == (
            "Min-Min Secure",
            "Min-Min f-Risky(f=0.5)",
            "Min-Min Risky",
        )
        assert c.schedulers[-1] == "STGA"
        assert "Figure 9(a)" in a.render()
        assert render_fig9(nas_result) == "\n\n".join(
            p.render() for p in (a, b, c)
        ) + "\n"

    def test_balance_and_idle_helpers(self, nas_lineup):
        a, _, c = utilization_panels(nas_lineup)
        assert a.idle_sites("Min-Min Secure") >= 0
        assert c.balance("STGA") >= 0


class TestTable2:
    def test_rows(self, nas_lineup):
        rows = table2_rows(nas_lineup)
        assert len(rows) == 7
        stga = next(r for r in rows if r.scheduler == "STGA")
        assert stga.alpha == 1.0 and stga.beta == 1.0

    def test_render_includes_paper_values(self, nas_lineup):
        out = render_table2(nas_lineup)
        assert "Table 2 (measured)" in out
        assert "Table 2 (paper)" in out
        assert "1.314" in out  # the paper's Min-Min Secure alpha


@pytest.fixture(scope="module")
def fig10_result():
    return run_spec(
        psa_scaling_spec(n_values=(30, 60), scale=1.0, settings=SETTINGS),
        max_workers=1,
    )


class TestFig10:
    def test_structure(self, fig10_result):
        assert [v.n_jobs for v in fig10_result.variants] == [30, 60]
        assert fig10_result.schedulers() == (
            "Min-Min f-Risky(f=0.5)",
            "Sufferage f-Risky(f=0.5)",
            "STGA",
        )
        s = series(fig10_result, "STGA", "makespan")
        assert s.shape == (2,)
        assert (s > 0).all()
        out = render_fig10(fig10_result)
        for label in ("makespan", "avg_response", "slowdown", "n_fail"):
            assert f"Figure 10: {label} vs N (PSA)" in out

    def test_unknown_metric_rejected(self, fig10_result):
        with pytest.raises(AttributeError):
            series(fig10_result, "STGA", "latency")
