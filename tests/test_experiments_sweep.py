"""Tests for repro.experiments.sweep — the replication-sweep harness.

Tier-1 friendly: every sweep here uses 2 seeds, a tiny GA config and
``max_workers=1`` (the sequential in-process fallback), so the suite
never forks and stays inside the seed runtime envelope.  The
process-pool path and the >= 3-seed acceptance check live in
``benchmarks/test_sweep_throughput.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.fig7 import (
    frisky_series,
    frisky_sweep_spec,
    render_fig7a,
)
from repro.experiments.fig8 import nas_spec
from repro.experiments.fig10 import psa_scaling_spec
from repro.experiments.runner import PAPER_LINEUP, run_lineup, scale_jobs
from repro.experiments.spec import ExperimentSpec, run_spec
from repro.experiments.sweep import (
    SWEEP_METRICS,
    MetricSummary,
    ScenarioVariant,
    job_scaling_variants,
    parallel_map,
    seed_list,
)
from repro.workloads.psa import PSAConfig, psa_scenario

#: tiny GA so STGA batches cost milliseconds
TINY = RunSettings(
    ga=GAConfig(population_size=16, generations=4, flow_weight=1.0)
)


def tiny_spec(variants, seeds=(1, 2), lineup=PAPER_LINEUP):
    return ExperimentSpec(
        name="tiny",
        schedulers=lineup,
        variants=variants,
        seeds=seeds,
        scale=0.1,
        settings=TINY,
    )


def tiny_sweep(variants, seeds=(1, 2), *, lineup=PAPER_LINEUP, **kw):
    return run_spec(tiny_spec(variants, seeds, lineup), max_workers=1, **kw)


class TestScenarioVariant:
    def test_workload_validated(self):
        with pytest.raises(ValueError, match="workload"):
            ScenarioVariant(name="x", workload="trace")

    def test_psa_only_knobs_rejected_for_nas(self):
        with pytest.raises(ValueError, match="PSA-only"):
            ScenarioVariant(name="x", workload="nas", arrival_rate=0.1)

    def test_nas_grid_layout_variant(self):
        # NAS n_sites is no longer banned: the site plan scales with
        # the paper's 1:2 big:small ratio (nas_site_plan).
        v = ScenarioVariant(
            name="x", workload="nas", n_jobs=200, n_sites=6,
            n_training_jobs=0,
        )
        scenario, training = v.build_scenarios(seed=0, scale=0.1)
        assert training is None
        assert scenario.grid.n_sites == 6
        speeds = sorted(scenario.grid.speeds.tolist(), reverse=True)
        assert speeds == [16.0, 16.0, 8.0, 8.0, 8.0, 8.0]

    def test_nas_paper_plan_unchanged_at_12_sites(self):
        v12 = ScenarioVariant(
            name="x", workload="nas", n_jobs=200, n_sites=12,
            n_training_jobs=0,
        )
        v_def = ScenarioVariant(
            name="x", workload="nas", n_jobs=200, n_training_jobs=0
        )
        s12, _ = v12.build_scenarios(seed=0, scale=0.1)
        s_def, _ = v_def.build_scenarios(seed=0, scale=0.1)
        assert s12.grid.speeds.tolist() == s_def.grid.speeds.tolist()

    def test_n_sites_validated(self):
        with pytest.raises(ValueError, match="n_sites"):
            ScenarioVariant(name="x", n_sites=0)

    def test_job_count_validated(self):
        with pytest.raises(ValueError, match="n_jobs"):
            ScenarioVariant(name="x", n_jobs=0)
        with pytest.raises(ValueError, match="n_training_jobs"):
            ScenarioVariant(name="x", n_training_jobs=-1)

    def test_settings_overrides(self):
        v = ScenarioVariant(name="x", lam=1.5, batch_interval=250.0)
        s = v.settings_for(TINY, seed=42)
        assert (s.seed, s.lam, s.batch_interval) == (42, 1.5, 250.0)
        # unset overrides keep the base values
        s2 = ScenarioVariant(name="y").settings_for(TINY, seed=7)
        assert s2.lam == TINY.lam and s2.batch_interval == TINY.batch_interval

    def test_ga_overrides_threaded_into_settings(self):
        v = ScenarioVariant(
            name="x", ga_overrides={"generations": 2, "population_size": 8}
        )
        s = v.settings_for(TINY, seed=1)
        assert s.ga.generations == 2
        assert s.ga.population_size == 8
        # untouched GA fields keep the base config's values
        assert s.ga.flow_weight == TINY.ga.flow_weight
        # the base settings object is not mutated
        assert TINY.ga.generations == 4

    def test_ga_overrides_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="ga_overrides"):
            ScenarioVariant(name="x", ga_overrides={"not_a_knob": 1})

    def test_ga_overrides_normalized_and_hashable(self):
        v = ScenarioVariant(
            name="x", ga_overrides={"population_size": 8, "generations": 2}
        )
        assert v.ga_overrides == (
            ("generations", 2), ("population_size", 8),
        )
        hash(v)  # frozen variants stay usable as set/dict keys
        # pair-iterable input (e.g. reloaded JSON) is equivalent
        assert v == ScenarioVariant(
            name="x", ga_overrides=[["population_size", 8], ["generations", 2]]
        )

    def test_ga_overrides_none_values_keep_base(self):
        v = ScenarioVariant(
            name="x", ga_overrides={"generations": None, "population_size": 8}
        )
        s = v.settings_for(TINY, seed=1)
        assert s.ga.generations == TINY.ga.generations
        assert s.ga.population_size == 8
        # empty/all-None overrides leave the GA config untouched
        s2 = ScenarioVariant(name="y", ga_overrides={}).settings_for(TINY, 1)
        assert s2.ga == TINY.ga

    def test_build_scenarios_grid_and_arrivals(self):
        v = ScenarioVariant(
            name="x", n_jobs=200, n_sites=5, arrival_rate=0.1,
            n_training_jobs=0,
        )
        scenario, training = v.build_scenarios(seed=0, scale=0.5)
        assert training is None
        assert scenario.grid.n_sites == 5
        assert scenario.n_jobs == scale_jobs(200, 0.5)

    def test_training_stream_inherits_psa_overrides(self):
        v = ScenarioVariant(
            name="x", n_jobs=200, arrival_rate=0.1, n_training_jobs=200
        )
        scenario, training = v.build_scenarios(seed=0, scale=0.5)
        assert training is not None
        # same arrival intensity: spans are comparable, not ~12x apart
        # as the 0.008 default would make them
        assert training.span < scenario.span * 3

    def test_variant_factories(self):
        vs = job_scaling_variants([100, 200])
        assert [v.n_jobs for v in vs] == [100, 200]
        assert len({v.name for v in vs}) == 2

    def test_seed_list(self):
        assert seed_list(3, base_seed=10) == (10, 11, 12)
        with pytest.raises(ValueError):
            seed_list(0)


class TestMetricSummary:
    #: two-sided 95 % Student-t critical values (standard table)
    T975 = {2: 4.3026527, 4: 2.7764451}

    def test_stats(self):
        s = MetricSummary(metric="makespan", values=(1.0, 2.0, 3.0))
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)  # ddof=1
        # Student-t interval at df = 2, not the 1.96 normal value
        assert s.ci95 == pytest.approx(self.T975[2] * 1.0 / np.sqrt(3))

    def test_ci95_uses_student_t_at_five_seeds(self):
        # the acceptance check: t(0.975, df=4) ~ 2.776, ~42% wider
        # than the z = 1.96 normal approximation the old code used
        s = MetricSummary(values=(1, 2, 3, 4, 5))
        std = np.sqrt(2.5)
        assert s.ci95 == pytest.approx(self.T975[4] * std / np.sqrt(5))
        assert s.ci95 > 1.4 * (1.96 * std / np.sqrt(5))

    def test_single_value(self):
        s = MetricSummary(metric="makespan", values=(5.0,))
        assert s.std == 0.0 and s.ci95 == 0.0

    def test_positional_construction_unchanged(self):
        # metric stays the first field: pre-existing positional
        # callers keep working alongside the values=... spelling
        s = MetricSummary("makespan", (1.0, 2.0))
        assert s.metric == "makespan" and s.n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricSummary(metric="makespan", values=())

    def test_str_shows_mean_and_std(self):
        assert "±" in str(MetricSummary(metric="m", values=(1.0, 2.0)))


class TestRunSweep:
    def test_input_validation(self):
        v = ScenarioVariant(name="x")
        with pytest.raises(ValueError, match="variant"):
            tiny_spec([], [1])
        with pytest.raises(ValueError, match="seed"):
            tiny_spec([v], [])
        with pytest.raises(ValueError, match="distinct"):
            tiny_spec([v], [1, 1])
        with pytest.raises(ValueError, match="distinct"):
            tiny_spec([v, v], [1])

    def test_grid_shape_and_metrics(self):
        variants = job_scaling_variants([60, 120], n_training_jobs=60)
        res = tiny_sweep(variants)
        assert res.seeds == (1, 2)
        assert len(res.schedulers()) == 7  # 6 heuristics + STGA
        for v in variants:
            for sched in res.schedulers():
                assert len(res.cell(v.name, sched)) == 2
                for metric in SWEEP_METRICS:
                    s = res.summary(v.name, sched, metric)
                    assert s.n == 2 and np.isfinite(s.mean)

    def test_per_seed_identical_to_sequential_run_lineup(self):
        """The determinism contract: sweep cells reproduce direct
        run_lineup calls with the same RngFactory streams."""
        scale, n, n_train, seeds = 0.1, 60, 60, (3, 5)
        res = tiny_sweep(
            job_scaling_variants([n], n_training_jobs=n_train), seeds=seeds
        )
        vname = res.variants[0].name
        for i, seed in enumerate(seeds):
            scenario = psa_scenario(
                PSAConfig(n_jobs=scale_jobs(n, scale)), rng=seed
            )
            training = psa_scenario(
                PSAConfig(n_jobs=scale_jobs(n_train, scale)), rng=seed + 7919
            )
            direct = run_lineup(scenario, training, replace(TINY, seed=seed))
            for rep in direct:
                got = res.cell(vname, rep.scheduler)[i]
                assert got.makespan == rep.makespan
                assert got.avg_response_time == rep.avg_response_time
                assert got.n_fail == rep.n_fail
                assert got.n_risk == rep.n_risk

    def test_defaults_forwarded_to_lineup(self):
        """PaperDefaults overrides (e.g. f_risky) must reach the
        workers' run_lineup calls, not be silently dropped."""
        from repro.experiments.config import PaperDefaults

        res = tiny_sweep(
            [ScenarioVariant(name="x", n_jobs=60, n_training_jobs=0)],
            lineup=PAPER_LINEUP[:-1],
            defaults=PaperDefaults(f_risky=0.3),
        )
        assert "Min-Min f-Risky(f=0.3)" in res.schedulers()

    def test_without_stga(self):
        res = tiny_sweep(
            [ScenarioVariant(name="x", n_jobs=60, n_training_jobs=0)],
            lineup=PAPER_LINEUP[:-1],
        )
        assert "STGA" not in res.schedulers()

    def test_render_contains_error_bars(self):
        res = tiny_sweep(
            [ScenarioVariant(name="tiny", n_jobs=60, n_training_jobs=0)],
            lineup=PAPER_LINEUP[:-1],
        )
        out = res.render("makespan")
        assert "tiny" in out and "±" in out
        grid = res.summary_grid("makespan")
        assert set(grid) == {"tiny"}

    def test_per_seed_lineups_shape(self):
        res = tiny_sweep(
            [ScenarioVariant(name="x", n_jobs=60, n_training_jobs=0)],
            lineup=PAPER_LINEUP[:-1],
        )
        lineups = res.per_seed_lineups("x")
        assert len(lineups) == 2  # one list per seed
        for i, lineup in enumerate(lineups):
            assert [r.scheduler for r in lineup] == list(res.schedulers())
            for rep in lineup:
                assert rep is res.cell("x", rep.scheduler)[i]

    def test_unknown_metric_raises(self):
        res = tiny_sweep(
            [ScenarioVariant(name="x", n_jobs=60, n_training_jobs=0)],
            lineup=PAPER_LINEUP[:-1],
        )
        with pytest.raises(AttributeError):
            res.summary("x", res.schedulers()[0], "not_a_metric")


class TestParallelMap:
    def test_sequential_fallback(self):
        assert parallel_map(abs, [-1, -2, -3], max_workers=1) == [1, 2, 3]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            parallel_map(abs, [1], max_workers=0)

    def test_single_item_never_forks(self):
        # max_workers > 1 with one item must take the in-process path
        assert parallel_map(abs, [-7], max_workers=8) == [7]

    def test_empty_items(self):
        assert parallel_map(abs, []) == []
        assert parallel_map(abs, [], max_workers=4) == []


def _fig7a(seeds=None, f_values=(0.0, 0.5, 1.0), settings=TINY):
    return run_spec(
        frisky_sweep_spec(
            n_jobs=60,
            scale=0.1,
            f_values=f_values,
            settings=settings,
            seeds=seeds,
        ),
        max_workers=1,
    )


class TestFigureDriverWiring:
    def test_fig7a_error_bars(self):
        res = _fig7a(seeds=(1, 2))
        _, mm, _ = frisky_series(res)
        assert mm.shape == (2, 3)
        out = render_fig7a(res)
        assert "±" in out and "2 seeds" in out

    def test_fig7a_single_seed_unchanged(self):
        res = _fig7a(f_values=(0.0, 1.0))
        assert frisky_series(res)[1].shape == (1, 2)
        assert "±" not in render_fig7a(res)

    def test_fig7a_mean_matches_manual_average(self):
        per_seed = [
            frisky_series(
                _fig7a(f_values=(0.0, 1.0), settings=replace(TINY, seed=s))
            )[1][0]
            for s in (1, 2)
        ]
        ens = frisky_series(_fig7a(seeds=(1, 2), f_values=(0.0, 1.0)))[1]
        np.testing.assert_allclose(
            ens.mean(axis=0), np.mean(per_seed, axis=0)
        )

    def test_nas_ensemble_matches_nas_experiment_per_seed(self):
        """A multi-seed NAS spec run holds, per seed, the reports of
        that seed's single-seed run."""
        seeds = (1, 2)
        res = run_spec(
            nas_spec(seeds=seeds, scale=0.002, settings=TINY), max_workers=1
        )
        vname = res.variants[0].name
        for i, seed in enumerate(seeds):
            direct = run_spec(
                nas_spec(scale=0.002, settings=replace(TINY, seed=seed)),
                max_workers=1,
            )
            for sched in direct.schedulers():
                (rep,) = direct.cell(vname, sched)
                got = res.cell(vname, sched)[i]
                assert got.makespan == rep.makespan
                assert got.n_fail == rep.n_fail

    def test_psa_scaling_ensemble_variants(self):
        res = run_spec(
            psa_scaling_spec(
                n_values=(60, 120), seeds=(1, 2), scale=0.1, settings=TINY
            ),
            max_workers=1,
        )
        assert [v.n_jobs for v in res.variants] == [60, 120]
        assert "±" in res.render("avg_response_time")
