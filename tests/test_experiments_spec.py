"""Tests for declarative experiment specs (repro.experiments.spec)."""

import json
from dataclasses import replace

import pytest

from repro.cli import FIGURES, main
from repro.core.ga import GAConfig
from repro.core.stga import StandardGAScheduler
from repro.experiments import runner
from repro.experiments.ablation import stga_ablation_spec
from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.fig7 import (
    frisky_sweep_spec,
    iteration_series,
    stga_iteration_spec,
)
from repro.experiments.fig8 import nas_spec
from repro.experiments.fig10 import FIG10_LINEUP, psa_scaling_spec
from repro.experiments.runner import (
    PAPER_LINEUP,
    reports_by_name,
    run_lineup,
    scale_jobs,
)
from repro.experiments.spec import (
    ExperimentSpec,
    load_spec,
    run_spec,
    save_spec,
)
from repro.experiments.sweep import ScenarioVariant
from repro.experiments.table2 import table2_spec
from repro.workloads.base import TRAINING_SEED_OFFSET
from repro.workloads.nas import NASConfig, nas_scenario

FAST_GA = GAConfig(population_size=16, generations=8)
FAST = RunSettings(seed=11, ga=FAST_GA)


def tiny_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        name="tiny",
        schedulers=("min-min-risky", "sufferage-f-risky?f=0.4"),
        variants=(
            ScenarioVariant(
                name="PSA N=100",
                n_jobs=100,
                n_training_jobs=0,
                ga_overrides={"generations": 4},
            ),
        ),
        seeds=(11, 12),
        metrics=("makespan", "n_fail"),
        scale=0.5,
        settings=FAST,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestSpecValidation:
    def test_rejects_empty_schedulers(self):
        with pytest.raises(ValueError, match="scheduler"):
            tiny_spec(schedulers=())

    def test_rejects_empty_variants(self):
        with pytest.raises(ValueError, match="variant"):
            tiny_spec(variants=())

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError, match="distinct"):
            tiny_spec(seeds=(1, 1))

    def test_rejects_duplicate_refs(self):
        with pytest.raises(ValueError, match="distinct"):
            tiny_spec(schedulers=("stga", "stga"))

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            tiny_spec(metrics=("makespan", "no_such_metric"))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            tiny_spec(scale=0.0)

    def test_validate_resolves_refs_lazily(self):
        # construction succeeds (the ref may come from a plugin not
        # yet imported); validate() resolves against the registry
        spec = tiny_spec(schedulers=("no-such-sched?x=1",))
        with pytest.raises(KeyError, match="available"):
            spec.validate()
        tiny_spec().validate()  # built-ins resolve fine


class TestSpecRoundTrip:
    def test_dict_round_trip_is_bit_identical(self):
        spec = tiny_spec()
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec
        assert clone.settings == spec.settings
        assert clone.variants[0].ga_overrides == (("generations", 4),)

    def test_json_round_trip_every_builder(self):
        for builder in (
            nas_spec,
            psa_scaling_spec,
            frisky_sweep_spec,
            stga_iteration_spec,
            table2_spec,
            stga_ablation_spec,
        ):
            spec = builder(scale=0.01, settings=FAST)
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = save_spec(spec, tmp_path / "sub" / "spec.json")
        assert load_spec(path) == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spec(tmp_path / "nope.json")

    def test_wrong_schema_version_rejected(self):
        payload = tiny_spec().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentSpec.from_dict(payload)


class TestSpecBuilders:
    def test_nas_spec_shape(self):
        spec = nas_spec(scale=0.01, settings=FAST)
        assert spec.schedulers == PAPER_LINEUP
        assert spec.seeds == (FAST.seed,)
        assert spec.variants[0].workload == "nas"

    def test_table2_spec_is_nas_under_its_own_name(self):
        assert table2_spec(scale=0.01).name == "table2-nas"
        assert table2_spec(scale=0.01).schedulers == PAPER_LINEUP

    def test_fig7b_spec_maps_generations_to_ga_overrides(self):
        spec = stga_iteration_spec(generations=(0, 10, 10, 5), scale=0.01)
        assert [v.name for v in spec.variants] == [
            "generations=0", "generations=5", "generations=10",
        ]
        assert spec.variants[2].ga_overrides == (("generations", 10),)
        assert spec.schedulers == ("stga",)

    def test_fig7b_spec_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="non-negative"):
            stga_iteration_spec(generations=(-1, 10))

    def test_fig10_spec_one_variant_per_n(self):
        spec = psa_scaling_spec(n_values=(100, 200), scale=0.01)
        assert [v.n_jobs for v in spec.variants] == [100, 200]
        assert spec.schedulers == FIG10_LINEUP

    def test_ablation_spec_labels_stay_distinct(self):
        spec = stga_ablation_spec(scale=0.01)
        spec.validate()
        assert len(set(spec.schedulers)) == len(spec.schedulers)

    def test_ablation_spec_runs_the_ga_ref(self, monkeypatch):
        """The ``ga`` ref runs through ``run_spec`` as the conventional
        GA, beside three distinctly labelled STGA variants."""
        built = {}
        real_run_scheduler = runner.run_scheduler

        def spy(scenario, scheduler, settings):
            built[scheduler.name] = scheduler
            return real_run_scheduler(scenario, scheduler, settings)

        monkeypatch.setattr(runner, "run_scheduler", spy)
        spec = stga_ablation_spec(
            n_jobs=20, seeds=(1, 2), scale=1.0, settings=FAST
        )
        res = run_spec(spec, max_workers=1)
        labels = ("STGA", "STGA-FIFO", "STGA-history-only", "conventional-GA")
        assert res.schedulers() == labels
        for name in labels:
            reports = res.cell(spec.variants[0].name, name)
            assert [r.scheduler for r in reports] == [name, name]
        assert isinstance(built["conventional-GA"]._inner, StandardGAScheduler)


def assert_reports_identical(a, b):
    """Bit-identical on every deterministic field (scheduler_seconds
    is a wall-clock measurement and legitimately varies)."""
    from dataclasses import replace

    assert replace(a, scheduler_seconds=0.0) == replace(
        b, scheduler_seconds=0.0
    )


class TestRunSpecEquivalence:
    def test_fig8_spec_reproduces_hand_built_lineup_bit_for_bit(self):
        """The fig8 spec's reports equal a lineup run on NAS scenarios
        built straight from the generator: the squeezed trace horizon,
        workload rng = seed, training rng = seed + TRAINING_SEED_OFFSET."""
        scale = 0.002
        base = NASConfig()
        n = scale_jobs(base.n_jobs, scale)
        n_train = scale_jobs(PaperDefaults().n_training_jobs, scale)
        days = max(2, int(round(base.trace_days * scale)))
        scenario = nas_scenario(
            replace(base, n_jobs=n, trace_days=days), rng=FAST.seed
        )
        training = nas_scenario(
            replace(
                base,
                n_jobs=n_train,
                trace_days=max(1, int(round(days * n_train / n))),
            ),
            rng=FAST.seed + TRAINING_SEED_OFFSET,
        )
        direct = reports_by_name(run_lineup(scenario, training, FAST))

        spec = nas_spec(scale=scale, settings=FAST)
        res = run_spec(spec, max_workers=1)
        variant = spec.variants[0].name
        assert tuple(res.schedulers()) == tuple(direct)
        for sched, direct_rep in direct.items():
            (spec_rep,) = res.cell(variant, sched)
            assert_reports_identical(spec_rep, direct_rep)

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_figure_command_prints_its_emitted_spec_run(
        self, figure, tmp_path, capsys
    ):
        """``repro-grid figN`` prints exactly the rendering of the spec
        ``emit-spec figN`` writes, run through ``run_spec``."""
        path = tmp_path / "spec.json"
        argv = ["--scale", "0.002", "--seed", "7"]
        assert main(["emit-spec", figure, *argv, "--out", str(path)]) == 0
        assert main([figure, *argv]) == 0
        printed = capsys.readouterr().out.split("\n", 1)[1]
        render = FIGURES[figure][1]
        result = run_spec(load_spec(path), max_workers=1)
        assert printed == render(result) + "\n"

    def test_emitted_fig7b_spec_carries_table1_ga(self, tmp_path, capsys):
        """``emit-spec fig7b`` ships Table 1's GA, and running it gives
        the makespans ``repro-grid fig7b`` prints."""
        path = tmp_path / "fig7b.json"
        argv = ["--scale", "0.002", "--seed", "11"]
        assert main(["emit-spec", "fig7b", *argv, "--out", str(path)]) == 0
        capsys.readouterr()
        spec = load_spec(path)
        assert spec.settings.ga == PaperDefaults().ga_config()

        generations, makespan = iteration_series(
            run_spec(spec, max_workers=1)
        )
        assert main(["fig7b", *argv]) == 0
        rows = capsys.readouterr().out.splitlines()[3:3 + len(generations)]
        printed = [float(row.split()[1]) for row in rows]
        assert [int(row.split()[0]) for row in rows] == generations.tolist()
        assert printed == pytest.approx(makespan.tolist(), rel=5e-4)


class TestRunSpec:
    def test_renders_requested_metrics(self):
        spec = tiny_spec(scale=0.2, seeds=(11,))
        res = run_spec(spec, max_workers=1)
        out = res.render("makespan")
        assert "PSA N=100" in out
        assert "Min-Min Risky" in out
        assert "Sufferage f-Risky(f=0.4)" in out

    def test_unknown_ref_fails_before_any_run(self):
        spec = tiny_spec(schedulers=("no-such-sched",))
        with pytest.raises(KeyError, match="available"):
            run_spec(spec, max_workers=1)
