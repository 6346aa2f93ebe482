"""Tests for the scheduler/workload plugin registries."""

import numpy as np
import pytest

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.runner import PAPER_LINEUP, run_lineup
from repro.heuristics.base import BatchScheduler
from repro.heuristics.factory import make_heuristic
from repro.registry import (
    _LabeledScheduler,
    available_schedulers,
    available_workloads,
    build_scheduler,
    parse_scheduler_ref,
    register_scheduler,
    register_workload,
    scheduler_spec,
    unregister_scheduler,
    unregister_workload,
    workload_spec,
)
from repro.workloads.psa import PSAConfig, psa_scenario

SETTINGS = RunSettings(seed=5)


class TestRegistration:
    def test_builtins_present(self):
        names = available_schedulers()
        for ref in PAPER_LINEUP:
            assert ref in names
        assert "ga" in names
        assert set(available_workloads()) >= {"psa", "nas"}

    def test_duplicate_scheduler_rejected(self):
        @register_scheduler("test-dup-sched")
        def _build(settings, rng, **_):  # pragma: no cover - never built
            raise AssertionError

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheduler("test-dup-sched")(lambda s, r, **_: None)
        finally:
            unregister_scheduler("test-dup-sched")

    def test_duplicate_alias_rejected(self):
        @register_scheduler("test-alias-sched", aliases=("test-alias",))
        def _build(settings, rng, **_):  # pragma: no cover
            raise AssertionError

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheduler("test-alias")(lambda s, r, **_: None)
            with pytest.raises(ValueError, match="already registered"):
                register_scheduler(
                    "other-name", aliases=("test-alias-sched",)
                )(lambda s, r, **_: None)
        finally:
            unregister_scheduler("test-alias-sched")

    def test_duplicate_workload_rejected(self):
        @register_workload("test-dup-wl")
        def _build(variant, seed, scale=1.0):  # pragma: no cover
            raise AssertionError

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_workload("test-dup-wl")(lambda v, s, sc=1.0: None)
        finally:
            unregister_workload("test-dup-wl")

    def test_unknown_scheduler_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            scheduler_spec("no-such-sched")
        with pytest.raises(KeyError, match="min-min-risky"):
            scheduler_spec("no-such-sched")

    def test_unknown_workload_lists_available(self):
        with pytest.raises(KeyError, match="psa"):
            workload_spec("no-such-workload")

    def test_alias_resolves_to_secure_mode(self):
        sched = build_scheduler("min-min", SETTINGS)
        assert sched.name == "Min-Min Secure"
        assert scheduler_spec("min-min") is scheduler_spec("min-min-secure")

    def test_unregister_is_idempotent(self):
        unregister_scheduler("never-registered")
        unregister_workload("never-registered")

    def test_unregister_alias_keeps_canonical_entry(self):
        @register_scheduler("test-canon", aliases=("test-canon-alias",))
        def _build(settings, rng, **_):  # pragma: no cover
            raise AssertionError

        try:
            unregister_scheduler("test-canon-alias")
            assert scheduler_spec("test-canon").name == "test-canon"
            with pytest.raises(KeyError):
                scheduler_spec("test-canon-alias")
            # the freed alias name is registrable again
            register_scheduler("test-canon-alias")(lambda s, r, **_: None)
            unregister_scheduler("test-canon-alias")
        finally:
            unregister_scheduler("test-canon")


class TestSchedulerRefs:
    def test_bare_ref(self):
        assert parse_scheduler_ref("stga") == ("stga", {})

    def test_params_parse_as_json_scalars(self):
        name, params = parse_scheduler_ref(
            "stga?capacity=50&threshold=0.9&eviction=fifo"
            "&heuristic_seeds=false"
        )
        assert name == "stga"
        assert params == {
            "capacity": 50,
            "threshold": 0.9,
            "eviction": "fifo",
            "heuristic_seeds": False,
        }

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="empty name"):
            parse_scheduler_ref("?f=0.5")

    def test_malformed_param_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_scheduler_ref("stga?capacity")
        with pytest.raises(ValueError, match="key=value"):
            parse_scheduler_ref("stga?=5")


class TestBuildScheduler:
    def test_matches_factory_construction(self):
        built = build_scheduler(
            "min-min-risky", SETTINGS, defaults=PaperDefaults()
        )
        direct = make_heuristic("min-min", "risky", f=0.5, lam=SETTINGS.lam)
        assert type(built) is type(direct)
        assert built.name == direct.name
        assert built.mode == direct.mode
        assert built.lam == direct.lam

    def test_f_parameter_overrides_defaults(self):
        sched = build_scheduler("sufferage-f-risky?f=0.3", SETTINGS)
        assert sched.f == 0.3
        assert sched.name == "Sufferage f-Risky(f=0.3)"

    def test_label_parameter_renames_report(self):
        sched = build_scheduler(
            "min-min-risky?label=custom-name", SETTINGS
        )
        assert sched.name == "custom-name"

    def test_label_wraps_schedulers_with_fixed_names(self):
        # a plugin whose `name` property ignores .label still renames
        @register_scheduler("test-fixed-name")
        def _build(settings, rng, **_):
            return _FixedScheduler()

        try:
            sched = build_scheduler(
                "test-fixed-name?label=renamed", SETTINGS
            )
            assert sched.name == "renamed"
            assert sched.schedule is not None  # delegation intact
        finally:
            unregister_scheduler("test-fixed-name")

    def test_label_wrapper_delegates_schedule_and_attributes(
        self, batch_factory
    ):
        inner = _FixedScheduler()
        inner.marker = object()

        @register_scheduler("test-fixed-delegate")
        def _build(settings, rng, **_):
            return inner

        try:
            sched = build_scheduler(
                "test-fixed-delegate?label=renamed", SETTINGS
            )
        finally:
            unregister_scheduler("test-fixed-delegate")
        assert isinstance(sched, _LabeledScheduler)
        assert sched.marker is inner.marker  # __getattr__ reaches inner
        batch = batch_factory([4.0, 2.0, 1.0])
        result = sched.schedule(batch)
        np.testing.assert_array_equal(
            result.assignment, inner.schedule(batch).assignment
        )
        np.testing.assert_array_equal(result.assignment, [0, 0, 0])

    def test_stga_requires_scenario_context(self):
        with pytest.raises(ValueError, match="scenario"):
            build_scheduler("stga", SETTINGS)

    def test_stga_builds_with_context(self):
        scenario = psa_scenario(PSAConfig(n_jobs=30), rng=5)
        stga = build_scheduler(
            "stga?capacity=17&eviction=fifo",
            SETTINGS,
            scenario=scenario,
            training=None,
            defaults=PaperDefaults(),
        )
        assert stga.name == "STGA"
        assert stga.history.capacity == 17
        assert stga.history.eviction == "fifo"

    def test_unknown_ref_raises_keyerror(self):
        with pytest.raises(KeyError, match="available"):
            build_scheduler("no-such-sched?f=0.5", SETTINGS)


class _FixedScheduler(BatchScheduler):
    """Trivial plugin: everything to site 0 (always eligible or not)."""

    @property
    def name(self):
        return "Fixed(0)"

    def schedule(self, batch):
        from repro.grid.batch import ScheduleResult

        return ScheduleResult.from_assignment(
            np.zeros(batch.n_jobs, dtype=int)
        )


class TestPluginLineup:
    def test_registered_plugin_runs_in_lineup(self):
        @register_scheduler("test-fixed", description="plugin smoke")
        def _build(settings, rng, **_):
            return _FixedScheduler()

        try:
            scenario = psa_scenario(PSAConfig(n_jobs=25), rng=3)
            reports = run_lineup(
                scenario,
                None,
                SETTINGS,
                lineup=("min-min-risky", "test-fixed"),
            )
            assert [r.scheduler for r in reports] == [
                "Min-Min Risky",
                "Fixed(0)",
            ]
        finally:
            unregister_scheduler("test-fixed")


class TestWorkloadRegistry:
    def test_build_workload_matches_variant_build(self):
        from repro.experiments.sweep import ScenarioVariant
        from repro.registry import build_workload

        variant = ScenarioVariant(
            name="x", workload="psa", n_jobs=120, n_training_jobs=0
        )
        a, a_train = build_workload(variant, 9, 1.0)
        b, b_train = variant.build_scenarios(9, 1.0)
        assert a_train is None and b_train is None
        assert a.n_jobs == b.n_jobs == 120
        assert a.jobs == b.jobs

    def test_variant_rejects_unknown_workload_listing_available(self):
        from repro.experiments.sweep import ScenarioVariant

        with pytest.raises(ValueError, match="psa"):
            ScenarioVariant(name="x", workload="no-such-workload")

    def test_nas_validator_still_rejects_arrival_rate(self):
        from repro.experiments.sweep import ScenarioVariant

        with pytest.raises(ValueError, match="PSA-only"):
            ScenarioVariant(
                name="x", workload="nas", arrival_rate=0.01
            )

    def test_plugin_workload_usable_in_variant(self):
        from repro.experiments.sweep import ScenarioVariant

        @register_workload("test-wl", description="plugin smoke")
        def _build(variant, seed, scale=1.0):
            return psa_scenario(
                PSAConfig(n_jobs=variant.n_jobs), rng=seed
            ), None

        try:
            variant = ScenarioVariant(
                name="x", workload="test-wl", n_jobs=30
            )
            scenario, training = variant.build_scenarios(4, 1.0)
            assert scenario.n_jobs == 30
            assert training is None
        finally:
            unregister_workload("test-wl")
