"""Tests for repro.experiments.dispatch — sharded spec execution.

The acceptance invariant lives here: shard → run → merge must be
bit-identical to a single-host ``run_spec`` at the same seeds (same
per-cell reports, same ``run.json``/``grid.csv`` payloads modulo
provenance fields).  Merge edge cases — overlap conflicts, disjoint
unions, non-tiling grids, pooled-CI recomputation — run on cheap
synthetic results so every branch is deterministic.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.dispatch import (
    merge_runs,
    run_sharded,
    shard_file_name,
    shard_spec,
)
from repro.experiments.spec import ExperimentSpec, run_spec, save_spec
from repro.experiments.store import load_run, save_run
from repro.experiments.sweep import (
    MetricSummary,
    ScenarioVariant,
    SweepResult,
)
from repro.metrics.report import PerformanceReport
from repro.util.stats import t_critical

FAST = RunSettings(seed=11, ga=GAConfig(population_size=16, generations=4))

SPEC = ExperimentSpec(
    name="dispatch-tiny",
    schedulers=("min-min-risky", "sufferage-risky"),
    variants=(
        ScenarioVariant(name="psa-a", n_jobs=60, n_training_jobs=0),
        ScenarioVariant(name="psa-b", n_jobs=80, n_training_jobs=0),
    ),
    seeds=(11, 12, 13, 14),
    metrics=("makespan", "n_fail"),
    scale=0.1,
    settings=FAST,
)


@pytest.fixture(scope="module")
def single_host():
    return run_spec(SPEC, max_workers=1)


@pytest.fixture(scope="module")
def shard_results():
    """Each shard executed independently, as separate hosts would."""
    return [
        run_spec(shard, max_workers=1) for shard in shard_spec(SPEC, 2)
    ]


def assert_cells_identical(a: SweepResult, b: SweepResult) -> None:
    """Bit-identical per-cell reports modulo wall-clock seconds."""
    assert a.variants == b.variants
    assert a.seeds == b.seeds
    assert a.schedulers() == b.schedulers()
    for v in a.variants:
        for sched in a.schedulers():
            for ra, rb in zip(a.cell(v.name, sched), b.cell(v.name, sched)):
                assert replace(ra, scheduler_seconds=0.0) == replace(
                    rb, scheduler_seconds=0.0
                )


class TestShardSpec:
    def test_partition_is_deterministic(self):
        assert shard_spec(SPEC, 3) == shard_spec(SPEC, 3)

    def test_seed_axis_covers_grid_without_duplicates(self):
        shards = shard_spec(SPEC, 2, strategy="seeds")
        assert len(shards) == 2
        seen = [s for shard in shards for s in shard.seeds]
        assert tuple(seen) == SPEC.seeds  # contiguous, order-preserving
        for shard in shards:
            assert shard.variants == SPEC.variants
            assert shard.schedulers == SPEC.schedulers
            assert shard.settings == SPEC.settings
            assert shard.scale == SPEC.scale

    def test_variant_axis_covers_grid_without_duplicates(self):
        shards = shard_spec(SPEC, 2, strategy="variants")
        seen = [v for shard in shards for v in shard.variants]
        assert tuple(seen) == SPEC.variants
        for shard in shards:
            assert shard.seeds == SPEC.seeds

    def test_auto_prefers_axis_that_fills_the_shards(self):
        # 4 seeds fill 3 shards; 2 variants cannot
        assert shard_spec(SPEC, 3)[0].variants == SPEC.variants
        # 2 variants fill 2 shards, but seeds (4 >= 2) still win
        assert shard_spec(SPEC, 2)[0].seeds != SPEC.seeds
        # more shards than seeds: fall through to variants
        shards = shard_spec(replace(SPEC, seeds=(11,)), 2)
        assert len(shards) == 2
        assert shards[0].seeds == (11,)
        assert len(shards[0].variants) == 1

    def test_never_produces_an_empty_shard(self):
        shards = shard_spec(SPEC, 10, strategy="seeds")
        assert len(shards) == len(SPEC.seeds)  # capped, not padded
        assert all(shard.seeds for shard in shards)

    def test_shard_names_record_position(self):
        names = [s.name for s in shard_spec(SPEC, 2)]
        assert names == [
            "dispatch-tiny#shard-0-of-2",
            "dispatch-tiny#shard-1-of-2",
        ]

    def test_shards_json_round_trip_like_any_spec(self, tmp_path):
        for i, shard in enumerate(shard_spec(SPEC, 3)):
            assert ExperimentSpec.from_json(shard.to_json()) == shard
            path = save_spec(shard, tmp_path / shard_file_name(i, 3))
            assert ExperimentSpec.from_json(
                path.read_text(encoding="utf-8")
            ) == shard

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_spec(SPEC, 0)
        with pytest.raises(ValueError, match="strategy"):
            shard_spec(SPEC, 2, strategy="cells")

    def test_shard_file_name_pads_for_lexical_sort(self):
        assert shard_file_name(0, 2) == "shard-0-of-2.json"
        assert shard_file_name(3, 12) == "shard-03-of-12.json"
        names = [shard_file_name(i, 12) for i in range(12)]
        assert sorted(names) == names


class TestShardRunMergeEquivalence:
    """The acceptance criterion: shard → run → merge == run_spec."""

    def test_merged_cells_bit_identical_to_single_host(
        self, single_host, shard_results
    ):
        merged = SweepResult.merge(
            shard_results,
            seeds_order=SPEC.seeds,
            variants_order=[v.name for v in SPEC.variants],
        )
        assert_cells_identical(single_host, merged)

    def test_summaries_recomputed_from_pooled_raws(
        self, single_host, shard_results
    ):
        merged = merge_runs(shard_results, spec=SPEC)
        for v in SPEC.variants:
            for sched in single_host.schedulers():
                for metric in SPEC.metrics:
                    s = merged.summary(v.name, sched, metric)
                    assert s.n == len(SPEC.seeds)
                    assert s == single_host.summary(v.name, sched, metric)

    def test_run_records_identical_modulo_provenance(
        self, single_host, shard_results, tmp_path
    ):
        merged = merge_runs(shard_results, spec=SPEC)
        a = save_run(single_host, tmp_path / "seq", name="x")
        b = save_run(
            merged, tmp_path / "merged", name="x", merged_from=["p0", "p1"]
        )
        pa = json.loads((a / "run.json").read_text(encoding="utf-8"))
        pb = json.loads((b / "run.json").read_text(encoding="utf-8"))
        for payload in (pa, pb):
            for key in ("created_at", "git_sha", "elapsed_seconds"):
                payload.pop(key)
            payload.pop("merged_from", None)
            for per_sched in payload["reports"].values():
                for reps in per_sched.values():
                    for rep in reps:
                        rep["scheduler_seconds"] = 0.0
        assert pa == pb

        def rows_without_wallclock(path):
            with (path / "grid.csv").open(encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("scheduler_seconds")
            return [r[:drop] + r[drop + 1:] for r in rows]

        assert rows_without_wallclock(a) == rows_without_wallclock(b)

    def test_run_sharded_local_dispatcher(self, single_host):
        merged = run_sharded(SPEC, 2, max_workers=1)
        assert_cells_identical(single_host, merged)

    def test_run_sharded_variant_axis(self, single_host):
        merged = run_sharded(
            SPEC, 2, strategy="variants", max_workers=1
        )
        assert_cells_identical(single_host, merged)

    def test_merge_runs_accepts_paths_and_stored_runs(
        self, single_host, shard_results, tmp_path
    ):
        p0 = save_run(shard_results[0], tmp_path / "p0")
        stored1 = load_run(save_run(shard_results[1], tmp_path / "p1"))
        merged = merge_runs([p0, stored1], spec=SPEC)
        assert_cells_identical(single_host, merged)

    def test_merged_from_provenance_round_trips(
        self, shard_results, tmp_path
    ):
        merged = merge_runs(shard_results, spec=SPEC)
        run_dir = save_run(
            merged, tmp_path / "m", merged_from=["runs/p0", "runs/p1"]
        )
        stored = load_run(run_dir)
        assert stored.merged_from == ("runs/p0", "runs/p1")
        # a directly-saved record carries no merged_from key at all
        plain = save_run(shard_results[0], tmp_path / "plain")
        payload = json.loads(
            (plain / "run.json").read_text(encoding="utf-8")
        )
        assert "merged_from" not in payload
        assert load_run(plain).merged_from is None


def make_report(
    scheduler="S", makespan=100.0, **overrides
) -> PerformanceReport:
    kwargs = dict(
        scheduler=scheduler,
        n_jobs=10,
        makespan=makespan,
        avg_response_time=makespan / 2,
        avg_service_span=makespan / 4,
        slowdown_ratio=2.0,
        n_risk=3,
        n_fail=1,
        n_forced=0,
        total_attempts=11,
        site_utilization=np.array([50.0, 75.0]),
        scheduler_seconds=0.01,
        n_batches=2,
    )
    kwargs.update(overrides)
    return PerformanceReport(**kwargs)


def synthetic_run(
    makespans_per_seed,
    *,
    seeds=None,
    variant="v",
    schedulers=("S",),
    settings=None,
    scale=1.0,
    elapsed=None,
) -> SweepResult:
    """One-variant run with the given per-seed makespans per scheduler."""
    seeds = (
        tuple(seeds)
        if seeds is not None
        else tuple(range(len(makespans_per_seed)))
    )
    return SweepResult(
        variants=(ScenarioVariant(name=variant, n_jobs=100),),
        seeds=seeds,
        reports={
            variant: {
                sched: tuple(
                    make_report(scheduler=sched, makespan=m)
                    for m in makespans_per_seed
                )
                for sched in schedulers
            }
        },
        settings=settings,
        scale=scale,
        elapsed_seconds=elapsed,
    )


class TestMergeEdgeCases:
    def test_disjoint_seed_union_pools_values(self):
        a = synthetic_run([100.0, 110.0], seeds=(1, 2), elapsed=1.5)
        b = synthetic_run([120.0, 130.0], seeds=(3, 4), elapsed=2.5)
        merged = SweepResult.merge([a, b])
        assert merged.seeds == (1, 2, 3, 4)
        assert merged.summary("v", "S", "makespan").values == (
            100.0, 110.0, 120.0, 130.0,
        )
        assert merged.elapsed_seconds == 4.0

    def test_disjoint_variant_union(self):
        a = synthetic_run([100.0, 110.0], variant="va")
        b = synthetic_run([120.0, 130.0], variant="vb")
        merged = SweepResult.merge([a, b])
        assert [v.name for v in merged.variants] == ["va", "vb"]
        assert merged.seeds == (0, 1)
        assert merged.summary("vb", "S", "makespan").values == (120.0, 130.0)

    def test_self_merge_is_idempotent(self):
        a = synthetic_run([100.0, 110.0])
        merged = SweepResult.merge([a, a])
        assert merged.reports == a.reports
        assert merged.seeds == a.seeds

    def test_overlapping_cell_conflict_raises(self):
        a = synthetic_run([100.0, 110.0], seeds=(1, 2))
        b = synthetic_run([100.0, 999.0], seeds=(1, 2))
        with pytest.raises(ValueError, match="conflicting reports"):
            SweepResult.merge([a, b])

    def test_overlap_tolerates_wall_clock_differences(self):
        a = synthetic_run([100.0, 110.0], seeds=(1, 2))
        slower = SweepResult(
            variants=a.variants,
            seeds=a.seeds,
            reports={
                "v": {
                    "S": tuple(
                        replace(r, scheduler_seconds=9.9)
                        for r in a.reports["v"]["S"]
                    )
                }
            },
        )
        merged = SweepResult.merge([a, slower])
        assert merged.summary("v", "S", "makespan").values == (100.0, 110.0)

    def test_ci_recomputed_from_pooled_raws(self):
        a = synthetic_run([100.0, 104.0], seeds=(1, 2))
        b = synthetic_run([98.0, 101.0, 97.0], seeds=(3, 4, 5))
        merged = SweepResult.merge([a, b])
        pooled = (100.0, 104.0, 98.0, 101.0, 97.0)
        s = merged.summary("v", "S", "makespan")
        assert s == MetricSummary(metric="makespan", values=pooled)
        assert s.mean == float(np.mean(pooled))
        assert s.std == float(np.std(pooled, ddof=1))
        assert s.ci95 == t_critical(len(pooled) - 1) * s.std / math.sqrt(
            len(pooled)
        )

    def test_non_tiling_grid_raises(self):
        # va covers seeds {1,2}, vb covers {3,4}: the union grid has
        # holes, so the parts do not reassemble into a sweep
        a = synthetic_run([100.0, 110.0], seeds=(1, 2), variant="va")
        b = synthetic_run([120.0, 130.0], seeds=(3, 4), variant="vb")
        with pytest.raises(ValueError, match="do not tile"):
            SweepResult.merge([a, b])

    def test_scale_mismatch_raises(self):
        a = synthetic_run([100.0], scale=1.0)
        b = synthetic_run([100.0], scale=0.5)
        with pytest.raises(ValueError, match="scale"):
            SweepResult.merge([a, b])

    def test_settings_mismatch_raises(self):
        a = synthetic_run([100.0], settings=RunSettings(lam=1.0))
        b = synthetic_run([100.0], settings=RunSettings(lam=2.0))
        with pytest.raises(ValueError, match="settings"):
            SweepResult.merge([a, b])

    def test_none_settings_acts_as_wildcard(self):
        a = synthetic_run([100.0], settings=RunSettings(lam=1.0))
        b = synthetic_run([100.0], settings=None)
        assert SweepResult.merge([a, b]).settings == RunSettings(lam=1.0)

    def test_scheduler_lineup_mismatch_raises(self):
        a = synthetic_run([100.0], schedulers=("S",))
        b = synthetic_run([100.0], schedulers=("S", "T"))
        with pytest.raises(ValueError, match="lineup"):
            SweepResult.merge([a, b])

    def test_conflicting_variant_definition_raises(self):
        a = synthetic_run([100.0])
        b = SweepResult(
            variants=(ScenarioVariant(name="v", n_jobs=999),),
            seeds=(5,),
            reports={"v": {"S": (make_report(),)}},
        )
        with pytest.raises(ValueError, match="conflicting definitions"):
            SweepResult.merge([a, b])

    def test_missing_shard_diagnosed_as_absent_record(self):
        # seeds_order asks for seeds nobody ran: the multi-host story
        # is "a shard's record never arrived", and the error says so
        # instead of blaming the ordering argument
        a = synthetic_run([100.0, 110.0], seeds=(1, 2))
        with pytest.raises(ValueError, match="missing seed.*absent"):
            SweepResult.merge([a], seeds_order=(1, 2, 3))
        with pytest.raises(ValueError, match="missing variant.*absent"):
            SweepResult.merge([a], variants_order=("v", "w"))

    def test_bad_orderings_rejected(self):
        a = synthetic_run([100.0, 110.0], seeds=(1, 2))
        with pytest.raises(ValueError, match="seeds_order"):
            SweepResult.merge([a], seeds_order=(1, 3))  # drops 2, adds 3
        with pytest.raises(ValueError, match="seeds_order"):
            SweepResult.merge([a], seeds_order=(1,))  # omits a run seed
        with pytest.raises(ValueError, match="variants_order"):
            SweepResult.merge([a], variants_order=("w",))

    def test_ragged_partial_run_rejected(self):
        # a corrupted record with more reports than seeds must fail
        # loudly, not silently drop the surplus
        a = synthetic_run([100.0, 110.0], seeds=(1, 2))
        ragged = SweepResult(
            variants=a.variants,
            seeds=(1, 2),
            reports={"v": {"S": a.reports["v"]["S"] + (make_report(),)}},
        )
        with pytest.raises(ValueError, match="malformed partial run"):
            SweepResult.merge([a, ragged])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepResult.merge([])

    def test_default_seed_order_is_sorted(self):
        a = synthetic_run([120.0, 130.0], seeds=(3, 4))
        b = synthetic_run([100.0, 110.0], seeds=(1, 2))
        merged = SweepResult.merge([a, b])  # given out of order
        assert merged.seeds == (1, 2, 3, 4)
        assert merged.summary("v", "S", "makespan").values == (
            100.0, 110.0, 120.0, 130.0,
        )
