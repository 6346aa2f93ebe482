"""Tests for repro.experiments.store — the persistent run store.

Real sweeps here reuse the tiny tier-1 configuration of
``test_experiments_sweep`` (2 seeds, no STGA, sequential fallback);
verdict logic is additionally exercised on hand-built synthetic runs
so shifted/overlapping cases are deterministic.
"""

import json

import numpy as np
import pytest

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.runner import PAPER_LINEUP
from repro.experiments.store import (
    SCHEMA_VERSION,
    StoredRun,
    compare_runs,
    list_runs,
    load_run,
    new_run_dir,
    save_run,
    save_run_to_registry,
)
from repro.experiments.sweep import (
    ScenarioVariant,
    SweepResult,
    run_sweep,
)
from repro.metrics.compare import RunDiffRow, render_run_diff
from repro.metrics.report import PerformanceReport

TINY = RunSettings(
    ga=GAConfig(population_size=16, generations=4, flow_weight=1.0)
)


@pytest.fixture(scope="module")
def sweep_result():
    return run_sweep(
        [
            ScenarioVariant(name="psa-small", n_jobs=60, n_training_jobs=0),
            ScenarioVariant(
                name="nas-6",
                workload="nas",
                n_jobs=60,
                n_sites=6,
                n_training_jobs=0,
                ga_overrides={"generations": 2},
            ),
        ],
        (1, 2),
        settings=TINY,
        scale=0.1,
        lineup=PAPER_LINEUP[:-1],
        max_workers=1,
    )


def make_report(scheduler="S", makespan=100.0, **overrides) -> PerformanceReport:
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


def synthetic_run(makespans_per_seed, name="v") -> SweepResult:
    """One-variant one-scheduler run with the given per-seed makespans."""
    seeds = tuple(range(len(makespans_per_seed)))
    return SweepResult(
        variants=(ScenarioVariant(name=name, n_jobs=100),),
        seeds=seeds,
        reports={
            name: {
                "S": tuple(make_report(makespan=m) for m in makespans_per_seed)
            }
        },
    )


class TestSaveLoadRoundTrip:
    def test_round_trip_is_bit_identical(self, sweep_result, tmp_path):
        run_dir = save_run(sweep_result, tmp_path / "demo")
        stored = load_run(run_dir)
        # dataclass equality covers every report field exactly
        # (PerformanceReport.__eq__ is array-aware)
        assert stored.result == sweep_result
        # the acceptance check: reloaded summary grids, bit for bit
        for metric in ("makespan", "avg_response_time", "n_fail"):
            assert (
                stored.result.summary_grid(metric)
                == sweep_result.summary_grid(metric)
            )

    def test_provenance_recorded(self, sweep_result, tmp_path):
        stored = load_run(save_run(sweep_result, tmp_path / "demo", name="nightly"))
        assert stored.name == "nightly"
        assert stored.schema_version == SCHEMA_VERSION
        assert stored.created_at  # ISO wall-clock
        assert stored.git_sha is None or len(stored.git_sha) == 40
        assert stored.result.scale == sweep_result.scale
        assert stored.result.settings == TINY
        assert stored.result.elapsed_seconds is not None
        assert "2 variant(s) x 2 seed(s)" in str(stored)

    def test_variant_provenance_round_trips(self, sweep_result, tmp_path):
        stored = load_run(save_run(sweep_result, tmp_path / "demo"))
        assert stored.result.variants == sweep_result.variants
        nas = stored.result.variants[1]
        assert nas.n_sites == 6
        # ga_overrides is normalized to sorted (field, value) pairs
        assert nas.ga_overrides == (("generations", 2),)

    def test_grid_csv_written(self, sweep_result, tmp_path):
        run_dir = save_run(sweep_result, tmp_path / "demo")
        lines = (run_dir / "grid.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["variant", "scheduler", "seed"]
        assert "makespan" in header and "mean_utilization" in header
        n_cells = (
            len(sweep_result.variants)
            * len(sweep_result.schedulers())
            * len(sweep_result.seeds)
        )
        assert len(lines) == 1 + n_cells

    def test_refuses_overwrite_by_default(self, sweep_result, tmp_path):
        save_run(sweep_result, tmp_path / "demo")
        with pytest.raises(FileExistsError, match="overwrite"):
            save_run(sweep_result, tmp_path / "demo")
        save_run(sweep_result, tmp_path / "demo", overwrite=True)

    def test_manifest_provenance_round_trips(self, sweep_result, tmp_path):
        stored = load_run(save_run(
            sweep_result,
            tmp_path / "resumed",
            manifest={"path": "work/manifest.json", "spec_sha256": "ab" * 32},
        ))
        assert stored.manifest == {
            "path": "work/manifest.json",
            "spec_sha256": "ab" * 32,
        }
        # a directly-saved record carries no manifest key at all
        plain = save_run(sweep_result, tmp_path / "plain")
        payload = json.loads((plain / "run.json").read_text())
        assert "manifest" not in payload
        assert load_run(plain).manifest is None

    def test_manifest_provenance_rejects_unknown_keys(
        self, sweep_result, tmp_path
    ):
        with pytest.raises(ValueError, match="path/spec_sha256"):
            save_run(
                sweep_result,
                tmp_path / "bad",
                manifest={"path": "x", "oops": "y"},
            )

    def test_load_missing_and_bad_version(self, sweep_result, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")
        run_dir = save_run(sweep_result, tmp_path / "demo")
        record = run_dir / "run.json"
        payload = json.loads(record.read_text())
        payload["schema_version"] = 999
        record.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema_version"):
            load_run(run_dir)


class TestRegistry:
    def test_new_run_dir_layout(self, tmp_path):
        path = new_run_dir(tmp_path, "baseline")
        assert path.parent == tmp_path
        assert path.name.endswith("-baseline")
        assert path.name[:8].isdigit()  # YYYYMMDD

    def test_registry_same_second_saves_get_distinct_dirs(
        self, sweep_result, tmp_path
    ):
        # the timestamp has seconds resolution; back-to-back saves
        # must uniquify instead of tripping the overwrite guard
        a = save_run_to_registry(sweep_result, tmp_path, name="x")
        b = save_run_to_registry(sweep_result, tmp_path, name="x")
        c = save_run_to_registry(sweep_result, tmp_path, name="x")
        assert len({a, b, c}) == 3
        assert len(list_runs(tmp_path)) == 3

    def test_list_runs(self, sweep_result, tmp_path):
        assert list_runs(tmp_path / "empty") == []
        save_run_to_registry(sweep_result, tmp_path, name="a")
        save_run(sweep_result, tmp_path / "explicit", name="b")
        (tmp_path / "not-a-run").mkdir()  # ignored: no run.json
        runs = list_runs(tmp_path)
        assert [type(r) for r in runs] == [StoredRun, StoredRun]
        assert sorted(r.name for r in runs) == ["a", "b"]
        assert [r.created_at for r in runs] == sorted(
            r.created_at for r in runs
        )

    def test_list_runs_skips_and_reports_bad_records(
        self, sweep_result, tmp_path
    ):
        # one corrupt record must not make the whole registry
        # unlistable; casualties surface through the side-channel
        save_run(sweep_result, tmp_path / "good", name="good")
        truncated = save_run(sweep_result, tmp_path / "truncated")
        record = truncated / "run.json"
        record.write_text(record.read_text()[:25])
        wrong = save_run(sweep_result, tmp_path / "wrong-schema")
        payload = json.loads((wrong / "run.json").read_text())
        payload["schema_version"] = 999
        (wrong / "run.json").write_text(json.dumps(payload))

        skipped: list = []
        runs = list_runs(tmp_path, skipped=skipped)
        assert [r.name for r in runs] == ["good"]
        assert sorted(path.name for path, _ in skipped) == [
            "truncated",
            "wrong-schema",
        ]
        reasons = {path.name: reason for path, reason in skipped}
        assert "corrupted or truncated" in reasons["truncated"]
        assert "schema_version" in reasons["wrong-schema"]
        # without the side-channel the scan still survives
        assert [r.name for r in list_runs(tmp_path)] == ["good"]


class TestCompareRuns:
    def test_self_compare_all_same_zero_shift(self, sweep_result, tmp_path):
        run_dir = save_run(sweep_result, tmp_path / "demo")
        rows = compare_runs(run_dir, run_dir)
        assert rows  # every (variant, scheduler, metric) cell present
        assert all(r.verdict == "same" for r in rows)
        assert all(r.mean_shift == 0.0 for r in rows)
        assert all(r.shift_pct in (0.0,) or np.isnan(r.shift_pct) for r in rows)

    def test_accepts_results_stored_runs_and_paths(self, sweep_result, tmp_path):
        run_dir = save_run(sweep_result, tmp_path / "demo")
        stored = load_run(run_dir)
        for b in (sweep_result, stored, run_dir, str(run_dir)):
            rows = compare_runs(sweep_result, b)
            assert all(r.verdict == "same" for r in rows)

    def test_overlapping_shift_within_ci(self):
        a = synthetic_run((100.0, 110.0, 120.0))
        b = synthetic_run((102.0, 112.0, 122.0))  # +2 on a ±25 CI
        row = next(
            r for r in compare_runs(a, b) if r.metric == "makespan"
        )
        assert row.verdict == "overlap"
        assert row.mean_shift == pytest.approx(2.0)
        assert row.shift_pct == pytest.approx(2.0 / 110.0 * 100.0)

    def test_diverged_when_cis_disjoint(self):
        a = synthetic_run((100.0, 101.0, 102.0))
        b = synthetic_run((200.0, 201.0, 202.0))
        row = next(
            r for r in compare_runs(a, b) if r.metric == "makespan"
        )
        assert row.verdict == "diverged"
        assert row.mean_shift == pytest.approx(100.0)

    def test_single_seed_edge_cases(self):
        # n = 1 on both sides: zero-width CIs, so any difference is
        # a divergence and equality is "same"
        same = compare_runs(synthetic_run((5.0,)), synthetic_run((5.0,)))
        assert all(r.verdict == "same" for r in same)
        diff = next(
            r
            for r in compare_runs(synthetic_run((5.0,)), synthetic_run((6.0,)))
            if r.metric == "makespan"
        )
        assert diff.verdict == "diverged"
        assert diff.n_a == diff.n_b == 1 and diff.ci_a == diff.ci_b == 0.0

    def test_disjoint_runs_raise(self):
        a = synthetic_run((1.0,), name="left")
        b = synthetic_run((1.0,), name="right")
        with pytest.raises(ValueError, match="share no"):
            compare_runs(a, b)

    def test_render_run_diff(self):
        rows = compare_runs(
            synthetic_run((100.0, 110.0)), synthetic_run((100.0, 110.0))
        )
        out = render_run_diff(rows, title="self diff")
        assert "self diff" in out
        assert "same" in out and "±" in out
        assert isinstance(rows[0], RunDiffRow)
