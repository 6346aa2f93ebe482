"""Tests for the repro-grid CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig8", "--scale", "0.01"])
        assert args.experiment == "fig8"
        assert args.scale == 0.01

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.seed == 2005
        assert args.lam == 3.0

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "repro-grid" in capsys.readouterr().out


class TestMain:
    def test_invalid_scale_exit_code(self, capsys):
        assert main(["fig8", "--scale", "2.0"]) == 2
        assert "scale" in capsys.readouterr().err

    def test_fig7a_runs(self, capsys):
        # minimum scale floor inside scale_jobs keeps this tractable
        assert main(["fig7a", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7(a)" in out
        assert "best f" in out

    def test_table2_runs(self, capsys):
        assert main(["table2", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "Table 2 (measured)" in out

    def test_sweep_runs(self, capsys):
        # n_seeds=2, max_workers=1: the tier-1 fast path (no fork)
        assert main([
            "sweep", "--scale", "0.002",
            "--sweep-seeds", "2",
            "--sweep-jobs", "100",
            "--max-workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sweep: makespan over 2 seed(s)" in out
        assert "±" in out
        assert "Table 2 over the sweep ensemble" in out

    def test_sweep_bad_jobs_exit_code(self, capsys):
        assert main(["sweep", "--sweep-jobs", "ten"]) == 2
        assert "sweep-jobs" in capsys.readouterr().err

    def test_sweep_no_seeds_exit_code(self, capsys):
        assert main(["sweep", "--sweep-seeds", "0"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_sweep_bad_workers_exit_code(self, capsys):
        assert main(["sweep", "--max-workers", "0"]) == 2
        assert "max-workers" in capsys.readouterr().err

    def test_sweep_nonpositive_jobs_exit_code(self, capsys):
        assert main(["sweep", "--sweep-jobs", "0,1000"]) == 2
        assert "sweep-jobs" in capsys.readouterr().err

    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.sweep_seeds == 3
        assert args.sweep_workload == "psa"
        assert args.max_workers is None
        assert args.out is None

    def test_sweep_out_then_compare_runs_self(self, capsys, tmp_path):
        """The acceptance flow: sweep --out DIR; compare-runs DIR DIR
        exits 0 with zero mean-shift in every cell."""
        out_dir = str(tmp_path / "demo")
        assert main([
            "sweep", "--scale", "0.002",
            "--sweep-seeds", "2",
            "--sweep-jobs", "100",
            "--max-workers", "1",
            "--out", out_dir,
        ]) == 0
        assert f"saved run record to {out_dir}" in capsys.readouterr().out
        assert main(["compare-runs", out_dir, out_dir]) == 0
        out = capsys.readouterr().out
        assert "Run diff" in out
        assert "0 diverged" in out
        # every cell reports a zero mean shift
        from repro.experiments.store import compare_runs

        assert all(r.mean_shift == 0.0 for r in compare_runs(out_dir, out_dir))

    def test_compare_runs_wrong_arity(self, capsys, tmp_path):
        # the missing RUN_B is an argparse usage error now
        assert main(["compare-runs", str(tmp_path)]) == 2
        assert "RUN_B" in capsys.readouterr().err

    def test_compare_runs_missing_record(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        assert main(["compare-runs", a, a]) == 2
        assert "run record" in capsys.readouterr().err

    def test_compare_runs_malformed_record(self, capsys, tmp_path):
        # valid JSON, right schema version, but not a run record —
        # must exit 2 with a message, not traceback on KeyError
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "run.json").write_text('{"schema_version": 1}')
        assert main(["compare-runs", str(bad), str(bad)]) == 2
        assert "malformed run record" in capsys.readouterr().err

    def test_runs_positional_rejected_elsewhere(self, capsys):
        # a stray RUN_DIR after a figure experiment must error out,
        # not be silently ignored
        assert main(["fig8", "runs/x"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_rejected_outside_sweep(self, capsys, tmp_path):
        # --out must not be silently ignored for other experiments
        assert main(["fig8", "--out", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRegistryCommand:
    def test_lists_schedulers_and_workloads(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        assert "stga" in out
        assert "min-min-risky" in out
        assert "psa" in out
        assert "nas" in out


class TestSpecCommands:
    def test_emit_spec_stdout_is_valid_json(self, capsys):
        assert main(["emit-spec", "fig8", "--scale", "0.002"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "experiment-spec"
        assert payload["schedulers"][-1] == "stga"
        assert payload["scale"] == 0.002

    def test_emit_spec_unknown_builder(self, capsys):
        assert main(["emit-spec", "fig99"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_emit_then_run_spec(self, capsys, tmp_path):
        spec_file = str(tmp_path / "spec.json")
        assert main([
            "emit-spec", "fig7a", "--scale", "0.002", "--out", spec_file,
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", spec_file, "--max-workers", "1",
            "--out", str(tmp_path / "rec"),
        ]) == 0
        out = capsys.readouterr().out
        assert "fig7a-frisky-sweep" in out
        assert "Sweep: makespan" in out
        assert "saved run record" in out

    def test_run_missing_spec(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        # the diagnostic names the offending argument, RUN_A-style
        assert "SPEC.json" in err and "no such file or directory" in err

    def test_run_malformed_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 99}')
        assert main(["run", str(bad)]) == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_run_duplicate_report_names_exit_2(self, capsys, tmp_path):
        # two refs that build distinct schedulers with one report name
        # must exit 2 with a message, not traceback mid-aggregation
        from repro.experiments.fig8 import nas_spec

        payload = nas_spec(scale=0.002).to_dict()
        payload["schedulers"] = [
            "min-min-f-risky", "min-min-f-risky?f=0.5",
        ]
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(payload))
        assert main(["run", str(bad), "--max-workers", "1"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_run_colliding_factory_param_exit_2(self, capsys, tmp_path):
        # `lam` is factory-fixed (comes from settings); a ref that
        # passes it again must be a clean error
        from repro.experiments.fig8 import nas_spec

        payload = nas_spec(scale=0.002).to_dict()
        payload["schedulers"] = ["min-min-risky?lam=2.0"]
        bad = tmp_path / "collide.json"
        bad.write_text(json.dumps(payload))
        assert main(["run", str(bad), "--max-workers", "1"]) == 2
        assert "failed" in capsys.readouterr().err

    def test_run_stale_backend_ref_param_exit_2(self, capsys, tmp_path):
        # the execution-backend switch is gone; a spec still asking for
        # it is refused cleanly instead of being silently ignored
        from repro.experiments.fig8 import nas_spec

        payload = nas_spec(scale=0.002).to_dict()
        payload["schedulers"] = ["stga?backend=fast"]
        bad = tmp_path / "stale.json"
        bad.write_text(json.dumps(payload))
        assert main(["run", str(bad), "--max-workers", "1"]) == 2
        assert "backend" in capsys.readouterr().err

    def test_run_unknown_scheduler_ref(self, capsys, tmp_path):
        from repro.experiments.fig8 import nas_spec
        from repro.experiments.spec import save_spec

        spec = nas_spec(scale=0.002)
        payload = spec.to_dict()
        payload["schedulers"] = ["no-such-algorithm"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "no-such-algorithm" in err
        assert "available" in err


class TestShardMergeCommands:
    def _emit_spec(self, tmp_path) -> str:
        spec_file = str(tmp_path / "spec.json")
        assert main([
            "emit-spec", "fig7a", "--scale", "0.002",
            "--spec-seeds", "2", "--out", spec_file,
        ]) == 0
        return spec_file

    def test_shard_run_merge_round_trip(self, capsys, tmp_path):
        """The CI smoke job's shape: shard, run each part (one via a
        shard file, one via --shard-index), merge, self-compare."""
        spec_file = self._emit_spec(tmp_path)
        assert main([
            "shard", spec_file, "--shards", "2",
            "--out-dir", str(tmp_path / "shards"),
        ]) == 0
        out = capsys.readouterr().out
        assert "shard-0-of-2.json" in out
        assert "shard-1-of-2.json" in out

        assert main([
            "run", str(tmp_path / "shards" / "shard-0-of-2.json"),
            "--max-workers", "1", "--out", str(tmp_path / "p0"),
        ]) == 0
        assert main([
            "run", spec_file, "--shard-index", "1", "--num-shards", "2",
            "--max-workers", "1", "--out", str(tmp_path / "p1"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "merge", str(tmp_path / "p0"), str(tmp_path / "p1"),
            "--spec", spec_file, "--out", str(tmp_path / "merged"),
        ]) == 0
        out = capsys.readouterr().out
        assert "merged 2 partial record(s)" in out
        assert "saved merged run record" in out

        # the merged record equals a sequential run of the full spec
        assert main([
            "run", spec_file, "--max-workers", "1",
            "--out", str(tmp_path / "seq"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare-runs", str(tmp_path / "seq"), str(tmp_path / "merged"),
            "--fail-on-regression", "--threshold", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 diverged" in out
        assert "regression gate: clean" in out

    def test_shard_caps_at_axis_length(self, capsys, tmp_path):
        spec_file = self._emit_spec(tmp_path)  # 2 seeds, 1 variant
        assert main([
            "shard", spec_file, "--shards", "5",
            "--out-dir", str(tmp_path / "shards"),
        ]) == 0
        out = capsys.readouterr().out
        assert "only partitions into 2 shard(s)" in out

    def test_shard_missing_spec(self, capsys, tmp_path):
        assert main([
            "shard", str(tmp_path / "nope.json"),
            "--shards", "2", "--out-dir", str(tmp_path / "s"),
        ]) == 2
        err = capsys.readouterr().err
        assert "SPEC.json" in err and "no such file or directory" in err

    def test_shard_bad_count(self, capsys, tmp_path):
        spec_file = self._emit_spec(tmp_path)
        assert main([
            "shard", spec_file, "--shards", "0",
            "--out-dir", str(tmp_path / "s"),
        ]) == 2
        assert "shards" in capsys.readouterr().err

    def test_run_shard_flags_must_pair(self, capsys, tmp_path):
        spec_file = self._emit_spec(tmp_path)
        assert main(["run", spec_file, "--shard-index", "0"]) == 2
        assert "together" in capsys.readouterr().err
        assert main(["run", spec_file, "--num-shards", "2"]) == 2
        assert "together" in capsys.readouterr().err

    def test_run_unpaired_shard_strategy_rejected(self, capsys, tmp_path):
        spec_file = self._emit_spec(tmp_path)
        assert main([
            "run", spec_file, "--shard-strategy", "variants",
        ]) == 2
        assert "shard-strategy" in capsys.readouterr().err

    def test_run_shard_index_out_of_range(self, capsys, tmp_path):
        spec_file = self._emit_spec(tmp_path)
        assert main([
            "run", spec_file, "--shard-index", "7", "--num-shards", "2",
            "--max-workers", "1",
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_merge_conflicting_records_exit_2(self, capsys, tmp_path):
        # the same (variant, seed) cells with different numbers: the
        # overlap is not bit-identical, so the merge must refuse
        spec_file = self._emit_spec(tmp_path)
        assert main([
            "run", spec_file, "--max-workers", "1",
            "--out", str(tmp_path / "a"),
        ]) == 0
        payload = json.loads(
            (tmp_path / "a" / "run.json").read_text(encoding="utf-8")
        )
        for per_sched in payload["reports"].values():
            for reps in per_sched.values():
                for rep in reps:
                    rep["makespan"] += 1.0
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "run.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )
        capsys.readouterr()
        assert main([
            "merge", str(tmp_path / "a"), str(tmp_path / "b"),
            "--out", str(tmp_path / "m"),
        ]) == 2
        assert "conflicting reports" in capsys.readouterr().err

    def test_merge_with_absent_shard_exit_2(self, capsys, tmp_path):
        # merging only part of the partition with --spec must point at
        # the absent shard, not succeed with a hole
        spec_file = self._emit_spec(tmp_path)  # 2 seeds
        assert main([
            "run", spec_file, "--shard-index", "0", "--num-shards", "2",
            "--max-workers", "1", "--out", str(tmp_path / "p0"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "merge", str(tmp_path / "p0"),
            "--spec", spec_file, "--out", str(tmp_path / "m"),
        ]) == 2
        err = capsys.readouterr().err
        assert "missing seed" in err
        assert "absent" in err

    def test_merge_missing_record_exit_2(self, capsys, tmp_path):
        assert main([
            "merge", str(tmp_path / "nope"), "--out", str(tmp_path / "m"),
        ]) == 2
        err = capsys.readouterr().err
        assert "RUN_DIR" in err and "no such file or directory" in err

    def test_merge_bad_spec_blames_the_spec(self, capsys, tmp_path):
        # a broken --spec file must not be misreported as a malformed
        # run record
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "kind": "experiment-spec"}')
        assert main([
            "merge", str(tmp_path / "r"),
            "--spec", str(bad), "--out", str(tmp_path / "m"),
        ]) == 2
        assert "invalid spec" in capsys.readouterr().err


class TestRegressionGate:
    def _save_run(self, tmp_path, name, makespans, n_fail=0):
        """A minimal 1-variant, 1-scheduler stored run with the given
        per-seed makespans."""
        from dataclasses import replace

        from repro.experiments.config import RunSettings
        from repro.experiments.store import save_run
        from repro.experiments.sweep import (
            ScenarioVariant,
            SweepResult,
        )
        from repro.metrics.report import PerformanceReport
        import numpy as np

        base = PerformanceReport(
            scheduler="Min-Min Risky",
            n_jobs=10,
            makespan=1.0,
            avg_response_time=1.0,
            avg_service_span=1.0,
            slowdown_ratio=1.0,
            n_risk=0,
            n_fail=0,
            n_forced=0,
            total_attempts=10,
            site_utilization=np.zeros(2),
            scheduler_seconds=0.0,
            n_batches=1,
        )
        reports = tuple(
            replace(base, makespan=m, n_fail=n_fail) for m in makespans
        )
        res = SweepResult(
            variants=(ScenarioVariant(name="v", n_jobs=100),),
            seeds=tuple(range(len(makespans))),
            reports={"v": {"Min-Min Risky": reports}},
            settings=RunSettings(),
            scale=0.01,
        )
        return str(save_run(res, tmp_path / name))

    def test_gate_clean_on_identical_runs(self, capsys, tmp_path):
        a = self._save_run(tmp_path, "a", (100.0, 101.0))
        assert main([
            "compare-runs", a, a, "--fail-on-regression",
        ]) == 0
        assert "regression gate: clean" in capsys.readouterr().out

    def test_gate_fails_on_large_divergent_regression(self, capsys, tmp_path):
        a = self._save_run(tmp_path, "a", (100.0, 101.0))
        b = self._save_run(tmp_path, "b", (150.0, 151.0))
        assert main([
            "compare-runs", a, b, "--fail-on-regression", "--threshold", "5",
        ]) == 1
        err = capsys.readouterr().err
        assert "regression gate" in err
        assert "makespan" in err

    def test_gate_ignores_improvements(self, capsys, tmp_path):
        a = self._save_run(tmp_path, "a", (150.0, 151.0))
        b = self._save_run(tmp_path, "b", (100.0, 101.0))
        assert main([
            "compare-runs", a, b, "--fail-on-regression", "--threshold", "5",
        ]) == 0

    def test_gate_threshold_tolerates_small_shifts(self, capsys, tmp_path):
        # zero per-run variance so a 3% shift is statistically visible
        a = self._save_run(tmp_path, "a", (100.0, 100.0))
        b = self._save_run(tmp_path, "b", (103.0, 103.0))  # 3% worse
        assert main([
            "compare-runs", a, b, "--fail-on-regression", "--threshold", "50",
        ]) == 0
        assert main([
            "compare-runs", a, b, "--fail-on-regression", "--threshold", "1",
        ]) == 1

    def test_gate_zero_baseline_reports_absolute_rise(
        self, capsys, tmp_path
    ):
        # n_fail 0 -> 5 has an undefined percent shift; the gate must
        # still fail and print the absolute rise, not "+nan%"
        a = self._save_run(tmp_path, "a", (100.0, 100.0), n_fail=0)
        b = self._save_run(tmp_path, "b", (100.0, 100.0), n_fail=5)
        assert main([
            "compare-runs", a, b, "--fail-on-regression",
        ]) == 1
        err = capsys.readouterr().err
        assert "n_fail" in err
        assert "nan" not in err
        assert "from zero" in err

    def test_gate_negative_threshold_rejected(self, capsys, tmp_path):
        a = self._save_run(tmp_path, "a", (100.0,))
        assert main([
            "compare-runs", a, a, "--fail-on-regression", "--threshold", "-1",
        ]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_plain_compare_still_exits_zero_on_divergence(
        self, capsys, tmp_path
    ):
        # without --fail-on-regression the diff is informational
        a = self._save_run(tmp_path, "a", (100.0, 101.0))
        b = self._save_run(tmp_path, "b", (150.0, 151.0))
        assert main(["compare-runs", a, b]) == 0


class TestManifestCLI:
    """shard-written manifests, status, resume, merge --allow-partial:
    the crash-recovery loop at the CLI surface (the CI crash-resume
    smoke job runs the same commands)."""

    def _tiny_spec(self, tmp_path):
        from repro.core.ga import GAConfig
        from repro.experiments.config import RunSettings
        from repro.experiments.spec import ExperimentSpec, save_spec
        from repro.experiments.sweep import ScenarioVariant

        spec = ExperimentSpec(
            name="cli-manifest-tiny",
            schedulers=("min-min-risky",),
            variants=(
                ScenarioVariant(name="psa", n_jobs=60, n_training_jobs=0),
            ),
            seeds=(11, 12),
            metrics=("makespan",),
            scale=0.1,
            settings=RunSettings(
                seed=11, ga=GAConfig(population_size=16, generations=4)
            ),
        )
        return str(save_spec(spec, tmp_path / "spec.json"))

    def _sharded(self, capsys, tmp_path):
        spec_file = self._tiny_spec(tmp_path)
        assert main([
            "shard", spec_file, "--shards", "2",
            "--out-dir", str(tmp_path / "work"),
        ]) == 0
        capsys.readouterr()
        return spec_file, str(tmp_path / "work" / "manifest.json")

    def test_shard_writes_all_pending_manifest(self, capsys, tmp_path):
        spec_file = self._tiny_spec(tmp_path)
        assert main([
            "shard", spec_file, "--shards", "2",
            "--out-dir", str(tmp_path / "work"),
        ]) == 0
        out = capsys.readouterr().out
        assert "manifest.json (2 shard(s), all pending)" in out
        assert "repro-grid resume" in out
        assert (tmp_path / "work" / "manifest.json").is_file()

    def test_status_on_fresh_manifest_exits_one(self, capsys, tmp_path):
        _, manifest = self._sharded(capsys, tmp_path)
        assert main(["status", manifest]) == 1
        out = capsys.readouterr().out
        assert "cli-manifest-tiny" in out
        assert "pending" in out
        assert "0% complete" in out
        assert "repro-grid resume" in out

    def test_crash_resume_merge_equals_sequential(
        self, capsys, tmp_path, monkeypatch
    ):
        """The acceptance flow: kill shard 0 mid-flight, resume the
        manifest, gate the merged record against a sequential run at
        threshold 0."""
        from repro.experiments.dispatch import FAULT_ENV

        spec_file, manifest = self._sharded(capsys, tmp_path)
        monkeypatch.setenv(FAULT_ENV, "0")
        assert main([
            "resume", manifest, "--out", str(tmp_path / "merged"),
            "--max-workers", "1", "--max-retries", "0",
        ]) == 1
        err = capsys.readouterr().err
        assert "shard 0" in err
        assert "fault injection" in err
        assert "resume again" in err
        monkeypatch.delenv(FAULT_ENV)

        assert main(["status", manifest]) == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "50% complete" in out

        assert main([
            "resume", manifest, "--out", str(tmp_path / "merged"),
            "--max-workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "dispatching shard(s) [0] of 2" in out
        assert "saved merged run record" in out

        assert main(["status", manifest]) == 0
        assert "all shards done" in capsys.readouterr().out

        assert main([
            "run", spec_file, "--max-workers", "1",
            "--out", str(tmp_path / "seq"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare-runs", str(tmp_path / "seq"), str(tmp_path / "merged"),
            "--fail-on-regression", "--threshold", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 diverged" in out
        assert "regression gate: clean" in out

        # the merged record carries manifest + merged_from provenance
        from repro.experiments.store import load_run

        stored = load_run(tmp_path / "merged")
        assert stored.manifest is not None
        assert stored.manifest["path"] == manifest
        assert stored.merged_from is not None
        assert len(stored.merged_from) == 2

    def test_resume_all_done_merges_only(self, capsys, tmp_path):
        _, manifest = self._sharded(capsys, tmp_path)
        assert main(["resume", manifest, "--max-workers", "1"]) == 0
        capsys.readouterr()
        assert main(["resume", manifest, "--max-workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "already done, merging only" in out
        # default --out is <manifest dir>/merged
        assert (tmp_path / "work" / "merged" / "run.json").is_file()

    def test_resume_announces_stale_done_shard_redo(
        self, capsys, tmp_path
    ):
        # a "done" shard whose run record vanished is redone — and the
        # dispatch plan printed up front must say so, not claim a
        # merge-only no-op
        _, manifest = self._sharded(capsys, tmp_path)
        assert main(["resume", manifest, "--max-workers", "1"]) == 0
        (tmp_path / "work" / "part-1" / "run.json").unlink()
        capsys.readouterr()
        assert main(["resume", manifest, "--max-workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "dispatching shard(s) [1] of 2" in out
        assert "already done" not in out

    def test_status_and_resume_reject_corrupt_manifest(
        self, capsys, tmp_path
    ):
        bad = tmp_path / "manifest.json"
        bad.write_text("{truncated", encoding="utf-8")
        assert main(["status", str(bad)]) == 2
        assert "corrupted or truncated" in capsys.readouterr().err
        assert main(["resume", str(bad)]) == 2
        assert "corrupted or truncated" in capsys.readouterr().err

    def test_resume_bad_options_exit_two(self, capsys, tmp_path):
        _, manifest = self._sharded(capsys, tmp_path)
        assert main([
            "resume", manifest, "--max-retries", "-1",
        ]) == 2
        assert "max-retries" in capsys.readouterr().err
        assert main([
            "resume", manifest, "--max-workers", "0",
        ]) == 2
        assert "max-workers" in capsys.readouterr().err

    def test_merge_allow_partial_reports_completion(
        self, capsys, tmp_path
    ):
        spec_file, manifest = self._sharded(capsys, tmp_path)
        assert main([
            "run", str(tmp_path / "work" / "shard-0-of-2.json"),
            "--max-workers", "1", "--out", str(tmp_path / "p0"),
        ]) == 0
        capsys.readouterr()
        # without the flag the incomplete set is refused
        assert main([
            "merge", str(tmp_path / "p0"),
            "--spec", spec_file, "--out", str(tmp_path / "m"),
        ]) == 2
        assert "absent" in capsys.readouterr().err
        # with it: completion report + maximal complete sub-grid saved
        assert main([
            "merge", str(tmp_path / "p0"),
            "--spec", spec_file, "--out", str(tmp_path / "m"),
            "--allow-partial",
        ]) == 0
        out = capsys.readouterr().out
        assert "completion: 1/2" in out
        assert "50.0%" in out
        assert "missing" in out
        assert "maximal complete sub-grid" in out
        assert "saved merged run record" in out
        from repro.experiments.store import load_run

        assert load_run(tmp_path / "m").result.seeds == (11,)


class TestRunsStore:
    """The runs subcommand family and --store threading."""

    def _micro_sweep(self, capsys, dest: list[str]) -> None:
        assert main([
            "sweep", "--scale", "0.002",
            "--sweep-seeds", "2",
            "--sweep-jobs", "100",
            "--max-workers", "1",
            *dest,
        ]) == 0
        capsys.readouterr()

    def test_sweep_store_then_runs_list_show(self, capsys, tmp_path):
        uri = f"sqlite:{tmp_path / 'runs.db'}"
        self._micro_sweep(capsys, ["--store", uri])
        assert main(["runs", "list", "--store", uri]) == 0
        out = capsys.readouterr().out
        assert "'sweep'" in out
        assert "1 variant(s) x 2 seed(s)" in out
        assert main(["runs", "show", "1", "--store", uri]) == 0
        out = capsys.readouterr().out
        assert "name: sweep" in out
        assert "Sweep: makespan" in out

    def test_import_export_round_trip_bit_identical(self, capsys, tmp_path):
        src = tmp_path / "src"
        self._micro_sweep(capsys, ["--out", str(src)])
        uri = f"sqlite:{tmp_path / 'runs.db'}"
        assert main(["runs", "import", str(src), "--store", uri]) == 0
        assert "imported" in capsys.readouterr().out
        out_dir = tmp_path / "roundtrip"
        assert main(["runs", "export", "1", str(out_dir), "--store", uri]) == 0
        capsys.readouterr()
        assert (
            (out_dir / "run.json").read_bytes()
            == (src / "run.json").read_bytes()
        )
        # and the round-tripped record gates clean against the original
        assert main([
            "compare-runs", str(src), str(out_dir),
            "--fail-on-regression", "--threshold", "0",
        ]) == 0
        assert "0 diverged" in capsys.readouterr().out

    def test_repro_store_env_is_the_runs_default(
        self, capsys, tmp_path, monkeypatch
    ):
        uri = f"sqlite:{tmp_path / 'runs.db'}"
        monkeypatch.setenv("REPRO_STORE", uri)
        assert main(["runs", "list"]) == 0
        assert f"no runs in {uri}" in capsys.readouterr().out

    def test_runs_list_empty_fs_store(self, capsys, tmp_path):
        uri = f"fs:{tmp_path / 'registry'}"
        assert main(["runs", "list", "--store", uri]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_runs_list_warns_about_skipped_records(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        src = tmp_path / "src"
        self._micro_sweep(capsys, ["--out", str(src)])
        uri = f"fs:{registry}"
        assert main(["runs", "import", str(src), "--store", uri]) == 0
        bad = registry / "bad"
        bad.mkdir()
        (bad / "run.json").write_text("{truncated")
        capsys.readouterr()
        assert main(["runs", "list", "--store", uri]) == 0
        captured = capsys.readouterr()
        assert "src" in captured.out  # the good record still lists
        assert "skipped" in captured.err
        assert "bad" in captured.err

    def test_runs_show_unknown_ref_exit_2(self, capsys, tmp_path):
        uri = f"sqlite:{tmp_path / 'runs.db'}"
        assert main(["runs", "show", "42", "--store", uri]) == 2
        assert "no run '42'" in capsys.readouterr().err

    def test_runs_import_missing_dir_exit_2(self, capsys, tmp_path):
        uri = f"sqlite:{tmp_path / 'runs.db'}"
        assert main([
            "runs", "import", str(tmp_path / "nope"), "--store", uri,
        ]) == 2
        err = capsys.readouterr().err
        assert "RUN_DIR" in err and "no such file or directory" in err

    def test_bad_store_uri_exit_2(self, capsys, tmp_path):
        assert main(["runs", "list", "--store", "bogus:x"]) == 2
        assert "unknown store backend" in capsys.readouterr().err

    def test_future_db_version_refused_exit_2(self, capsys, tmp_path):
        import sqlite3

        db = tmp_path / "future.db"
        conn = sqlite3.connect(db)
        conn.execute("PRAGMA user_version=99")
        conn.commit()
        conn.close()
        assert main(["runs", "list", "--store", f"sqlite:{db}"]) == 2
        assert "newer tool" in capsys.readouterr().err

    def test_out_and_store_mutually_exclusive(self, capsys, tmp_path):
        assert main([
            "sweep", "--out", str(tmp_path / "d"),
            "--store", f"sqlite:{tmp_path / 'r.db'}",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_merge_requires_exactly_one_destination(self, capsys, tmp_path):
        assert main(["merge", str(tmp_path / "p0")]) == 2
        assert "exactly one of --out and --store" in capsys.readouterr().err
        assert main([
            "merge", str(tmp_path / "p0"),
            "--out", str(tmp_path / "m"),
            "--store", f"sqlite:{tmp_path / 'r.db'}",
        ]) == 2
        assert "exactly one of --out and --store" in capsys.readouterr().err

    def test_compare_runs_error_names_the_bad_argument(
        self, capsys, tmp_path
    ):
        good = tmp_path / "good"
        self._micro_sweep(capsys, ["--out", str(good)])
        missing = tmp_path / "nope"
        assert main(["compare-runs", str(good), str(missing)]) == 2
        err = capsys.readouterr().err
        assert "RUN_B" in err and str(missing) in err
        assert "RUN_A" not in err
        assert main(["compare-runs", str(missing), str(good)]) == 2
        err = capsys.readouterr().err
        assert "RUN_A" in err and "RUN_B" not in err

    def test_compare_runs_by_store_refs(self, capsys, tmp_path):
        uri = f"sqlite:{tmp_path / 'runs.db'}"
        self._micro_sweep(capsys, ["--store", uri])
        self._micro_sweep(capsys, ["--store", uri])
        assert main(["compare-runs", "1", "2", "--store", uri]) == 0
        assert "0 diverged" in capsys.readouterr().out

    def test_merge_to_store(self, capsys, tmp_path):
        spec_file = str(tmp_path / "spec.json")
        assert main([
            "emit-spec", "fig7a", "--scale", "0.002", "--spec-seeds", "2",
            "--out", spec_file,
        ]) == 0
        for i in range(2):
            assert main([
                "run", spec_file, "--max-workers", "1",
                "--shard-index", str(i), "--num-shards", "2",
                "--out", str(tmp_path / f"p{i}"),
            ]) == 0
        capsys.readouterr()
        uri = f"sqlite:{tmp_path / 'runs.db'}"
        assert main([
            "merge", str(tmp_path / "p0"), str(tmp_path / "p1"),
            "--spec", spec_file, "--store", uri,
        ]) == 0
        out = capsys.readouterr().out
        assert "saved merged run record to 1 in sqlite:" in out
        assert main(["runs", "list", "--store", uri]) == 0
        assert "2 seed(s)" in capsys.readouterr().out


class TestServiceCommands:
    """Argument validation for serve/submit/jobs/cancel — everything
    that must fail before (or without) a running service.  The live
    service paths are covered by tests/test_service.py."""

    def test_serve_refuses_fs_store(self, capsys, tmp_path):
        assert main(["serve", "--store", f"fs:{tmp_path}"]) == 2
        assert "sqlite store" in capsys.readouterr().err

    def test_serve_refuses_bad_uri(self, capsys):
        assert main(["serve", "--store", "redis:nope"]) == 2
        assert "unknown store backend" in capsys.readouterr().err

    def test_serve_refuses_bad_port(self, capsys, tmp_path):
        db = str(tmp_path / "svc.db")
        assert main([
            "serve", "--store", f"sqlite:{db}", "--port", "70000",
        ]) == 2
        assert "--port" in capsys.readouterr().err

    def test_serve_refuses_bad_max_workers(self, capsys, tmp_path):
        db = str(tmp_path / "svc.db")
        assert main([
            "serve", "--store", f"sqlite:{db}", "--max-workers", "0",
        ]) == 2
        assert "--max-workers" in capsys.readouterr().err

    def test_submit_missing_spec_file(self, capsys, tmp_path):
        assert main(["submit", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "SPEC.json" in err and "no such file" in err

    def test_submit_invalid_spec_exits_2_before_network(
        self, capsys, tmp_path
    ):
        # local validation: a malformed spec never earns a connection
        # attempt (the URL below has nothing listening)
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 99}')
        assert main([
            "submit", str(bad), "--url", "http://127.0.0.1:9",
        ]) == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_submit_bad_timeout(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        assert main([
            "submit", str(spec), "--wait", "--timeout", "0",
        ]) == 2
        assert "--timeout" in capsys.readouterr().err

    def test_unreachable_service_exits_1(self, capsys, tmp_path):
        # discard port 9: reserved, nothing listens in test envs
        url = "http://127.0.0.1:9"
        spec_file = str(tmp_path / "spec.json")
        assert main([
            "emit-spec", "fig7a", "--scale", "0.002", "--out", spec_file,
        ]) == 0
        capsys.readouterr()
        assert main(["submit", spec_file, "--url", url]) == 1
        assert "cannot reach" in capsys.readouterr().err
        assert main(["jobs", "--url", url]) == 1
        assert "cannot reach" in capsys.readouterr().err
        assert main(["cancel", "1", "--url", url]) == 1
        assert "cannot reach" in capsys.readouterr().err

class TestReplayCommand:
    def test_record_replay_compare_loop(self, capsys, tmp_path):
        """The dynamic acceptance flow: record traces during a sweep,
        replay them bit-identically, and gate with compare-runs."""
        traces = str(tmp_path / "traces")
        orig = str(tmp_path / "orig")
        replayed = str(tmp_path / "replayed")
        assert main([
            "sweep", "--scale", "0.002",
            "--sweep-seeds", "2",
            "--sweep-jobs", "100",
            "--max-workers", "1",
            "--sweep-workload", "psa?dynamics=poisson&online=true",
            "--record-traces", traces,
            "--out", orig,
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "trace(s)" in out
        assert main(["replay", traces, "--out", replayed]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "MISMATCH" not in out
        assert main([
            "compare-runs", orig, replayed,
            "--fail-on-regression", "--threshold", "0",
        ]) == 0
        assert "0 diverged" in capsys.readouterr().out

    def test_replay_missing_trace_exit_2(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_replay_empty_dir_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["replay", str(empty)]) == 2
        assert "no *.jsonl" in capsys.readouterr().err

    @staticmethod
    def _recorded_cell(tmp_path):
        """One recorded 20-job (PSA, seed 2005, Min-Min secure) trace."""
        from repro.experiments.spec import run_cell
        from repro.experiments.sweep import ScenarioVariant
        from repro.grid.trace import save_trace

        variant = ScenarioVariant(
            name="PSA s", workload="psa", n_jobs=20, n_training_jobs=0
        )
        [(_, trace)] = run_cell(
            variant, 2005, ("min-min-secure",), record=True
        )
        return save_trace(tmp_path / "cell.jsonl", trace)

    def test_replay_mismatch_exit_1(self, capsys, tmp_path):
        import json as _json

        path = self._recorded_cell(tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            row = _json.loads(line)
            if row.get("row") == "attempt":
                row["end"] += 1.0
                lines[i] = _json.dumps(
                    row, sort_keys=True, separators=(",", ":")
                )
                break
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "tamper, key",
        [
            (lambda meta: meta["variant"].update(bogus=1), "bogus"),
            (lambda meta: meta.update(variant=["PSA s"]), "variant"),
            (lambda meta: meta.pop("report"), "report"),
            (lambda meta: meta.update(scheduler="nope"), "scheduler"),
            # parses, but the recorded cell cannot run
            (lambda meta: meta.update(scale=-1.0), "scale"),
        ],
        ids=[
            "unknown-variant-key",
            "variant-not-an-object",
            "no-report",
            "unknown-scheduler-ref",
            "scale-out-of-range",
        ],
    )
    def test_replay_malformed_meta_exit_2(self, capsys, tmp_path, tamper, key):
        """Bad trace metadata is a usage error (exit 2, naming the file
        and the key), never a traceback or the exit-1 mismatch verdict."""
        from repro.experiments.replay import replay_trace

        path = self._recorded_cell(tmp_path)
        head, *rows = path.read_text().splitlines()
        header = json.loads(head)
        tamper(header["meta"])
        path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        with pytest.raises(ValueError, match=key) as info:
            replay_trace(path)
        assert str(path) in str(info.value)
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count(str(path)) == 1 and key in err

    @pytest.mark.parametrize(
        "first_line, message",
        [
            ('{"kind": "something-else"}', "not a grid trace"),
            ("not json at all", "header is not JSON"),
            ('{"kind": "grid-trace", "schema_version": 99}',
             "unsupported trace schema_version 99"),
        ],
        ids=["bad-header", "bad-json", "wrong-schema-version"],
    )
    def test_replay_bad_trace_names_the_path_once(
        self, capsys, tmp_path, first_line, message
    ):
        path = self._recorded_cell(tmp_path)
        rows = path.read_text().splitlines()[1:]
        path.write_text("\n".join([first_line, *rows]) + "\n")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count(str(path)) == 1 and message in err
        assert err.startswith(f"{path}:1: ")

    def test_replay_bad_row_names_its_line(self, capsys, tmp_path):
        path = self._recorded_cell(tmp_path)
        lines = path.read_text().splitlines()
        site = json.loads(lines[1])
        assert site["row"] == "site"
        del site["speed"]
        lines[1] = json.dumps(site)
        lines[2] = "{truncated"
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:2: 'site' row lacks 'speed'")
        assert err.count(str(path)) == 1
        lines[1] = json.dumps({**site, "speed": 1.0})
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:3: not JSON")
        assert err.count(str(path)) == 1

    def test_run_record_traces_replays_bit_identically(
        self, capsys, tmp_path
    ):
        """`run SPEC --record-traces DIR` records through the pool, and
        the traces replay into a record equal to the run's own."""
        spec_path = str(tmp_path / "spec.json")
        traces = str(tmp_path / "traces")
        orig = str(tmp_path / "orig")
        replayed = str(tmp_path / "replayed")
        assert main([
            "emit-spec", "fig8", "--scale", "0.002", "--spec-seeds", "2",
            "--out", spec_path,
        ]) == 0
        assert main([
            "run", spec_path, "--record-traces", traces,
            "--max-workers", "2", "--out", orig,
        ]) == 0
        assert "recorded 14 trace(s)" in capsys.readouterr().out
        assert main(["replay", traces, "--out", replayed]) == 0
        out = capsys.readouterr().out
        assert "14 bit-identical, 0 mismatched" in out
        assert main([
            "compare-runs", orig, replayed,
            "--fail-on-regression", "--threshold", "0",
        ]) == 0
        assert "0 diverged" in capsys.readouterr().out

    def test_sweep_bad_workload_ref_exit_2(self, capsys):
        assert main([
            "sweep", "--sweep-workload", "psa?breakdown=-1",
        ]) == 2
        assert "--sweep-workload" in capsys.readouterr().err
