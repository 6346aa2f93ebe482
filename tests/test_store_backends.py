"""Backend-parameterized tests for the pluggable RunStore layer.

Every interface test runs against both backends through one
parameterized fixture, so the fs/sqlite contract (same semantics, same
ordering, same byte-level codec) is enforced by construction.  Setting
``REPRO_STORE`` narrows the parameterization to that backend — how CI
proves the suite is backend-agnostic by running it once under
``REPRO_STORE=sqlite:...``.

The adversarial cases the issue names live here too: truncated
records, unknown schema versions, a future-versioned SQLite file
(refused, never downgraded), and two processes saving into one
database concurrently (WAL serializes; no lost runs).
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.store import (
    MIGRATIONS,
    RUN_JSON,
    STORE_ENV,
    FsRunStore,
    RunSummary,
    SqliteRunStore,
    compare_runs,
    open_store,
    parse_store_uri,
    save_run,
)
from repro.experiments.store import sqlite as sqlite_backend
from repro.experiments.store.sqlite import apply_migrations
from repro.experiments.sweep import ScenarioVariant, SweepResult
from repro.metrics.report import PerformanceReport

REPO_ROOT = Path(__file__).resolve().parents[1]


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


def synthetic_run(
    makespans_per_seed=(100.0, 110.0), name="v", schedulers=("S",)
) -> SweepResult:
    seeds = tuple(range(len(makespans_per_seed)))
    return SweepResult(
        variants=(ScenarioVariant(name=name, n_jobs=100),),
        seeds=seeds,
        reports={
            name: {
                sched: tuple(
                    make_report(scheduler=sched, makespan=m)
                    for m in makespans_per_seed
                )
                for sched in schedulers
            }
        },
    )


# REPRO_STORE narrows which backends the interface tests exercise —
# the CI sqlite tier-1 run sets it, proving the suite backend-agnostic
_ENV_URI = os.environ.get(STORE_ENV)
BACKENDS = ("fs", "sqlite") if not _ENV_URI else (parse_store_uri(_ENV_URI)[0],)


def make_store(backend: str, tmp_path: Path):
    if backend == "fs":
        return FsRunStore(tmp_path / "registry")
    return SqliteRunStore(tmp_path / "runs.db")


def pinned_ref(store) -> str:
    """A valid caller-pinned ref for the backend (fs: a directory
    name, sqlite: a row id)."""
    return "part-0" if isinstance(store, FsRunStore) else "7"


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    with make_store(request.param, tmp_path) as s:
        yield s


class TestParseStoreUri:
    def test_schemes(self):
        assert parse_store_uri("fs:runs") == ("fs", "runs")
        assert parse_store_uri("sqlite:runs.db") == ("sqlite", "runs.db")
        assert parse_store_uri("fs:/abs/path") == ("fs", "/abs/path")

    def test_bare_path_is_fs(self):
        assert parse_store_uri("runs") == ("fs", "runs")
        assert parse_store_uri("runs/nested") == ("fs", "runs/nested")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            parse_store_uri("bogus:x")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_store_uri("")
        with pytest.raises(ValueError, match="no path"):
            parse_store_uri("sqlite:")

    def test_open_store_dispatches(self, tmp_path):
        with open_store(f"fs:{tmp_path / 'r'}") as s:
            assert isinstance(s, FsRunStore)
        with open_store(f"sqlite:{tmp_path / 'r.db'}") as s:
            assert isinstance(s, SqliteRunStore)
        with open_store(str(tmp_path / "bare")) as s:
            assert isinstance(s, FsRunStore)


class TestInterface:
    def test_save_load_round_trip(self, store):
        res = synthetic_run()
        stored = store.save(res, name="demo")
        assert stored.ref is not None
        again = store.load(stored.ref)
        assert again.result == res
        assert again.name == "demo"
        assert again.ref == stored.ref

    def test_load_by_unique_name(self, store):
        stored = store.save(synthetic_run(), name="nightly")
        assert store.load("nightly").ref == stored.ref

    def test_load_ambiguous_name_raises(self, store):
        store.save(synthetic_run(), name="dup")
        store.save(synthetic_run(), name="dup")
        with pytest.raises(ValueError, match="ambiguous"):
            store.load("dup")

    def test_load_unknown_ref_raises_keyerror(self, store):
        with pytest.raises(KeyError, match="no run"):
            store.load("does-not-exist")

    def test_saves_get_distinct_refs(self, store):
        refs = {store.save(synthetic_run(), name="x").ref for _ in range(3)}
        assert len(refs) == 3
        assert len(store.list()) == 3

    def test_list_summaries(self, store):
        store.save(synthetic_run(schedulers=("S", "T")), name="a")
        summaries = store.list()
        assert [type(s) for s in summaries] == [RunSummary]
        (s,) = summaries
        assert s.name == "a"
        assert (s.n_variants, s.n_seeds, s.n_schedulers) == (1, 2, 2)
        assert "1 variant(s) x 2 seed(s) x 2 scheduler(s)" in str(s)

    def test_list_is_oldest_first(self, store):
        for name in ("one", "two", "three"):
            store.save(synthetic_run(), name=name)
        summaries = store.list()
        assert [s.name for s in summaries] == ["one", "two", "three"]
        assert [s.created_at for s in summaries] == sorted(
            s.created_at for s in summaries
        )

    def test_find_filters(self, store):
        store.save(synthetic_run(name="psa", schedulers=("S",)), name="a")
        store.save(synthetic_run(name="nas", schedulers=("S", "T")), name="b")
        assert [s.name for s in store.find(name="b")] == ["b"]
        assert [s.name for s in store.find(variant="nas")] == ["b"]
        assert [s.name for s in store.find(scheduler="T")] == ["b"]
        assert [s.name for s in store.find(scheduler="S")] == ["a", "b"]
        assert store.find(name="nope") == []
        assert len(store.find()) == 2

    def test_delete(self, store):
        ref = store.save(synthetic_run(), name="gone").ref
        keep = store.save(synthetic_run(), name="kept").ref
        store.delete(ref)
        assert [s.ref for s in store.list()] == [keep]
        with pytest.raises(KeyError):
            store.load(ref)
        with pytest.raises(KeyError):
            store.delete(ref)

    def test_pinned_ref_and_overwrite_guard(self, store):
        ref = pinned_ref(store)
        stored = store.save(synthetic_run(), name="shard", ref=ref)
        assert stored.ref == ref
        with pytest.raises(FileExistsError, match="overwrite"):
            store.save(synthetic_run(), name="shard", ref=ref)
        redo = store.save(
            synthetic_run((5.0, 6.0)), name="shard", ref=ref, overwrite=True
        )
        assert redo.ref == ref
        assert len(store.list()) == 1

    def test_provenance_round_trips(self, store):
        stored = store.save(
            synthetic_run(),
            name="merged",
            merged_from=["part-0", "part-1"],
            manifest={"path": "work/manifest.json", "spec_sha256": "ab" * 32},
        )
        again = store.load(stored.ref)
        assert again.merged_from == ("part-0", "part-1")
        assert again.manifest == {
            "path": "work/manifest.json",
            "spec_sha256": "ab" * 32,
        }


class TestRoundTripIdentity:
    """The tentpole invariant: import_fs → export_fs is byte-identical."""

    def test_fs_to_store_to_fs_bit_identical(self, store, tmp_path):
        src = save_run(synthetic_run(), tmp_path / "src", name="orig")
        stored = store.import_fs(src)
        out = store.export_fs(stored.ref, tmp_path / "out")
        assert (out / "run.json").read_bytes() == (src / "run.json").read_bytes()
        assert (out / "grid.csv").read_bytes() == (src / "grid.csv").read_bytes()

    def test_round_trip_compares_as_same(self, store, tmp_path):
        src = save_run(synthetic_run(), tmp_path / "src")
        stored = store.import_fs(src)
        out = store.export_fs(stored.ref, tmp_path / "out")
        assert all(r.verdict == "same" for r in compare_runs(src, out))

    def test_ci_baseline_record_round_trips(self, store, tmp_path):
        # byte-compatibility with PR 1-5 records: the committed CI
        # baseline must import/export unmodified
        baseline = REPO_ROOT / "baselines" / "ci-baseline"
        stored = store.import_fs(baseline)
        assert stored.result.variants  # loads, not just copies
        out = store.export_fs(stored.ref, tmp_path / "out")
        assert (
            (out / "run.json").read_bytes()
            == (baseline / "run.json").read_bytes()
        )

    def test_import_assigns_fresh_refs(self, store, tmp_path):
        src = save_run(synthetic_run(), tmp_path / "src", name="orig")
        a = store.import_fs(src)
        b = store.import_fs(src)
        assert a.ref != b.ref
        assert len(store.list()) == 2

    def test_import_missing_record_raises(self, store, tmp_path):
        with pytest.raises(FileNotFoundError, match="no run record"):
            store.import_fs(tmp_path / "nope")


class TestBackendParity:
    """fs and sqlite must present one registry identically."""

    def test_list_ordering_matches_across_backends(self, tmp_path):
        registry = tmp_path / "source"
        for name in ("alpha", "beta", "gamma"):
            save_run(synthetic_run(), registry / name, name=name)
        listings = {}
        for backend in ("fs", "sqlite"):
            with make_store(backend, tmp_path / backend) as store:
                for child in sorted(registry.iterdir()):
                    store.import_fs(child)
                listings[backend] = [
                    (s.name, s.created_at) for s in store.list()
                ]
        assert listings["fs"] == listings["sqlite"]
        assert [n for n, _ in listings["fs"]] == ["alpha", "beta", "gamma"]


class TestAdversarial:
    def test_truncated_record_fails_to_load_with_clear_error(self, tmp_path):
        run_dir = save_run(synthetic_run(), tmp_path / "r")
        record = run_dir / RUN_JSON
        record.write_text(record.read_text()[: 40])
        from repro.experiments.store import load_run

        with pytest.raises(ValueError, match="corrupted or truncated"):
            load_run(run_dir)

    def test_truncated_record_skipped_by_store_list(self, store, tmp_path):
        good = save_run(synthetic_run(), tmp_path / "good", name="good")
        bad = save_run(synthetic_run(), tmp_path / "bad", name="bad")
        (bad / RUN_JSON).write_text("{not json")
        store.import_fs(good)
        with pytest.raises(ValueError, match="corrupted or truncated"):
            store.import_fs(bad)
        assert [s.name for s in store.list()] == ["good"]

    def test_unknown_schema_version_rejected(self, store, tmp_path):
        run_dir = save_run(synthetic_run(), tmp_path / "r")
        record = run_dir / RUN_JSON
        payload = json.loads(record.read_text())
        payload["schema_version"] = 999
        record.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema_version"):
            store.import_fs(run_dir)

    def test_future_db_version_refused(self, tmp_path):
        db = tmp_path / "future.db"
        conn = sqlite3.connect(db)
        conn.execute("PRAGMA user_version=99")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="newer tool"):
            SqliteRunStore(db)
        # and the file was not touched: version still 99
        conn = sqlite3.connect(db)
        assert conn.execute("PRAGMA user_version").fetchone() == (99,)
        conn.close()


class TestSqliteMigrations:
    def test_fresh_db_reaches_schema_head(self, tmp_path):
        with SqliteRunStore(tmp_path / "new.db") as store:
            (version,) = store._conn.execute(
                "PRAGMA user_version"
            ).fetchone()
            assert version == len(MIGRATIONS)

    def test_v1_db_upgrades_in_place(self, tmp_path):
        # hand-build a database as the v1-only tool would have left it
        db = tmp_path / "old.db"
        conn = sqlite3.connect(db)
        for statement in MIGRATIONS[0][1]:
            conn.execute(statement)
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()
        with SqliteRunStore(db) as store:
            (version,) = store._conn.execute(
                "PRAGMA user_version"
            ).fetchone()
            assert version == len(MIGRATIONS)
            # the upgraded database is fully usable, cells table and all
            stored = store.save(synthetic_run(), name="post-upgrade")
            assert store.find(variant="v")[0].ref == stored.ref

    def test_reopen_is_idempotent(self, tmp_path):
        db = tmp_path / "runs.db"
        with SqliteRunStore(db) as store:
            ref = store.save(synthetic_run(), name="first").ref
        with SqliteRunStore(db) as store:
            assert store.load(ref).name == "first"


class _LockedWal:
    """A connection whose WAL switch reports "locked" ``n_locked`` times.

    Delegates every statement to a real connection and logs it, so a
    test can check what ran and in which order.
    """

    def __init__(self, path, n_locked, message="database is locked"):
        self.conn = sqlite3.connect(path, isolation_level=None)
        self.n_locked = n_locked
        self.message = message
        self.log: list[str] = []

    def execute(self, sql, *args):
        self.log.append(sql)
        if sql == "PRAGMA journal_mode=WAL" and self.n_locked:
            self.n_locked -= 1
            raise sqlite3.OperationalError(self.message)
        return self.conn.execute(sql, *args)


class TestWalSwitchRetry:
    """Two processes opening a fresh file can race the WAL switch.

    SQLite may answer that pragma with "database is locked" without
    calling the busy handler; apply_migrations must retry it.
    """

    @pytest.fixture
    def sleeps(self, monkeypatch):
        calls: list[float] = []
        monkeypatch.setattr(sqlite_backend.time, "sleep", calls.append)
        return calls

    def test_locked_wal_switch_is_retried(self, tmp_path, sleeps):
        conn = _LockedWal(tmp_path / "runs.db", n_locked=1)
        apply_migrations(conn, tmp_path / "runs.db")
        wal = [sql for sql in conn.log if sql == "PRAGMA journal_mode=WAL"]
        assert len(wal) == 2
        assert sleeps == [sqlite_backend.WAL_RETRY_SLEEP_S]
        # the busy timeout is set before anything else runs
        assert conn.log[0] == "PRAGMA busy_timeout=15000"
        mode = conn.conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == ("wal",)
        (version,) = conn.conn.execute("PRAGMA user_version").fetchone()
        assert version == len(MIGRATIONS)
        conn.conn.close()

    def test_other_errors_are_not_retried(self, tmp_path, sleeps):
        conn = _LockedWal(
            tmp_path / "runs.db", n_locked=1, message="disk I/O error"
        )
        with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
            apply_migrations(conn, tmp_path / "runs.db")
        assert sleeps == []
        conn.conn.close()

    def test_retries_are_bounded(self, tmp_path, sleeps):
        conn = _LockedWal(tmp_path / "runs.db", n_locked=10**9)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            apply_migrations(conn, tmp_path / "runs.db")
        assert len(sleeps) == sqlite_backend.WAL_RETRIES - 1
        conn.conn.close()


_CONCURRENT_WRITER = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.experiments.store import SqliteRunStore
from repro.experiments.sweep import ScenarioVariant, SweepResult
from repro.metrics.report import PerformanceReport

def rep(m):
    return PerformanceReport(
        scheduler="S", n_jobs=10, makespan=m, avg_response_time=m / 2,
        avg_service_span=m / 4, slowdown_ratio=2.0, n_risk=3, n_fail=1,
        n_forced=0, total_attempts=11,
        site_utilization=np.array([50.0, 75.0]),
        scheduler_seconds=0.01, n_batches=2,
    )

res = SweepResult(
    variants=(ScenarioVariant(name="v", n_jobs=100),),
    seeds=(0, 1),
    reports={{"v": {{"S": (rep(100.0), rep(110.0))}}}},
)
with SqliteRunStore({db!r}) as store:
    for i in range({n}):
        store.save(res, name="{tag}-" + str(i))
"""


class TestConcurrency:
    def test_two_process_saves_are_serialized(self, tmp_path):
        # WAL + busy_timeout + BEGIN IMMEDIATE: two writers racing on
        # one database must serialize — every save lands, none lost
        db = str(tmp_path / "shared.db")
        src = str(REPO_ROOT / "src")
        n = 5
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _CONCURRENT_WRITER.format(src=src, db=db, n=n, tag=tag),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for tag in ("a", "b")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        with SqliteRunStore(db) as store:
            names = sorted(s.name for s in store.list())
        assert names == sorted(
            f"{tag}-{i}" for tag in ("a", "b") for i in range(n)
        )
