"""``SqliteRunStore``: run records in one schema-versioned SQLite file.

The point of this backend is *queryability at scale*: ``list``/``find``
over thousands of runs become indexed SQL instead of the fs backend's
O(N full-JSON-parses) directory scan.  The format does not change —
each run's canonical ``run.json`` payload text (see
:mod:`repro.experiments.store.record`) is stored verbatim in a TEXT
column and exported unchanged, so fs → sqlite → fs round-trips are
byte-identical and the database can become the default store with zero
format risk.

Schema versioning
-----------------
``PRAGMA user_version`` tracks the applied schema version against the
ordered in-repo :data:`MIGRATIONS` list (the fuzzbench
``database/models.py`` + alembic-tree pattern, inlined: stdlib only).
On open, missing migrations are applied in order, each inside its own
transaction, so a fresh file reaches schema head atomically and an
old database upgrades in place.  A file whose version is *newer* than
this code knows is refused outright — downgrading by guesswork could
destroy columns a newer tool depends on; upgrade the tool instead.

Concurrency
-----------
The database runs in WAL mode with a generous busy timeout and every
write inside ``BEGIN IMMEDIATE``, so concurrent saves from separate
processes serialize instead of failing — N writers produce N rows
(exercised by the two-process test in ``tests/test_store_backends.py``).
"""

from __future__ import annotations

import sqlite3
import time
from collections.abc import Sequence
from pathlib import Path

from repro.experiments.store.base import RunStore, RunSummary
from repro.experiments.store.record import (
    StoredRun,
    build_payload,
    load_run,
    parse_payload,
    payload_text,
    result_from_payload,
    stored_run_from_payload,
    write_record_text,
)
from repro.experiments.sweep import SWEEP_METRICS, SweepResult

__all__ = ["MIGRATIONS", "SqliteRunStore", "apply_migrations"]

#: Ordered schema migrations; ``PRAGMA user_version`` == number applied.
#: Append-only: released entries are immutable history (edit one and
#: existing databases silently diverge from fresh ones).  Each entry is
#: ``(title, (statement, ...))`` and is applied in its own transaction.
MIGRATIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "runs table: verbatim payload text + indexed metadata",
        (
            """
            CREATE TABLE runs (
                id             INTEGER PRIMARY KEY AUTOINCREMENT,
                name           TEXT NOT NULL,
                created_at     TEXT NOT NULL,
                git_sha        TEXT,
                schema_version INTEGER NOT NULL,
                n_variants     INTEGER NOT NULL,
                n_seeds        INTEGER NOT NULL,
                n_schedulers   INTEGER NOT NULL,
                payload        TEXT NOT NULL
            )
            """,
            "CREATE INDEX runs_name ON runs (name)",
            "CREATE INDEX runs_created_at ON runs (created_at)",
            "CREATE INDEX runs_git_sha ON runs (git_sha)",
        ),
    ),
    (
        "cells table: per-seed metric values for axis queries",
        (
            """
            CREATE TABLE cells (
                run_id    INTEGER NOT NULL
                          REFERENCES runs (id) ON DELETE CASCADE,
                variant   TEXT NOT NULL,
                scheduler TEXT NOT NULL,
                metric    TEXT NOT NULL,
                seed      INTEGER NOT NULL,
                value     REAL
            )
            """,
            "CREATE INDEX cells_run_id ON cells (run_id)",
            "CREATE INDEX cells_axes ON cells (variant, scheduler, metric)",
        ),
    ),
    (
        "jobs table: the experiment service's persistent job queue",
        (
            """
            CREATE TABLE jobs (
                id          INTEGER PRIMARY KEY AUTOINCREMENT,
                name        TEXT NOT NULL,
                spec        TEXT NOT NULL,
                spec_sha256 TEXT NOT NULL,
                state       TEXT NOT NULL DEFAULT 'pending'
                            CHECK (state IN ('pending', 'running', 'done',
                                             'failed', 'cancelled')),
                created_at  TEXT NOT NULL,
                updated_at  TEXT NOT NULL,
                started_at  TEXT,
                finished_at TEXT,
                error       TEXT,
                run_ref     TEXT
            )
            """,
            "CREATE INDEX jobs_state ON jobs (state, id)",
        ),
    ),
)


#: the WAL switch is retried this many times, WAL_RETRY_SLEEP_S apart
#: (together about as long as the 15 s busy timeout)
WAL_RETRIES = 3000
WAL_RETRY_SLEEP_S = 0.005


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, retrying while it is locked.

    When two processes open a fresh file at once, SQLite can refuse
    the journal-mode change with "database is locked" without calling
    the busy handler, so ``busy_timeout`` alone does not cover it.
    Retry that error only, with short bounded sleeps; any other error,
    or a lock that outlasts every retry, propagates.
    """
    for attempt in range(WAL_RETRIES):
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or attempt == WAL_RETRIES - 1:
                raise
            time.sleep(WAL_RETRY_SLEEP_S)


def apply_migrations(conn: sqlite3.Connection, path: str | Path) -> None:
    """Bring ``conn``'s database to schema head (refusing newer files).

    The shared schema-lifecycle routine: :class:`SqliteRunStore` runs
    it on open, and :class:`repro.service.queue.JobQueue` runs it on
    its own connection so a service-only open of a fresh database still
    creates every table.  Each missing migration applies inside its own
    ``BEGIN IMMEDIATE`` transaction with an under-lock version re-check,
    so two processes racing to migrate one file serialize — the loser
    finds the winner's work already applied.  ``path`` is used only for
    diagnostics.
    """
    # the busy timeout first, so every later statement waits out a
    # concurrent opener's lock instead of failing at once
    conn.execute("PRAGMA busy_timeout=15000")
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    if version > len(MIGRATIONS):
        raise ValueError(
            f"{path} is at store schema version {version}, but "
            f"this tool only knows versions up to {len(MIGRATIONS)}: "
            "a newer tool is required (refusing to downgrade)"
        )
    _enable_wal(conn)
    conn.execute("PRAGMA foreign_keys=ON")
    for number, (title, statements) in enumerate(MIGRATIONS, start=1):
        if number <= version:
            continue
        conn.execute("BEGIN IMMEDIATE")
        try:
            # two processes can race to migrate a fresh database;
            # BEGIN IMMEDIATE serializes them, so re-check the
            # version under the write lock — the loser just finds
            # the winner's work already applied
            (current,) = conn.execute("PRAGMA user_version").fetchone()
            if current >= number:
                conn.execute("COMMIT")
                continue
            for statement in statements:
                conn.execute(statement)
            # user_version lives in the database header and is
            # journaled, so the bump commits with the DDL or not
            # at all
            # repro: allow[Q1] -- PRAGMA accepts no ? parameters; number is the migration index from enumerate(), never user input
            conn.execute(f"PRAGMA user_version={number}")
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise


class SqliteRunStore(RunStore):
    """Run store over one SQLite database file (created on open).

    Refs are row ids rendered as strings (``"1"``, ``"2"``, …); as
    with the fs backend, a unique run *name* also resolves.  The
    ``runs`` table is the source of truth (payload text verbatim);
    ``cells`` is a derived per-seed metric index rebuilt on every save,
    which is what lets ``find(variant=..., scheduler=...)`` — and a
    future ``find_regressions`` push-down — run without touching a
    single payload.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.uri = f"sqlite:{self.path}"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # autocommit mode: transactions are explicit BEGIN IMMEDIATE
        # blocks, never implicit ones the driver opens behind our back
        self._conn = sqlite3.connect(self.path, isolation_level=None)
        try:
            self._migrate()
        except BaseException:
            self._conn.close()
            raise

    def __repr__(self) -> str:
        return f"SqliteRunStore({str(self.path)!r})"

    def close(self) -> None:
        self._conn.close()

    # -- schema lifecycle ---------------------------------------------

    def _migrate(self) -> None:
        """Bring the database to schema head (refusing newer files)."""
        apply_migrations(self._conn, self.path)

    # -- ref resolution -----------------------------------------------

    def _row_id(self, ref: str) -> int:
        """The ``runs.id`` a ref (row id or unique run name) names."""
        try:
            row_id = int(ref)
        except (TypeError, ValueError):
            ids = [
                r[0]
                for r in self._conn.execute(
                    "SELECT id FROM runs WHERE name = ? ORDER BY id",
                    (ref,),
                )
            ]
            if len(ids) > 1:
                raise ValueError(
                    f"run name {ref!r} is ambiguous in {self.uri}: "
                    f"rows {ids} all carry it; use a ref"
                )
            if ids:
                return ids[0]
            raise KeyError(f"no run {ref!r} in {self.uri}")
        row = self._conn.execute(
            "SELECT id FROM runs WHERE id = ?", (row_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run {ref!r} in {self.uri}")
        return row_id

    # -- persistence --------------------------------------------------

    def save(
        self,
        result: SweepResult,
        *,
        name: str | None = None,
        ref: str | None = None,
        overwrite: bool = False,
        merged_from: Sequence[str] | None = None,
        manifest: dict | None = None,
    ) -> StoredRun:
        payload = build_payload(
            result,
            name=name if name is not None else "sweep",
            merged_from=merged_from,
            manifest=manifest,
        )
        row_id = None
        if ref is not None:
            try:
                row_id = int(ref)
            except (TypeError, ValueError):
                raise ValueError(
                    f"sqlite store refs are row ids, got {ref!r}"
                ) from None
        stored_id = self._insert(
            payload_text(payload), payload, row_id=row_id, overwrite=overwrite
        )
        return self.load(str(stored_id))

    def _insert(
        self,
        text: str,
        payload: dict,
        *,
        row_id: int | None = None,
        overwrite: bool = False,
    ) -> int:
        reports = payload["reports"]
        first = next(iter(reports.values()), {})
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            if row_id is not None:
                exists = self._conn.execute(
                    "SELECT 1 FROM runs WHERE id = ?", (row_id,)
                ).fetchone()
                if exists and not overwrite:
                    raise FileExistsError(
                        f"run {row_id} already exists in {self.uri} "
                        "(pass overwrite=True)"
                    )
                self._conn.execute(
                    "DELETE FROM cells WHERE run_id = ?", (row_id,)
                )
                self._conn.execute(
                    "DELETE FROM runs WHERE id = ?", (row_id,)
                )
            cursor = self._conn.execute(
                """
                INSERT INTO runs (id, name, created_at, git_sha,
                                  schema_version, n_variants, n_seeds,
                                  n_schedulers, payload)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    row_id,
                    payload["name"],
                    payload["created_at"],
                    payload.get("git_sha"),
                    payload["schema_version"],
                    len(payload["variants"]),
                    len(payload["seeds"]),
                    len(first),
                    text,
                ),
            )
            stored_id = row_id if row_id is not None else cursor.lastrowid
            self._conn.executemany(
                """
                INSERT INTO cells (run_id, variant, scheduler, metric,
                                   seed, value)
                VALUES (?, ?, ?, ?, ?, ?)
                """,
                _cell_rows(stored_id, payload),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return stored_id

    def load(self, ref: str) -> StoredRun:
        row_id = self._row_id(ref)
        (text,) = self._conn.execute(
            "SELECT payload FROM runs WHERE id = ?", (row_id,)
        ).fetchone()
        payload = parse_payload(text, source=f"{self.uri}#{row_id}")
        return stored_run_from_payload(
            payload, path=self.path, ref=str(row_id)
        )

    def payload(self, ref: str) -> str:
        row_id = self._row_id(ref)
        (text,) = self._conn.execute(
            "SELECT payload FROM runs WHERE id = ?", (row_id,)
        ).fetchone()
        return text

    def delete(self, ref: str) -> None:
        row_id = self._row_id(ref)
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute(
                "DELETE FROM cells WHERE run_id = ?", (row_id,)
            )
            self._conn.execute("DELETE FROM runs WHERE id = ?", (row_id,))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # -- queries ------------------------------------------------------

    _SUMMARY_COLUMNS = (
        "id, name, created_at, git_sha, schema_version, "
        "n_variants, n_seeds, n_schedulers"
    )
    #: ``list()``'s whole statement, composed once at class-body time
    #: from the constants above so the query itself is static
    _LIST_SQL = (
        f"SELECT {_SUMMARY_COLUMNS} FROM runs ORDER BY created_at, id"
    )

    def list(self) -> list[RunSummary]:
        rows = self._conn.execute(self._LIST_SQL)
        return [_summary(row) for row in rows]

    def find(
        self,
        *,
        name: str | None = None,
        git_sha: str | None = None,
        variant: str | None = None,
        scheduler: str | None = None,
    ) -> list[RunSummary]:
        clauses, params = [], []
        if name is not None:
            clauses.append("name = ?")
            params.append(name)
        if git_sha is not None:
            clauses.append("git_sha = ?")
            params.append(git_sha)
        for column, value in (("variant", variant), ("scheduler", scheduler)):
            if value is not None:
                clauses.append(
                    "EXISTS (SELECT 1 FROM cells "
                    f"WHERE cells.run_id = runs.id AND cells.{column} = ?)"
                )
                params.append(value)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        # repro: allow[Q1] -- WHERE is joined from the fixed fragments above; every value rides a ? parameter
        rows = self._conn.execute(
            f"SELECT {self._SUMMARY_COLUMNS} FROM runs {where} "
            "ORDER BY created_at, id",
            params,
        )
        return [_summary(row) for row in rows]

    # -- the fs interchange codec -------------------------------------

    def import_fs(self, run_dir: str | Path) -> StoredRun:
        run_dir = Path(run_dir)
        # load_run gives FileNotFoundError/ValueError vetting for free,
        # but the stored text must be the file's bytes, not a re-dump
        load_run(run_dir)
        text = (run_dir / "run.json").read_text(encoding="utf-8")
        payload = parse_payload(text, source=str(run_dir / "run.json"))
        return self.load(str(self._insert(text, payload)))

    def export_fs(self, ref: str, dest_dir: str | Path) -> Path:
        row_id = self._row_id(ref)
        (text,) = self._conn.execute(
            "SELECT payload FROM runs WHERE id = ?", (row_id,)
        ).fetchone()
        payload = parse_payload(text, source=f"{self.uri}#{row_id}")
        return write_record_text(
            text, result_from_payload(payload), dest_dir
        )


def _cell_rows(run_id: int, payload: dict):
    """Per-seed metric rows for the ``cells`` index of one payload."""
    seeds = payload["seeds"]
    for variant, per_sched in payload["reports"].items():
        for scheduler, reports in per_sched.items():
            for seed, report in zip(seeds, reports):
                for metric in SWEEP_METRICS:
                    yield (
                        run_id,
                        variant,
                        scheduler,
                        metric,
                        seed,
                        report.get(metric),
                    )


def _summary(row: tuple) -> RunSummary:
    (
        row_id,
        name,
        created_at,
        git_sha,
        schema_version,
        n_variants,
        n_seeds,
        n_schedulers,
    ) = row
    return RunSummary(
        ref=str(row_id),
        name=name,
        created_at=created_at,
        git_sha=git_sha,
        schema_version=schema_version,
        n_variants=n_variants,
        n_seeds=n_seeds,
        n_schedulers=n_schedulers,
    )
