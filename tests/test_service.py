"""Tests for the experiment service: queue, dispatcher, HTTP API.

Four layers of guarantee, bottom up:

1. the ``jobs`` table's state machine and its race-safety — two
   *processes* submitting simultaneously, and a submit racing the
   dispatcher's claim (extends the PR 6 two-process store races to
   migration #3);
2. the HTTP surface: status codes, the ``invalid spec: …`` 422
   envelope (same validator as the CLI's exit 2), method/404 hygiene;
3. the core invariant: submit → dispatch → result over HTTP is
   **bit-identical** to a direct ``run_spec`` of the same spec,
   modulo provenance;
4. crash-resume: SIGKILL the whole service mid-job (via the
   ``REPRO_FAULT_SHARDS`` ``!`` hook), restart it, and the job still
   completes with the same record.
"""

import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.ga import GAConfig
from repro.experiments.config import RunSettings
from repro.experiments.spec import ExperimentSpec, run_spec
from repro.experiments.store import SqliteRunStore
from repro.experiments.store.record import build_payload
from repro.experiments.sweep import ScenarioVariant
from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatcher import Dispatcher, job_dir
from repro.service.queue import JOB_STATES, JobQueue, JobStateError
from repro.service.server import make_server, work_dir_for

REPO_ROOT = Path(__file__).resolve().parent.parent

FAST = RunSettings(seed=11, ga=GAConfig(population_size=16, generations=4))

SPEC = ExperimentSpec(
    name="service-tiny",
    schedulers=("min-min-risky", "sufferage-risky"),
    variants=(
        ScenarioVariant(name="psa-a", n_jobs=60, n_training_jobs=0),
    ),
    seeds=(11, 12),
    metrics=("makespan", "n_fail"),
    scale=0.1,
    settings=FAST,
)

#: provenance fields excluded from the bit-identity comparison — they
#: record *when/where/how*, never *what was measured*
_PROVENANCE = (
    "name", "created_at", "git_sha", "elapsed_seconds",
    "merged_from", "manifest",
)


def normalized(payload: dict) -> dict:
    """A run payload with provenance stripped and wall-clock zeroed."""
    data = json.loads(json.dumps(payload))
    for key in _PROVENANCE:
        data.pop(key, None)
    for per_scheduler in data["reports"].values():
        for reports in per_scheduler.values():
            for report in reports:
                report["scheduler_seconds"] = 0.0
    return data


# ---------------------------------------------------------------------
# layer 1: the job queue
# ---------------------------------------------------------------------


class TestJobQueue:
    def test_submit_creates_pending_with_canonical_text(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            job = queue.submit(SPEC)
            assert job.id == 1
            assert job.state == "pending"
            assert job.name == "service-tiny"
            assert job.spec_text == SPEC.to_json()
            assert job.started_at is None and job.run_ref is None
            # the stored text round-trips to the submitted spec
            assert ExperimentSpec.from_json(job.spec_text) == SPEC

    def test_get_unknown_id_is_key_error(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            with pytest.raises(KeyError, match="no job 7"):
                queue.get(7)

    def test_full_lifecycle_to_done(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            queue.submit(SPEC)
            claimed = queue.claim()
            assert claimed is not None and claimed.state == "running"
            assert claimed.started_at is not None
            done = queue.finish(claimed.id, "3")
            assert done.state == "done"
            assert done.run_ref == "3"
            assert done.finished_at is not None
            assert queue.claim() is None  # queue drained

    def test_fail_records_error(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            queue.submit(SPEC)
            claimed = queue.claim()
            failed = queue.fail(claimed.id, "ValueError: boom")
            assert failed.state == "failed"
            assert failed.error == "ValueError: boom"

    def test_cancel_only_from_pending(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            job = queue.submit(SPEC)
            assert queue.cancel(job.id).state == "cancelled"
            # cancelled is terminal: every further transition refuses
            with pytest.raises(JobStateError):
                queue.cancel(job.id)
            running = queue.submit(SPEC)
            queue.claim()
            with pytest.raises(JobStateError) as excinfo:
                queue.cancel(running.id)
            assert excinfo.value.state == "running"
            assert excinfo.value.wanted == "cancelled"

    def test_terminal_transitions_guard_current_state(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            job = queue.submit(SPEC)
            # done/failed require running, not pending
            with pytest.raises(JobStateError):
                queue.finish(job.id, "1")
            with pytest.raises(JobStateError):
                queue.fail(job.id, "nope")

    def test_claim_order_is_submission_order(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            ids = [queue.submit(SPEC).id for _ in range(3)]
            assert [queue.claim().id for _ in range(3)] == ids

    def test_persistence_across_reopen(self, tmp_path):
        db = tmp_path / "svc.db"
        with JobQueue(db) as queue:
            queue.submit(SPEC)
            queue.claim()
        # a fresh connection sees the orphaned running row — the
        # restart recovery signal
        with JobQueue(db) as queue:
            jobs = queue.list_jobs(state="running")
            assert [j.id for j in jobs] == [1]

    def test_list_jobs_rejects_unknown_state(self, tmp_path):
        with JobQueue(tmp_path / "svc.db") as queue:
            with pytest.raises(ValueError, match="unknown job state"):
                queue.list_jobs(state="zombie")
        assert set(JOB_STATES) == {
            "pending", "running", "done", "failed", "cancelled",
        }

    def test_queue_and_store_share_the_database(self, tmp_path):
        # one file, both tables: a queue-first open must create the
        # runs schema too (shared migration routine), and vice versa
        db = tmp_path / "svc.db"
        with JobQueue(db) as queue:
            queue.submit(SPEC)
        with SqliteRunStore(db) as store:
            assert store.list() == []
        with JobQueue(db) as queue:
            assert queue.get(1).state == "pending"


# ---------------------------------------------------------------------
# layer 1b: two-process races on the jobs table
# ---------------------------------------------------------------------

_SUBMITTER = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.spec import ExperimentSpec
from repro.service.queue import JobQueue

spec = ExperimentSpec.from_json({spec_json!r})
with JobQueue({db!r}) as queue:
    for _ in range({n}):
        queue.submit(spec)
"""


class TestConcurrentClients:
    def test_two_process_submits_all_land(self, tmp_path):
        # two writers racing BEGIN IMMEDIATE on one database: every
        # submit lands exactly once, ids stay unique and gapless
        db = str(tmp_path / "svc.db")
        src = str(REPO_ROOT / "src")
        n = 5
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _SUBMITTER.format(
                        src=src, db=db, n=n, spec_json=SPEC.to_json()
                    ),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        with JobQueue(db) as queue:
            jobs = queue.list_jobs()
        assert sorted(j.id for j in jobs) == list(range(1, 2 * n + 1))
        assert all(j.state == "pending" for j in jobs)

    def test_submit_races_claim_without_loss(self, tmp_path):
        # a second process streams submits while this process claims:
        # every job is claimed exactly once, none lost, none doubled
        db = str(tmp_path / "svc.db")
        src = str(REPO_ROOT / "src")
        n = 8
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _SUBMITTER.format(
                    src=src, db=db, n=n, spec_json=SPEC.to_json()
                ),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        claimed = []
        with JobQueue(db) as queue:
            while len(claimed) < n:
                job = queue.claim()
                if job is None:
                    if proc.poll() is not None and not queue.list_jobs(
                        state="pending"
                    ):
                        break
                    continue
                assert job.state == "running"
                claimed.append(job.id)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert sorted(claimed) == list(range(1, n + 1))

    def test_cancel_vs_claim_exactly_one_wins(self, tmp_path):
        db = tmp_path / "svc.db"
        with JobQueue(db) as a, JobQueue(db) as b:
            job = a.submit(SPEC)
            assert b.claim().id == job.id
            with pytest.raises(JobStateError):
                a.cancel(job.id)


# ---------------------------------------------------------------------
# layers 2+3: the HTTP API, in process
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live in-process service on an ephemeral port: dispatcher
    thread + threading WSGI server over one temp database."""
    root = tmp_path_factory.mktemp("service")
    db = root / "svc.db"
    dispatcher = Dispatcher(db, work_dir_for(db), n_shards=2)
    dispatcher.start()
    server = make_server(db, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield client, db
    server.shutdown()
    server.server_close()
    dispatcher.stop()


@pytest.fixture(scope="module")
def finished_job(service):
    """One job submitted and run to completion through the service."""
    client, _ = service
    job = client.submit(SPEC)
    assert job["state"] == "pending"
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done", final["error"]
    return final


class TestHttpApi:
    def test_healthz(self, service):
        client, _ = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema_version"] >= 3

    def test_submit_invalid_json_is_422(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_text("{not json")
        assert excinfo.value.status == 422
        assert "invalid spec" in str(excinfo.value)

    def test_submit_wrong_schema_is_422(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_text('{"schema_version": 99}')
        assert excinfo.value.status == 422

    def test_submit_unknown_scheduler_is_422(self, service):
        # validation resolves registry refs at submit time, not hours
        # later inside the dispatcher
        client, _ = service
        payload = json.loads(SPEC.to_json())
        payload["schedulers"] = ["no-such-scheduler"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit_text(json.dumps(payload))
        assert excinfo.value.status == 422
        assert "invalid spec" in str(excinfo.value)

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.job(999)
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._get_json("/v1/experiments/not-a-number")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._get_json("/v2/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._post_json("/healthz")
        assert excinfo.value.status == 405

    def test_result_before_done_is_409(self, service):
        client, _ = service
        # a cancelled job has no result; 409 names the actual state
        job = client.submit(replace(SPEC, name="to-cancel"))
        try:
            cancelled = client.cancel(job["id"])
        except ServiceError as exc:
            # the dispatcher may have claimed it first — that race is
            # legal; it will run to done instead
            assert exc.status == 409
            return
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.result_text(job["id"])
        assert excinfo.value.status == 409
        assert "cancelled" in str(excinfo.value)

    def test_compare_validates_body(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client._post_json(
                "/v1/compare", json.dumps({"baseline": "1"})
            )
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._post_json("/v1/compare", "[1, 2]")
        assert excinfo.value.status == 400

    def test_compare_unknown_ref_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.compare("888", "999")
        assert excinfo.value.status == 404

    def test_concurrent_http_submits_get_distinct_jobs(self, service):
        client, _ = service
        results, errors = [], []

        def submit():
            try:
                results.append(
                    client.submit(replace(SPEC, name="burst"))["id"]
                )
            except Exception as exc:  # noqa: BLE001 — collected below
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(set(results)) == 4


class TestEndToEnd:
    def test_submitted_job_reaches_done_with_progress(
        self, service, finished_job
    ):
        client, _ = service
        job = client.job(finished_job["id"])
        assert job["state"] == "done"
        progress = job["progress"]
        assert progress["completion"] == 1.0
        assert progress["counts"]["done"] == progress["n_shards"]
        assert progress["stale"] == []

    def test_result_bit_identical_to_direct_run(
        self, service, finished_job
    ):
        """THE core invariant: the record fetched over HTTP equals a
        direct ``run_spec`` of the same spec, modulo provenance."""
        client, _ = service
        served = json.loads(client.result_text(finished_job["id"]))
        direct = build_payload(
            run_spec(SPEC, max_workers=1), name="direct"
        )
        assert normalized(served) == normalized(direct)

    def test_result_text_is_verbatim_store_payload(
        self, service, finished_job
    ):
        client, db = service
        text = client.result_text(finished_job["id"])
        with SqliteRunStore(db) as store:
            assert text == store.payload(finished_job["run_ref"])
        # and the runs endpoint serves the same bytes by ref
        assert client.run_payload(finished_job["run_ref"]) == text

    def test_result_parses_the_stored_payload(self, service, finished_job):
        client, db = service
        with SqliteRunStore(db) as store:
            stored = json.loads(store.payload(finished_job["run_ref"]))
        assert client.result(finished_job["id"]) == stored

    def test_store_visible_through_runs_endpoint(
        self, service, finished_job
    ):
        client, _ = service
        refs = [r["ref"] for r in client.runs()]
        assert finished_job["run_ref"] in refs

    def test_self_compare_is_gate_clean(self, service, finished_job):
        client, _ = service
        ref = finished_job["run_ref"]
        report = client.compare(ref, ref, threshold=0)
        assert report["cells"] > 0
        assert report["same"] == report["cells"]
        assert report["regressions"] == []

    def test_job_manifest_works_with_status_tooling(
        self, service, finished_job
    ):
        # a service job is an ordinary sharded run: its manifest is
        # inspectable with the normal manifest API/CLI
        from repro.experiments.manifest import MANIFEST_JSON, load_manifest

        _, db = service
        manifest = load_manifest(
            job_dir(work_dir_for(db), finished_job["id"]) / MANIFEST_JSON
        )
        assert manifest.all_done
        assert manifest.stale_indices() == ()


# ---------------------------------------------------------------------
# layer 4: crash-resume across a real kill, in subprocesses
# ---------------------------------------------------------------------


def _start_serve(db: Path, extra_env: dict) -> tuple:
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO_ROOT / "src"),
        **extra_env,
    }
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--store", f"sqlite:{db}", "--port", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("listening on http://"), line
    return proc, line.strip().rsplit(":", 1)[1]


class TestCrashResume:
    def test_killed_service_finishes_the_job_on_restart(self, tmp_path):
        """Kill the whole service mid-job (shard 0's worker hard-exits
        — no exception, no cleanup, as close to SIGKILL as portable),
        restart it, and the submitted experiment still completes —
        with a record bit-identical to never having crashed."""
        db = tmp_path / "svc.db"
        # first life: the fault hook kills the process inside shard 0
        proc, port = _start_serve(
            db, {"REPRO_FAULT_SHARDS": "0!"}
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job = client.submit(SPEC)
            assert job["state"] == "pending"
            assert proc.wait(timeout=120) == 13  # os._exit(13)
        finally:
            if proc.poll() is None:
                proc.kill()
        # the row is an orphan: running, never finished
        with JobQueue(db) as queue:
            assert queue.get(job["id"]).state == "running"
        # second life: no fault; startup adoption resumes the manifest
        proc, port = _start_serve(db, {})
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            final = client.wait(job["id"], timeout=300)
            assert final["state"] == "done", final["error"]
            served = json.loads(client.result_text(job["id"]))
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        direct = build_payload(
            run_spec(SPEC, max_workers=1), name="direct"
        )
        assert normalized(served) == normalized(direct)
