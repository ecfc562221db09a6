"""Crash recovery: journaled submissions survive an engine that vanishes.

These tests simulate ``kill -9`` at the journal level: records a previous
engine fsync'd before dying are all a new engine gets — no in-memory
state, no goodbye. The contract under test: **no acknowledged submission
is ever lost** — every journaled job is either re-enqueued (same id) or
terminally resolved, and status stays queryable throughout. The
full-process version of the same story (a real ``kill -9`` of a serve
subprocess) runs in ``benchmarks/bench_serving.py --chaos``.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import EngineDrainingError, JobError
from repro.generate.synthetic import grid_city, random_eulerian
from repro.jobs import DONE, FAILED, QUEUED, GraphCatalog, JobEngine
from repro.jobs.journal import JobJournal, config_to_dict
from repro.jobs.server import JobApi
from repro.pipeline import RunConfig
from repro.scenarios import run_scenario
from repro.scenarios.base import SCENARIOS, Scenario, register_scenario


def _engine(root, journal, **kwargs):
    kwargs.setdefault("dispatchers", 1)
    kwargs.setdefault("pool_kind", None)
    return JobEngine(GraphCatalog(root / "cat"), journal=journal, **kwargs)


def _submit_record(journal: JobJournal, job_id: str, graph_key: str,
                   config: RunConfig | None = None, **over) -> None:
    """Append a ``submitted`` record shaped exactly as the engine writes it."""
    journal.append(
        "submitted", job_id,
        scenario=over.get("scenario", "circuit"),
        graph_key=graph_key,
        config=config_to_dict(config or RunConfig(n_parts=2)),
        priority=over.get("priority", 0),
        name=over.get("name", ""),
        timeout_seconds=over.get("timeout_seconds"),
        max_retries=over.get("max_retries", 0),
        idempotency_key=over.get("idempotency_key"),
    )


# ---------------------------------------------------------------------------
# Re-enqueue on startup
# ---------------------------------------------------------------------------


def test_queued_at_crash_is_requeued_and_completes(tmp_path):
    g = random_eulerian(40, 4, 12, seed=5)
    serial = run_scenario(g, "circuit", RunConfig(n_parts=2))
    key = GraphCatalog(tmp_path / "cat").put(g)
    journal = JobJournal(tmp_path / "journal")
    _submit_record(journal, "job-000007", key)
    journal.close()

    with _engine(tmp_path, tmp_path / "journal") as engine:
        assert engine.recovery_stats["requeued"] == 1
        # Same id the dead server acknowledged — clients keep polling it.
        result = engine.handle("job-000007").result(timeout=60)
        for a, b in zip(serial.circuits, result.circuits):
            assert np.array_equal(a.edge_ids, b.edge_ids)
        job = engine.job("job-000007")
        assert job.passes[0]["pass"] == "recovered"
        assert job.passes[0]["was"] == "QUEUED"
        # The id counter moved past recovered ids: no collisions.
        fresh = engine.submit("circuit", graph_key=key,
                              config=RunConfig(n_parts=2))
        assert fresh.job_id == "job-000008"
        fresh.result(timeout=60)

    # Second restart: the journal now shows both jobs terminal.
    with _engine(tmp_path, tmp_path / "journal") as engine2:
        assert engine2.recovery_stats["requeued"] == 0
        assert engine2.recovery_stats["terminal"] == 2


def test_retired_transport_field_in_journaled_config_is_ignored(tmp_path):
    """A spec journaled while ``transport`` was a wire field still runs.

    Every transport gave the same circuit, so recovery ignores the field
    and the job finishes with the serial digest.
    """
    g = random_eulerian(40, 4, 12, seed=5)
    serial = run_scenario(g, "circuit", RunConfig(n_parts=2))
    key = GraphCatalog(tmp_path / "cat").put(g)
    journal = JobJournal(tmp_path / "journal")
    journal.append(
        "submitted", "job-000003", scenario="circuit", graph_key=key,
        config={"n_parts": 2, "transport": "shm"}, priority=0, name="",
        timeout_seconds=None, max_retries=0, idempotency_key=None,
    )
    journal.close()

    with _engine(tmp_path, tmp_path / "journal") as engine:
        assert engine.recovery_stats["requeued"] == 1
        result = engine.handle("job-000003").result(timeout=60)
        assert engine.job("job-000003").state == DONE
        assert len(result.circuits) == len(serial.circuits)
        for a, b in zip(serial.circuits, result.circuits):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.edge_ids, b.edge_ids)


def test_running_at_crash_consumes_an_attempt(tmp_path):
    g = random_eulerian(40, 4, 12, seed=6)
    key = GraphCatalog(tmp_path / "cat").put(g)
    journal = JobJournal(tmp_path / "journal")
    _submit_record(journal, "job-000003", key, max_retries=1)
    journal.append("started", "job-000003", attempt=0)
    journal.close()

    with _engine(tmp_path, tmp_path / "journal") as engine:
        assert engine.recovery_stats["requeued"] == 1
        result = engine.handle("job-000003").result(timeout=60)
        assert result.circuits
        job = engine.job("job-000003")
        assert job.attempt == 1  # the run that died with the process counted
        assert job.passes[0]["was"] == "RUNNING"


def test_running_at_crash_without_retry_budget_fails_terminally(tmp_path):
    g = random_eulerian(30, 3, 10, seed=7)
    key = GraphCatalog(tmp_path / "cat").put(g)
    journal = JobJournal(tmp_path / "journal")
    _submit_record(journal, "job-000002", key, max_retries=0)
    journal.append("started", "job-000002", attempt=0)
    journal.close()

    with _engine(tmp_path, tmp_path / "journal") as engine:
        assert engine.recovery_stats["failed"] == 1
        summary = engine.job_summary("job-000002")
        assert summary["state"] == FAILED
        assert "retry budget" in summary["error"]
        assert summary["recovered"] is True
    # The failure is journaled terminal: the next restart does nothing.
    with _engine(tmp_path, tmp_path / "journal") as engine2:
        assert engine2.recovery_stats["requeued"] == 0
        assert engine2.recovery_stats["failed"] == 0
        assert engine2.job_summary("job-000002")["state"] == FAILED


def test_lost_submit_spec_is_unrecoverable_but_queryable(tmp_path):
    journal = JobJournal(tmp_path / "journal")
    journal.append("started", "job-000009", attempt=0)  # spec never landed
    journal.close()
    with _engine(tmp_path, tmp_path / "journal") as engine:
        assert engine.recovery_stats["failed"] == 1
        summary = engine.job_summary("job-000009")
        assert summary["state"] == FAILED
        assert "unrecoverable" in summary["error"]


def test_terminal_artifact_reconciles_lost_journal_record(tmp_path):
    """Crash between artifact write and the terminal journal append."""
    g = random_eulerian(40, 4, 12, seed=8)
    with _engine(tmp_path, tmp_path / "journal",
                 artifact_dir=tmp_path / "arts") as engine:
        handle = engine.submit("circuit", graph=g, config=RunConfig(n_parts=2))
        handle.result(timeout=60)
        job_id = handle.job_id
    # Simulate the crash: strip the terminal record (it is appended AFTER
    # the artifact lands, so this ordering is reachable).
    path = tmp_path / "journal" / JobJournal.FILENAME
    lines = [ln for ln in path.read_bytes().splitlines()
             if json.loads(ln).get("event") not in ("done", "failed", "cancelled")]
    path.write_bytes(b"\n".join(lines) + b"\n")

    with _engine(tmp_path, tmp_path / "journal",
                 artifact_dir=tmp_path / "arts") as engine2:
        assert engine2.recovery_stats["reconciled"] == 1
        assert engine2.recovery_stats["requeued"] == 0  # not run twice
        assert engine2.job_summary(job_id)["state"] == DONE


# ---------------------------------------------------------------------------
# Idempotency keys
# ---------------------------------------------------------------------------


def test_idempotency_key_deduplicates_within_process(tmp_path):
    g = random_eulerian(30, 3, 10, seed=9)
    with _engine(tmp_path, tmp_path / "journal") as engine:
        h1 = engine.submit("circuit", graph=g, config=RunConfig(n_parts=2),
                           idempotency_key="req-abc")
        h2 = engine.submit("circuit", graph_key=engine.job(h1.job_id).graph_key,
                           config=RunConfig(n_parts=2),
                           idempotency_key="req-abc")
        assert h2.job_id == h1.job_id  # same handle, no duplicate work
        h1.result(timeout=60)


def test_idempotency_key_survives_restart(tmp_path):
    g = random_eulerian(30, 3, 10, seed=10)
    key = GraphCatalog(tmp_path / "cat").put(g)
    journal = JobJournal(tmp_path / "journal")
    _submit_record(journal, "job-000004", key, idempotency_key="req-xyz")
    journal.close()
    with _engine(tmp_path, tmp_path / "journal") as engine:
        assert engine.idempotent_job_id("req-xyz") == "job-000004"
        engine.handle("job-000004").result(timeout=60)


def test_http_resubmission_returns_original_job(tmp_path):
    g = random_eulerian(30, 3, 10, seed=11)
    key = GraphCatalog(tmp_path / "cat").put(g)
    with _engine(tmp_path, tmp_path / "journal") as engine:
        api = JobApi(engine)
        body = json.dumps({"scenario": "circuit", "graph_key": key,
                           "config": {"n_parts": 2},
                           "idempotency_key": "req-http-1"}).encode()
        status1, out1 = api.handle("POST", "/jobs", body)
        status2, out2 = api.handle("POST", "/jobs", body)
        assert status1 == status2 == 200
        assert out2["job_id"] == out1["job_id"]
        assert out2.get("deduplicated") is True
        engine.handle(out1["job_id"]).result(timeout=60)


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class _BlockScenario(Scenario):
    """Parks at a cancel safe point until released (thread-mode only)."""

    name = "test-block"

    def __init__(self, entered: threading.Event, release: threading.Event):
        self.entered = entered
        self.release = release

    def reduce(self, graph, config):
        self.entered.set()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not self.release.is_set():
            time.sleep(0.005)
            if config.cancel is not None:
                config.cancel.check("block")
        raise AssertionError("blocked scenario neither cancelled nor released")

    def postprocess(self, graph, config, subs, contexts):
        return [], {}


@pytest.fixture
def block_scenario():
    entered, release = threading.Event(), threading.Event()
    register_scenario(_BlockScenario(entered, release))
    yield entered, release
    SCENARIOS.pop("test-block", None)


def test_draining_engine_rejects_submissions(tmp_path):
    g = random_eulerian(30, 3, 10, seed=12)
    with _engine(tmp_path, tmp_path / "journal") as engine:
        key = engine.catalog.put(g)
        stats = engine.drain(timeout=1.0)
        assert stats["drained"] is True
        with pytest.raises(EngineDrainingError):
            engine.submit("circuit", graph_key=key)
        # The HTTP mapping: 503 + a draining flag for clients to back off.
        api = JobApi(engine)
        status, payload = api.handle("POST", "/jobs", json.dumps(
            {"scenario": "circuit", "graph_key": key}).encode())
        assert status == 503 and payload["draining"] is True


def test_impatient_drain_leaves_queued_jobs_recoverable(tmp_path, block_scenario):
    entered, _release = block_scenario
    g = grid_city(6, 6)
    engine = _engine(tmp_path, tmp_path / "journal")
    try:
        blocker = engine.submit("test-block", graph=g)
        entered.wait(timeout=30)
        queued = engine.submit("circuit", graph_key=engine.job(blocker.job_id).graph_key,
                               config=RunConfig(n_parts=2))
        assert engine.job(queued.job_id).state == QUEUED
        stats = engine.drain(timeout=0.3, grace=5.0)
        # The running blocker was pushed to its safe point and cancelled;
        # the queued job was deliberately NOT cancelled.
        assert stats["remaining_running"] == 0
        assert stats["remaining_queued"] == 1
        assert stats["journal_records_kept"] >= 1
        queued_id = queued.job_id
    finally:
        engine.close(cancel_queued=False)

    # Next process: the journaled leftover is re-enqueued and completes.
    with _engine(tmp_path, tmp_path / "journal") as engine2:
        assert engine2.recovery_stats["requeued"] == 1
        result = engine2.handle(queued_id).result(timeout=60)
        assert result.circuits


def test_journal_failure_never_acknowledges(tmp_path, monkeypatch):
    """If the WAL append raises, the submission must not appear accepted."""
    g = random_eulerian(30, 3, 10, seed=13)
    with _engine(tmp_path, tmp_path / "journal") as engine:
        key = engine.catalog.put(g)

        def boom(*a, **k):
            raise OSError("disk full")

        monkeypatch.setattr(engine.journal, "append", boom)
        with pytest.raises(OSError, match="disk full"):
            engine.submit("circuit", graph_key=key)
        monkeypatch.undo()
        # Nothing leaked: the graph pin was released, no QUEUED job remains.
        assert engine.queue.counts()[QUEUED] == 0
        assert all(j.state != QUEUED for j in engine.jobs())
