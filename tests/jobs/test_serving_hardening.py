"""Serving hardening: bounded registry, cancellation, backpressure.

Three contracts a long-lived server lives or dies by:

* **O(retention) registry** — N ≫ retention submissions leave a bounded
  ``queue.jobs()`` while every evicted job still answers status (and the
  full result document) from the durable artifact index.
* **Mid-run cancellation** — ``DELETE /jobs/<id>`` (or ``engine.cancel``)
  on a RUNNING job reaches CANCELLED at the next safe point on every
  executor backend and both shared pools, with the partial pass history
  persisted in the schema-v5 artifact.
* **Backpressure** — a full queue rejects with a typed
  :class:`~repro.errors.QueueFullError` → HTTP 429, not unbounded growth.
"""

import json
import threading

import pytest

from repro.errors import (
    JobError,
    JobCancelledError,
    JobFailedError,
    JobResultEvictedError,
    QueueFullError,
)
from repro.bench.report_io import load_job_summary
from repro.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    GraphCatalog,
    JobEngine,
)
from repro.jobs.client import JobClient, JobClientError
from repro.jobs.journal import JobJournal
from repro.jobs.queue import Job, JobQueue
from repro.jobs.server import MAX_WIRE_PRIORITY, make_server
from repro.pipeline import RunConfig
from repro.scenarios.base import SCENARIOS, Scenario, SubProblem, register_scenario


class _Blocking(Scenario):
    """Holds its job RUNNING (inside reduce) until released."""

    name = "test-hold"

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def reduce(self, graph, config):
        self.entered.set()
        assert self.release.wait(60), "test never released the blocker"
        return [SubProblem(key="whole", graph=graph, n_parts=config.n_parts)]

    def postprocess(self, graph, config, subs, contexts):
        return ([contexts[0].circuit] if contexts else []), {}


@pytest.fixture
def blocker():
    sc = _Blocking()
    register_scenario(sc)
    yield sc
    SCENARIOS.pop(sc.name, None)


# -- bounded registry -------------------------------------------------------


def test_registry_soak_holds_o_retention_jobs(tmp_path, triangle):
    """50x retention submissions; bounded registry, evicted status served."""
    retention = 4
    n_jobs = 50 * retention
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=2,
                   pool_kind=None, artifact_dir=tmp_path / "arts",
                   keep_results=2, retention=retention) as engine:
        handles = [engine.submit("circuit", graph=triangle,
                                 config=RunConfig(n_parts=2))
                   for _ in range(n_jobs)]
        for h in handles:
            assert h.wait(120)
        assert len(engine.jobs()) <= retention

        counts = engine.queue.counts()
        assert counts[DONE] == n_jobs  # lifetime totals survive eviction

        # The very first job was evicted from the registry...
        first = handles[0].job_id
        with pytest.raises(JobError):
            engine.job(first)
        # ...but its status still answers, from the artifact index.
        summary = engine.job_summary(first)
        assert summary["id"] == first and summary["state"] == DONE
        # And the full result document too.
        doc = engine.artifact_doc(first)
        assert doc["artifact"] == "job" and doc["schema_version"] == 5
        assert doc["scenario_result"]["scenario"] == "circuit"


def test_queue_level_retention_and_counts():
    q = JobQueue(retention=2)
    jobs = [Job(id=f"j{i}", scenario="circuit", graph_key="k",
                config=RunConfig()) for i in range(5)]
    for j in jobs:
        q.submit(j)
    assert q.counts()["QUEUED"] == 5
    for _ in range(5):
        q.finish(q.pop(timeout=1), DONE)
    assert [j.id for j in q.jobs()] == ["j3", "j4"]
    assert q.counts()["DONE"] == 5 and q.counts()["RUNNING"] == 0

    with pytest.raises(ValueError):
        JobQueue(retention=0)
    with pytest.raises(ValueError):
        JobQueue(max_queued=0)


def test_pop_survives_evicted_stale_heap_entries():
    """A cancelled-while-queued job retention-evicted before its lazy-deleted
    heap slot pops must be skipped, not KeyError the dispatcher."""
    q = JobQueue(retention=1)
    jobs = [Job(id=f"j{i}", scenario="s", graph_key="k", config=RunConfig())
            for i in range(4)]
    for j in jobs:
        q.submit(j)
    q.cancel("j1")  # heap slot stays behind as a lazy-deleted entry
    q.finish(q.pop(timeout=1), DONE)  # j0; evicts j1 from the registry
    # The next pops walk over j1's stale slot (now registry-evicted).
    assert q.pop(timeout=1).id == "j2"
    assert q.pop(timeout=1).id == "j3"
    assert q.counts()[CANCELLED] == 1


def test_evicted_job_summary_names_its_artifact(tmp_path, triangle):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind=None, artifact_dir=tmp_path / "arts",
                   retention=1) as engine:
        first = engine.submit("circuit", graph=triangle,
                              config=RunConfig(n_parts=2))
        first.wait(60)
        for _ in range(3):
            engine.submit("circuit", graph=triangle,
                          config=RunConfig(n_parts=2)).wait(60)
        summary = engine.job_summary(first.job_id)  # from the artifact index
    # The durable status row points at its own artifact, exactly like a
    # live summary would — consumers can find the full document.
    assert summary["artifact_path"] == str(
        tmp_path / "arts" / f"{first.job_id}.json"
    )


# -- backpressure -----------------------------------------------------------


def test_queue_full_raises_typed_error():
    q = JobQueue(max_queued=2)
    q.submit(Job(id="a", scenario="s", graph_key="k", config=RunConfig()))
    q.submit(Job(id="b", scenario="s", graph_key="k", config=RunConfig()))
    with pytest.raises(QueueFullError) as exc:
        q.submit(Job(id="c", scenario="s", graph_key="k", config=RunConfig()))
    assert exc.value.max_queued == 2
    # Popping frees a slot; submission works again.
    q.pop(timeout=1)
    q.submit(Job(id="c", scenario="s", graph_key="k", config=RunConfig()))


def test_rejected_submission_releases_the_graph_pin(tmp_path, triangle):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind=None, max_queued=1) as engine:
        blocker = _Blocking()
        register_scenario(blocker)
        try:
            running = engine.submit("test-hold", graph=triangle)
            assert blocker.entered.wait(30)
            queued = engine.submit("circuit", graph=triangle,
                                   config=RunConfig(n_parts=2))
            with pytest.raises(QueueFullError):
                engine.submit("circuit", graph=triangle,
                              config=RunConfig(n_parts=2))
            key = engine.catalog.put(triangle)
            # 2 live jobs (running + queued) hold exactly 2 pin refs; the
            # rejected submission must have released its own.
            assert engine.catalog._pins.get(key) == 2
            blocker.release.set()
            running.result(timeout=60)
            queued.result(timeout=60)
        finally:
            SCENARIOS.pop("test-hold", None)


# -- cancellation parity across backends ------------------------------------


BACKEND_CONFIGS = [
    pytest.param(None, {"executor": "serial"}, id="serial"),
    pytest.param(None, {"executor": "thread", "workers": 2}, id="thread"),
    pytest.param(None, {"executor": "process", "workers": 2}, id="process"),
    pytest.param(("thread", 2), {}, id="shared-thread-pool"),
    pytest.param(("process", 2), {}, id="shared-process-pool"),
]


@pytest.mark.parametrize("pool_spec,cfg_kwargs", BACKEND_CONFIGS)
def test_cancel_running_job_mid_scenario(tmp_path, grid8, blocker,
                                         pool_spec, cfg_kwargs):
    pool_kind, pool_workers = pool_spec if pool_spec else (None, 1)
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind=pool_kind, pool_workers=pool_workers,
                   artifact_dir=tmp_path / "arts") as engine:
        h = engine.submit("test-hold", graph=grid8,
                          config=RunConfig(n_parts=4, **cfg_kwargs))
        assert blocker.entered.wait(30)
        assert engine.job(h.job_id).state == "RUNNING"
        assert engine.cancel(h.job_id) is True  # accepted, lands at a safe point
        blocker.release.set()
        with pytest.raises(JobCancelledError):
            h.result(timeout=60)
        job = engine.job(h.job_id)
        assert job.state == CANCELLED

    # The schema-v5 artifact persisted the partial pass history.
    doc = json.loads((tmp_path / "arts" / f"{job.id}.json").read_text())
    assert doc["schema_version"] == 5 and doc["job"]["state"] == CANCELLED
    passes = [p["pass"] for p in doc["pass_history"]]
    assert passes[:2] == ["load_graph", "derived_artifacts"]  # partial work
    cancelled = [p for p in doc["pass_history"] if p["pass"] == "cancelled"]
    assert cancelled and cancelled[0]["reason"] == "cancel"
    assert doc["scenario_result"] is None


def test_timeout_seconds_fails_job_at_next_safe_point(tmp_path, grid8, blocker):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind=None, artifact_dir=tmp_path / "arts") as engine:
        h = engine.submit("test-hold", graph=grid8,
                          config=RunConfig(n_parts=4), timeout_seconds=0.05)
        assert blocker.entered.wait(30)
        import time

        time.sleep(0.1)  # let the run deadline elapse while blocked
        blocker.release.set()
        with pytest.raises(JobFailedError, match="deadline exceeded"):
            h.result(timeout=60)
        job = engine.job(h.job_id)
        assert job.state == FAILED
        assert job.summary()["timeout_seconds"] == 0.05


def test_default_timeout_applies_when_submit_omits_it(tmp_path, triangle):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind=None, default_timeout=600.0) as engine:
        h = engine.submit("circuit", graph=triangle,
                          config=RunConfig(n_parts=2))
        h.result(timeout=60)  # a generous default deadline changes nothing
        assert engine.job(h.job_id).timeout_seconds == 600.0


# -- evicted results (keep_results) -----------------------------------------


def test_trimmed_result_reloads_from_artifact(tmp_path, triangle):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind=None, keep_results=0,
                   artifact_dir=tmp_path / "arts") as engine:
        h = engine.submit("circuit", graph=triangle,
                          config=RunConfig(n_parts=2))
        h.wait(60)
        assert engine.job(h.job_id).result is None  # trimmed immediately
        doc = h.result(timeout=60)  # reloaded scenario-artifact dict
        assert doc["artifact"] == "scenario" and doc["scenario"] == "circuit"
        assert doc["circuits"][0]["n_edges"] == triangle.n_edges


def test_trimmed_result_without_artifact_raises_typed_error(tmp_path, triangle):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind=None, keep_results=0) as engine:  # no artifact_dir
        h = engine.submit("circuit", graph=triangle,
                          config=RunConfig(n_parts=2))
        h.wait(60)
        with pytest.raises(JobResultEvictedError, match="keep_results"):
            h.result(timeout=60)


# -- HTTP round-trips --------------------------------------------------------


def _serve(engine):
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    return server, JobClient(f"http://{host}:{port}")


def test_http_429_on_full_queue(tmp_path, blocker):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_kind=None, max_queued=1)
    server, client = _serve(engine)
    try:
        up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
        running = client.submit("test-hold", graph_key=up["graph_key"])
        assert blocker.entered.wait(30)
        queued = client.submit("circuit", graph_key=up["graph_key"],
                               config={"n_parts": 2})
        with pytest.raises(JobClientError) as exc:
            client.submit("circuit", graph_key=up["graph_key"],
                          config={"n_parts": 2})
        assert exc.value.status == 429
        assert "full" in str(exc.value)
        health = client.health()
        assert health["limits"]["max_queued"] == 1
        blocker.release.set()
        client.wait(running["job_id"], timeout=60)
        client.wait(queued["job_id"], timeout=60)
    finally:
        blocker.release.set()
        server.shutdown()
        server.server_close()
        engine.close()


def test_http_delete_cancels_running_job(tmp_path, blocker):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_kind=None, artifact_dir=tmp_path / "arts")
    server, client = _serve(engine)
    try:
        up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
        job = client.submit("test-hold", graph_key=up["graph_key"])
        assert blocker.entered.wait(30)
        out = client.cancel(job["job_id"])
        assert out["cancelled"] is True and out["state"] == "RUNNING"
        blocker.release.set()
        final = client.wait(job["job_id"], timeout=60)
        assert final["state"] == CANCELLED
        # The result endpoint serves the terminal document (no walks).
        doc = client.result(job["job_id"])
        assert doc["job"]["state"] == CANCELLED
    finally:
        blocker.release.set()
        server.shutdown()
        server.server_close()
        engine.close()


def test_http_evicted_job_status_and_result_still_served(tmp_path, triangle):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_kind=None, retention=2, keep_results=1,
                       artifact_dir=tmp_path / "arts")
    server, client = _serve(engine)
    try:
        up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
        ids = [client.submit("circuit", graph_key=up["graph_key"],
                             config={"n_parts": 2})["job_id"]
               for _ in range(6)]
        for jid in ids:
            client.wait(jid, timeout=60)
        assert len(client.jobs()) <= 2  # the registry view is bounded
        # The first job left the registry but not the artifact index.
        first = client.status(ids[0])
        assert first["id"] == ids[0] and first["state"] == DONE
        doc = client.result(ids[0])
        assert doc["artifact"] == "job"
        assert doc["scenario_result"]["scenario"] == "circuit"
        # Cancel on an evicted (terminal) job: refused, state reported.
        out = client.cancel(ids[0])
        assert out["cancelled"] is False and out["state"] == DONE
        # A genuinely unknown id is still a 404.
        with pytest.raises(JobClientError) as exc:
            client.status("job-999999")
        assert exc.value.status == 404
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


def test_status_turns_terminal_only_when_the_queue_commits(tmp_path, triangle):
    """A finishing job reads RUNNING until ``queue.finish`` commits it.

    The artifact is written and the terminal journal record is appended
    first; holding that append open must not let a status read see DONE
    while the job's handle is still pending and its retention trim has not
    run (what made evicted-job lookups flaky).
    """
    journal = JobJournal(tmp_path / "journal")
    in_append, release = threading.Event(), threading.Event()
    append = journal.append

    def held_append(event, job_id, **fields):
        if event == "done":
            in_append.set()
            assert release.wait(60), "test never released the append"
        return append(event, job_id, **fields)

    journal.append = held_append
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_kind=None, retention=1, journal=journal,
                       artifact_dir=tmp_path / "arts")
    try:
        handle = engine.submit("circuit", graph=triangle,
                               config=RunConfig(n_parts=2))
        assert in_append.wait(60)
        try:
            assert engine.job_summary(handle.job_id)["state"] == RUNNING
            assert not handle.done()
            # The durable artifact already records the terminal state.
            assert load_job_summary(tmp_path / "arts",
                                    handle.job_id)["state"] == DONE
        finally:
            release.set()
        handle.result(timeout=60)
        assert engine.job_summary(handle.job_id)["state"] == DONE
    finally:
        release.set()
        engine.close()


def test_http_410_when_result_evicted_and_no_artifact(tmp_path):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_kind=None, keep_results=0)  # no artifact_dir
    server, client = _serve(engine)
    try:
        up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
        job = client.submit("circuit", graph_key=up["graph_key"],
                            config={"n_parts": 2})
        client.wait(job["job_id"], timeout=60)
        with pytest.raises(JobClientError) as exc:
            client.result(job["job_id"])
        assert exc.value.status == 410
        assert "evicted" in str(exc.value)
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


def test_http_priority_clamped_at_the_wire(tmp_path, triangle):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_kind=None)
    server, client = _serve(engine)
    try:
        up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
        job = client.submit("circuit", graph_key=up["graph_key"],
                            config={"n_parts": 2}, priority=10**9)
        assert client.status(job["job_id"])["priority"] == MAX_WIRE_PRIORITY
        job = client.submit("circuit", graph_key=up["graph_key"],
                            config={"n_parts": 2}, priority=-(10**9))
        assert client.status(job["job_id"])["priority"] == -MAX_WIRE_PRIORITY
        for jid in [j["id"] for j in client.jobs()]:
            client.wait(jid, timeout=60)
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


def test_http_timeout_seconds_over_the_wire(tmp_path, blocker):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_kind=None)
    server, client = _serve(engine)
    try:
        up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
        job = client.submit("test-hold", graph_key=up["graph_key"],
                            timeout_seconds=0.05)
        assert blocker.entered.wait(30)
        import time

        time.sleep(0.1)
        blocker.release.set()
        final = client.wait(job["job_id"], timeout=60)
        assert final["state"] == FAILED
        assert "deadline exceeded" in final["error"]
    finally:
        blocker.release.set()
        server.shutdown()
        server.server_close()
        engine.close()


# -- client-disconnect handling ---------------------------------------------


class _DeadSocketWriter:
    """A wfile whose peer hung up: every write raises BrokenPipeError."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_send_swallows_broken_pipe_and_closes_connection():
    from repro.jobs.server import _JobRequestHandler

    h = _JobRequestHandler.__new__(_JobRequestHandler)
    h.request_version = "HTTP/1.1"
    h.requestline = "GET /healthz HTTP/1.1"
    h.close_connection = False
    h.wfile = _DeadSocketWriter()
    h._headers_buffer = []
    h._send(200, {"status": "ok"})  # must not raise on the dead socket
    assert h.close_connection is True


def test_route_does_not_reenter_send_on_disconnect():
    """A peer that hangs up mid-request never gets a response write."""
    from repro.jobs.server import _JobRequestHandler

    sent = []

    class _DeadRead:
        def read(self, n):
            raise ConnectionResetError(104, "Connection reset by peer")

    class _BodyProbe(_JobRequestHandler):
        def __init__(self):  # bypass the socket machinery
            self.path = "/healthz"
            self.close_connection = False
            self.headers = {"Content-Length": "5"}
            self.rfile = _DeadRead()

        def _send(self, status, payload):
            sent.append(status)

    probe = _BodyProbe()
    probe._route("GET")  # disconnect while reading the body: no response
    assert sent == [] and probe.close_connection is True

    class _WriteProbe(_JobRequestHandler):
        def __init__(self):
            self.close_connection = False

        def send_response(self, status):
            raise BrokenPipeError(32, "Broken pipe")

    probe = _WriteProbe()
    probe._send(500, {"error": "x"})  # dead socket mid-response: no raise
    assert probe.close_connection is True
