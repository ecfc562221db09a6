"""Async front end: the full serve API over one asyncio event loop.

:class:`~repro.jobs.aserver.AsyncJobServer` must be a drop-in replacement
for the threaded front end — same :class:`~repro.jobs.server.JobApi`, same
status codes, same lifecycle — while multiplexing keep-alive connections
on a single loop. The suite drives it through the real
:class:`~repro.jobs.client.JobClient` (persistent connections), so
keep-alive reuse is exercised on every test, and once over a pre-forked
process-dispatcher engine to pin the full zero-copy serving stack.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.bsp import shm
from repro.generate.synthetic import grid_city
from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.aserver import AsyncJobServer
from repro.jobs.client import JobClient, JobClientError


@pytest.fixture
def served(tmp_path):
    """A live engine + async server on an ephemeral port, torn down after."""
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=2,
                       artifact_dir=tmp_path / "arts")
    server = AsyncJobServer(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.wait_started(10)
    host, port = server.server_address
    client = JobClient(f"http://{host}:{port}")
    try:
        yield engine, client
    finally:
        client.close()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        engine.close()


def test_full_api_cycle(served):
    _, client = served
    health = client.health()
    assert health["status"] == "ok"
    assert health["dispatch"]["mode"] == "thread"
    assert set(health["segments"]) == {"segments", "bytes", "attaches"}

    g = grid_city(6, 6)
    up = client.put_graph(
        edges=list(zip(g.edge_u.tolist(), g.edge_v.tolist())), name="city")
    sub = client.submit("circuit", graph_key=up["graph_key"],
                        config={"n_parts": 4, "verify": True})
    final = client.wait(sub["job_id"], timeout=60)
    assert final["state"] == "DONE"
    doc = client.result(sub["job_id"])
    assert doc["artifact"] == "job"
    assert doc["scenario_result"]["sub_runs"][0]["run"]["circuit"]["verified"]
    assert client.jobs()[0]["id"] == sub["job_id"]


def test_error_statuses_match_threaded_front_end(served):
    _, client = served
    with pytest.raises(JobClientError) as exc:
        client.status("job-999999")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client.submit("circuit", graph_key="no-such-graph")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client._request("POST", "/jobs", {"scenario": "circuit"})
    assert exc.value.status == 400
    with pytest.raises(JobClientError) as exc:
        client._request("GET", "/nowhere")
    assert exc.value.status == 404


def test_keep_alive_reuses_one_connection(served):
    _, client = served
    client.health()
    first = client._connection()
    for _ in range(10):
        client.health()
    assert client._connection() is first  # no reconnect across requests


def test_malformed_requests_do_not_kill_the_loop(served):
    _, client = served
    host, port = client._host, client._port
    # Raw garbage on a fresh socket: the loop answers 400 and survives.
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.connect()
    conn.sock.sendall(b"NONSENSE\r\n\r\n")
    data = conn.sock.recv(4096)
    assert b"400" in data.split(b"\r\n", 1)[0]
    conn.close()
    # Non-dict JSON body: a clean 400, not a 500.
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.request("POST", "/jobs", body=b"[1,2,3]",
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    assert resp.status == 400
    assert "error" in json.loads(resp.read())
    conn.close()
    assert client.health()["status"] == "ok"


@pytest.mark.skipif(not shm.shm_available(), reason="needs POSIX shm")
def test_async_front_end_over_preforked_engine(tmp_path):
    """The whole zero-copy stack: async HTTP -> queue -> forked workers."""
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=2,
                       dispatcher="process", artifact_dir=tmp_path / "arts")
    server = AsyncJobServer(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.wait_started(10)
    host, port = server.server_address
    client = JobClient(f"http://{host}:{port}")
    try:
        health = client.health()
        assert health["dispatch"] == {"mode": "process", "dispatchers": 2,
                                      "pool": None}
        g = grid_city(6, 6)
        up = client.put_graph(
            edges=list(zip(g.edge_u.tolist(), g.edge_v.tolist())))
        jobs = [
            client.submit("circuit", graph_key=up["graph_key"],
                          config={"n_parts": 4})
            for _ in range(4)
        ]
        for sub in jobs:
            assert client.wait(sub["job_id"], timeout=120)["state"] == "DONE"
        assert client.health()["segments"]["segments"] >= 1
    finally:
        client.close()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        engine.close()
