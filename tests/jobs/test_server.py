"""Serve API: full HTTP round-trips against an in-process server."""

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.bsp import shm
from repro.generate.synthetic import grid_city
from repro.graph.io import save_edge_list
from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.client import JobClient, JobClientError
from repro.jobs.server import config_from_dict, make_server
from repro.pipeline import RunConfig


@pytest.fixture
def served(tmp_path):
    """A live engine + server on an ephemeral port, torn down after."""
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=2,
                       artifact_dir=tmp_path / "arts")
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    client = JobClient(f"http://{host}:{port}")
    try:
        yield engine, client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        engine.close()


def test_health_and_empty_jobs(served):
    _, client = served
    health = client.health()
    assert health["status"] == "ok"
    assert health["jobs"]["QUEUED"] == 0
    assert health["dispatch"]["mode"] == "thread"
    assert set(health["segments"]) == {"segments", "bytes", "attaches"}
    assert client.jobs() == []


def test_submit_poll_result_cycle(served, tmp_path):
    _, client = served
    g = grid_city(6, 6)
    path = tmp_path / "g.el"
    save_edge_list(g, path)

    up = client.put_graph(path=str(path), name="city")
    assert up["graph_key"]
    sub = client.submit("circuit", graph_key=up["graph_key"],
                        config={"n_parts": 4, "verify": True})
    final = client.wait(sub["job_id"], timeout=60)
    assert final["state"] == "DONE"
    assert final["queue_latency_seconds"] >= 0.0

    doc = client.result(sub["job_id"])
    assert doc["artifact"] == "job" and doc["schema_version"] == 5
    nested = doc["scenario_result"]
    assert nested["scenario"] == "circuit"
    assert nested["sub_runs"][0]["run"]["circuit"]["verified"]

    assert client.jobs()[0]["id"] == sub["job_id"]
    cat = client.catalog()
    assert cat["entries"][0]["name"] == "city"
    assert cat["disk_bytes"] > 0


def test_inline_graph_submission(served):
    _, client = served
    up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]], name="triangle")
    job = client.submit("circuit", graph_key=up["graph_key"],
                        config={"n_parts": 2})
    assert client.wait(job["job_id"], timeout=60)["state"] == "DONE"


def test_result_of_unknown_job_is_404(served):
    _, client = served
    with pytest.raises(JobClientError) as exc:
        client.result("job-999999")
    assert exc.value.status == 404


def test_error_statuses(served):
    _, client = served
    with pytest.raises(JobClientError) as exc:
        client.status("job-999999")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client.submit("not-a-scenario", graph_key="ff00")
    assert exc.value.status in (400, 404)
    with pytest.raises(JobClientError) as exc:
        client.submit("circuit", graph_key="no-such-graph")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client._request("GET", "/no/such/route")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client._request("POST", "/jobs", {"scenario": "circuit"})  # no graph
    assert exc.value.status == 400


def test_cancel_endpoint(served):
    _, client = served
    up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
    job = client.submit("circuit", graph_key=up["graph_key"],
                        config={"n_parts": 2})
    client.wait(job["job_id"], timeout=60)
    # Terminal jobs refuse cancellation but the endpoint stays 200.
    out = client.cancel(job["job_id"])
    assert out["cancelled"] is False and out["state"] == "DONE"


def test_keep_alive_reuses_one_connection(served):
    _, client = served
    client.health()
    first = client._connection()
    for _ in range(10):
        client.health()
    assert client._connection() is first  # no reconnect across requests


def _raw_exchange(client, request: bytes) -> bytes:
    """Send raw bytes on a fresh socket; everything the server answers
    before it closes the connection."""
    with socket.create_connection((client._host, client._port),
                                  timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_malformed_requests_do_not_kill_the_server(served):
    _, client = served
    # A one-word request line: the stdlib answers it the HTTP/0.9 way, an
    # HTML error page with no status line.
    assert b"Error code: 400" in _raw_exchange(client, b"NONSENSE\r\n\r\n")
    # A Content-Length that is not a non-negative integer: a JSON 400, then
    # the server closes the connection (rather than raising, or reading
    # to EOF).
    for length in (b"abc", b"-1"):
        data = _raw_exchange(
            client, b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + length + b"\r\n\r\n{}")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), data
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]
    # Non-object JSON body: a clean 400, not a 500.
    conn = http.client.HTTPConnection(client._host, client._port, timeout=10)
    conn.request("POST", "/jobs", body=b"[1,2,3]",
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    assert resp.status == 400
    assert "error" in json.loads(resp.read())
    conn.close()
    assert client.health()["status"] == "ok"


@pytest.mark.skipif(not shm.shm_available(), reason="needs POSIX shm")
def test_http_over_preforked_engine(tmp_path):
    """HTTP -> queue -> forked workers attaching the graph's segment."""
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=2,
                       dispatcher="process", artifact_dir=tmp_path / "arts")
    server = make_server(engine, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    client = JobClient(f"http://{host}:{port}")
    try:
        assert client.health()["dispatch"] == {
            "mode": "process", "dispatchers": 2, "pool": None}
        g = grid_city(6, 6)
        up = client.put_graph(
            edges=list(zip(g.edge_u.tolist(), g.edge_v.tolist())))
        jobs = [client.submit("circuit", graph_key=up["graph_key"],
                              config={"n_parts": 4})
                for _ in range(4)]
        for sub in jobs:
            assert client.wait(sub["job_id"], timeout=120)["state"] == "DONE"
        assert client.health()["segments"]["segments"] >= 1
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        engine.close()


@contextlib.contextmanager
def _serve_child(cache_root, *flags):
    """A `repro-euler serve --port 0` child with stdout on a pipe and no
    PYTHONUNBUFFERED; yields ``(proc, url)`` once it announces its URL."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache-root", str(cache_root), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    ) as proc:
        lines = []

        def _pump():
            for line in proc.stdout:
                lines.append(line)

        reader = threading.Thread(target=_pump, daemon=True)
        reader.start()
        try:
            deadline = time.monotonic() + 10
            while not any(b"listening on" in line for line in lines):
                assert time.monotonic() < deadline, \
                    f"no URL after 10 s: {lines}"
                assert proc.poll() is None, f"serve exited: {lines}"
                time.sleep(0.05)
            url = next(line for line in lines if b"listening on" in line
                       ).split(b"listening on ", 1)[1].split()[0].decode()
            yield proc, url
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()  # e.g. a drain held up by a sleeping job
            proc.wait(timeout=30)
            reader.join(timeout=10)
        assert not reader.is_alive()


def test_cli_serve_announces_its_url_on_a_pipe(tmp_path):
    """The `listening on` line reaches a pipe while the server runs, with
    no PYTHONUNBUFFERED: launchers read the bound port from it."""
    with _serve_child(tmp_path / "cat") as (_, url):
        with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
            assert resp.status == 200


def test_kill_9_mid_backlog_loses_no_acked_job(tmp_path):
    """SIGKILL a real `serve` child with a journaled backlog and restart it
    on the same root: recovery requeues every acked job, each ends DONE,
    and the restarted server drains and exits 0 on SIGTERM."""
    flags = ("--dispatchers", "1", "--max-retries", "2")
    g = grid_city(6, 6)
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    # The first job sleeps at its first superstep on the only dispatcher,
    # so every job acked after it is still queued when the kill lands.
    # Fault plans are never journaled: the recovered run is clean.
    hold = {"n_parts": 2, "faults": "slow@at=0,delay=300"}
    with _serve_child(tmp_path / "cat", *flags) as (proc, url):
        client = JobClient(url)
        key = client.put_graph(edges=edges)["graph_key"]
        acked = [client.submit("circuit", graph_key=key, config=config)
                 ["job_id"] for config in [hold] + [{"n_parts": 2}] * 7]
        client.close()
        proc.kill()
        proc.wait(timeout=30)

    with _serve_child(tmp_path / "cat", *flags) as (proc, url):
        client = JobClient(url)
        try:
            states = {jid: client.wait(jid, timeout=60)["state"]
                      for jid in acked}
            recovery = client.health()["fault_tolerance"]["recovery"]
        finally:
            client.close()
        assert states == dict.fromkeys(acked, "DONE")
        assert recovery["requeued"] == len(acked)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0


def test_config_from_dict_round_trip():
    cfg = config_from_dict({"n_parts": 8, "partitioner": "hash",
                            "seed": 7, "verify": True, "workers": 2,
                            "executor": "thread"})
    assert cfg == RunConfig(n_parts=8, partitioner="hash", seed=7,
                            verify=True, workers=2, executor="thread")
    with pytest.raises(ValueError):
        config_from_dict({"spill_dir": "/tmp"})  # server-owned field
    with pytest.raises(ValueError):
        config_from_dict({"bogus": 1})
    # bool("false") is True — string booleans must be rejected, not flipped.
    with pytest.raises(ValueError, match="JSON boolean"):
        config_from_dict({"verify": "false"})
    with pytest.raises(ValueError, match="JSON boolean"):
        config_from_dict({"validate": 1})
