"""PATCH /graphs and the /watches routes over HTTP.

Payload shapes, status codes, and rollback on injected faults, through
the real client and server.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.client import JobClient, JobClientError
from repro.jobs.server import make_server

from tests.deltas.util import superposed_cycles


@pytest.fixture
def served(tmp_path):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=2,
                       artifact_dir=tmp_path / "art")
    server = make_server(engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = JobClient(f"http://{host}:{port}")
    try:
        yield engine, client, (host, port)
    finally:
        client.close()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        engine.close()


def test_patch_mutate_and_watch_lifecycle(served):
    engine, client, _ = served
    g0 = superposed_cycles(40)
    k0 = engine.catalog.put(g0, name="base")
    w = client.create_watch(k0, config={"n_parts": 4}, name="w")
    assert w["id"].startswith("watch-") and w["graph_key"] == k0
    u, v = g0.endpoints(2)
    out = client.mutate(
        k0,
        insert=[(int(u), g0.n_vertices), (g0.n_vertices, int(v))],
        delete_eids=[2], name="detour")
    assert out["base_key"] == k0 and out["graph_key"] != k0
    assert out["delta"]["n_inserts"] == 2 and out["delta"]["n_deletes"] == 1
    info = out["watches"][w["id"]]
    assert client.wait(info["job_id"], timeout=60)["state"] == "DONE"
    listed = client.watches()
    assert [x["id"] for x in listed] == [w["id"]]
    assert listed[0]["mutations"] == 1
    assert client.watch(w["id"])["graph_key"] == out["graph_key"]
    client.delete_watch(w["id"])
    assert client.watches() == []


def test_mutation_error_statuses(served):
    engine, client, _ = served
    g0 = superposed_cycles(20, seed=1)
    k0 = engine.catalog.put(g0)
    with pytest.raises(JobClientError) as exc:
        client.mutate("no-such-graph", insert=[(0, 1)])
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client.mutate(k0)  # empty delta
    assert exc.value.status == 400
    with pytest.raises(JobClientError) as exc:
        client.create_watch("no-such-graph")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client.create_watch(k0, scenario="no-such-scenario")
    assert exc.value.status == 400
    with pytest.raises(JobClientError) as exc:
        client.watch("watch-999999")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client.delete_watch("watch-999999")
    assert exc.value.status == 404


def test_injected_fault_maps_to_500_and_rolls_back(served):
    engine, client, (host, port) = served
    g0 = superposed_cycles(20, seed=2)
    k0 = engine.catalog.put(g0)
    w = client.create_watch(k0)
    before = set(engine.catalog.keys())
    conn = http.client.HTTPConnection(host, port)
    try:
        conn.request("PATCH", f"/graphs/{k0}",
                     body=json.dumps({"insert": [[0, 1]],
                                      "faults": "delta_apply"}),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = json.loads(resp.read())
    finally:
        conn.close()
    assert resp.status == 500 and data.get("fault") is True
    assert set(engine.catalog.keys()) == before
    assert client.watch(w["id"])["mutations"] == 0
