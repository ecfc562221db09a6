"""``GET /metrics`` over HTTP: a scrape-able page with the full schema.

After real traffic through the client and server, the page must parse,
expose every :data:`~repro.obs.REQUIRED_FAMILIES` entry, count what the
traffic did, and be served as Prometheus text 0.0.4 — a family that stops
rendering, or a page a Prometheus scrape would reject, fails here.
"""

import re
import threading

import pytest

from repro.generate.synthetic import grid_city
from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.client import JobClient, JobClientError
from repro.jobs.server import make_server
from repro.obs import REQUIRED_FAMILIES, MetricsRegistry, parse_prometheus_text

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\S+)$")


def _samples(page: str, family: str) -> dict:
    """``{label block: value}`` of one family's samples on a page."""
    out = {}
    for line in page.splitlines():
        m = _SAMPLE.match(line)
        if m and m.group(1) == family:
            out[m.group(2) or ""] = float(m.group(3))
    return out


def _serve(engine):
    server = make_server(engine, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    return server, JobClient(f"http://{host}:{port}")


@pytest.fixture
def page(tmp_path):
    """/metrics after two circuit jobs, a 404 and a health check."""
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       artifact_dir=tmp_path / "arts",
                       metrics=MetricsRegistry())
    server, client = _serve(engine)
    try:
        up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]], name="triangle")
        for _ in range(2):
            sub = client.submit("circuit", graph_key=up["graph_key"],
                                config={"n_parts": 2})
            client.wait(sub["job_id"], timeout=60)
        with pytest.raises(JobClientError):
            client.status("job-999999")  # a 404 for the HTTP counter
        client.health()
        return client.metrics()
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        engine.close()


def test_page_parses_and_covers_required_families(page):
    families = parse_prometheus_text(page)  # raises on malformed text
    missing = [f for f in REQUIRED_FAMILIES if f not in families]
    assert missing == []


def test_traffic_actually_landed_in_the_counters(page):
    families = parse_prometheus_text(page)
    assert families["repro_queue_delay_seconds"]["type"] == "histogram"
    # 2 jobs ran: delay histogram has samples, jobs_total counted DONE,
    # and every request above incremented the HTTP counter.
    assert 'repro_queue_delay_seconds_count 2' in page
    assert 'repro_jobs_total{state="DONE"} 2' in page
    assert families["repro_http_responses_total"]["samples"] >= 2
    assert 'status="404"' in page


def test_content_type_is_prometheus_text(tmp_path):
    import http.client

    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       metrics=MetricsRegistry())
    server, client = _serve(engine)
    try:
        host, port = server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        body = resp.read()
        assert resp.status == 200
        assert resp.getheader("Content-Type").startswith("text/plain")
        assert "version=0.0.4" in resp.getheader("Content-Type")
        parse_prometheus_text(body.decode())
        conn.close()
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        engine.close()


def test_page_agrees_with_healthz_and_catalog(tmp_path):
    """Set up as the CLI does (a pre-built catalog and a journal dir, each
    on its own registry, beside an engine on another), the page carries
    each count from the registry that keeps it: every catalog kind equals
    ``/catalog``, journal appends and retries equal ``/healthz``, and no
    family renders twice."""
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       journal=tmp_path / "journal",
                       metrics=MetricsRegistry())
    server, client = _serve(engine)
    try:
        g = grid_city(4, 4)
        key = client.put_graph(edges=zip(g.edge_u, g.edge_v),
                               name="grid")["graph_key"]
        for _ in range(2):  # the second run hits the catalog's caches
            sub = client.submit("circuit", graph_key=key,
                                config={"n_parts": 2})
            assert client.wait(sub["job_id"], timeout=60)["state"] == "DONE"
        sub = client.submit("circuit", graph_key=key, max_retries=1,
                            config={"n_parts": 2, "faults": "fail@at=0"})
        assert client.wait(sub["job_id"], timeout=60)["state"] == "DONE"
        page = client.metrics()
        catalog = client.catalog()["stats"]
        health = client.health()["fault_tolerance"]
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        engine.close()

    parse_prometheus_text(page)
    typed = [line.split()[2] for line in page.splitlines()
             if line.startswith("# TYPE ")]
    assert sorted(typed) == sorted(set(typed))

    events = {
        re.fullmatch(r'kind="(\w+)"', labels).group(1): value
        for labels, value in _samples(page,
                                      "repro_catalog_events_total").items()
    }
    assert events == {kind: float(n) for kind, n in catalog.items()}
    assert catalog["partition_hits"] >= 1

    appended = health["journal"]["appended"]
    assert appended >= 3
    assert _samples(page, "repro_journal_appends_total") == {
        "": float(appended)}
    assert health["retries_scheduled"] == 1
    assert _samples(page, "repro_retries_scheduled_total") == {"": 1.0}
