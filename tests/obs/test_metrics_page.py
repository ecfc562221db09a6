"""``GET /metrics`` over HTTP: a scrape-able page with the full schema.

After real traffic through the client and server, the page must parse,
expose every :data:`~repro.obs.REQUIRED_FAMILIES` entry, count what the
traffic did, and be served as Prometheus text 0.0.4 — a family that stops
rendering, or a page a Prometheus scrape would reject, fails here.
"""

import threading

import pytest

from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.client import JobClient, JobClientError
from repro.jobs.server import make_server
from repro.obs import REQUIRED_FAMILIES, MetricsRegistry, parse_prometheus_text


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
