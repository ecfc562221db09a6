#!/usr/bin/env python
"""CI scrape gate for ``GET /metrics``: valid Prometheus text, full schema.

Every scaling claim in the committed ``BENCH_*.json`` trajectory should be
reproducible from the first-class metrics surface, so the perf-smoke job
scrapes a live server the way Prometheus would and fails loudly when the
page stops being scrape-able:

* spin up an in-process :class:`~repro.jobs.engine.JobEngine` behind the
  HTTP server with its own registry, drive traffic over real HTTP (graph
  upload, circuit jobs, a status miss),
* ``GET /metrics``, run the page through
  :func:`repro.obs.parse_prometheus_text` (any malformed line raises —
  an unparseable page must not scrape as empty), and
* require every family in :data:`repro.obs.REQUIRED_FAMILIES` plus a
  non-zero queue-delay histogram and HTTP response counts.

The scraped page is written to ``--output`` (default
``metrics-snapshot.txt``) and uploaded as a CI artifact next to the bench
JSONs, so a regression's last-good metrics page is one click away.

Usage::

    python benchmarks/scrape_metrics.py --output metrics-snapshot.txt
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.generate.synthetic import grid_city  # noqa: E402
from repro.jobs import GraphCatalog, JobEngine  # noqa: E402
from repro.jobs.client import JobClient, JobClientError  # noqa: E402
from repro.jobs.server import make_server  # noqa: E402
from repro.obs import (  # noqa: E402
    REQUIRED_FAMILIES,
    MetricsRegistry,
    parse_prometheus_text,
)

N_JOBS = 3
GRID = 8


def scrape(root: Path) -> tuple[str, list[str]]:
    """Drive the server and return ``(metrics_page, problems)``."""
    graph = grid_city(GRID, GRID)
    engine = JobEngine(
        GraphCatalog(root / "cat"),
        dispatchers=2,
        artifact_dir=root / "arts",
        metrics=MetricsRegistry(),
    )
    server = make_server(engine, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    client = JobClient(f"http://{host}:{port}")
    try:
        up = client.put_graph(
            edges=list(zip(graph.edge_u.tolist(), graph.edge_v.tolist())),
            name="scrape")
        for _ in range(N_JOBS):
            sub = client.submit("circuit", graph_key=up["graph_key"],
                                config={"n_parts": 2})
            client.wait(sub["job_id"], timeout=60)
        try:
            client.status("job-999999")  # a 404 lands in the HTTP counter
        except JobClientError:
            pass
        text = client.metrics()
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        engine.close()

    problems: list[str] = []
    try:
        families = parse_prometheus_text(text)
    except ValueError as exc:
        return text, [f"unparseable exposition text: {exc}"]
    missing = [f for f in REQUIRED_FAMILIES if f not in families]
    if missing:
        problems.append(f"missing required families: {missing}")
    delay = families.get("repro_queue_delay_seconds", {})
    if delay.get("type") != "histogram" or not delay.get("samples"):
        problems.append("queue-delay histogram empty or untyped")
    http = families.get("repro_http_responses_total", {})
    if not http.get("samples"):
        problems.append("no HTTP response counts recorded")
    return text, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="metrics-snapshot.txt",
                        help="write the scraped page here (CI artifact)")
    parser.add_argument("--root", default=None,
                        help="scratch directory (default: a TemporaryDirectory)")
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text, problems = scrape(Path(args.root) if args.root else Path(tmp))
    n = len(parse_prometheus_text(text)) if not problems else 0
    print(f"/metrics scrape {'FAIL' if problems else 'ok'}: "
          f"{len(text.splitlines())} lines, {n} families")

    Path(args.output).write_text(text)
    print(f"snapshot written to {args.output}")
    if problems:
        for p in problems:
            print("FAIL:", p)
        return 1
    print(f"all {len(REQUIRED_FAMILIES)} required families present")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
