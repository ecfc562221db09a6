#!/usr/bin/env python
"""Tour of the job-orchestration layer: submit → poll → fetch.

Starts a real ``repro-euler serve`` instance in-process (ephemeral port),
catalogs a graph over HTTP, submits jobs for three scenarios, polls their
status, and fetches the durable schema-v5 artifacts — the exact workflow
of a client talking to a long-lived deployment, minus the second terminal.

Along the way it shows what the service amortizes: the second circuit
submission on the same graph hits the catalog's cached partition map, and
every job runs on one shared executor pool instead of spawning its own.

Set ``REPRO_EXAMPLE_SCALE=small`` (as the CI examples smoke job does) to
shrink the graph.

Run:  python examples/job_server_tour.py
"""

import os
import tempfile
import threading
from pathlib import Path

from repro.bench.harness import print_header
from repro.generate.eulerize import eulerian_rmat, largest_component, open_path_variant
from repro.generate.rmat import rmat_graph
from repro.graph.io import save_edge_list
from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.client import JobClient
from repro.jobs.server import make_server

SMALL = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() in ("small", "smoke", "ci")
SCALE = 9 if SMALL else 12


def main() -> None:
    print_header("Job orchestration: catalog + shared-pool scheduler + HTTP API")
    root = Path(tempfile.mkdtemp(prefix="repro-jobs-tour-"))
    circuit_graph, _ = eulerian_rmat(SCALE, avg_degree=4.0, seed=3)
    save_edge_list(circuit_graph, root / "circuit.el")
    save_edge_list(open_path_variant(circuit_graph), root / "path.el")
    postman_graph, _ = largest_component(rmat_graph(SCALE - 1, avg_degree=3.0, seed=6))
    save_edge_list(postman_graph, root / "postman.el")

    # A long-lived deployment would be `repro-euler serve`; here the same
    # engine + server run in-process on an ephemeral port.
    engine = JobEngine(
        GraphCatalog(root / "catalog"),
        dispatchers=2,
        pool_workers=4,
        artifact_dir=root / "artifacts",
    )
    server = make_server(engine, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    client = JobClient(f"http://{host}:{port}")
    print(f"server: http://{host}:{port}  health={client.health()['status']}")

    # 1) Catalog a graph once; submit against its content key from then on.
    key = client.put_graph(path=str(root / "circuit.el"), name="rmat")["graph_key"]
    print(f"\ncataloged circuit graph -> key {key}")

    # 2) Submit: two circuit jobs on the same graph (the second one is the
    #    warm path), plus a path and a postman job from files.
    submissions = [
        client.submit("circuit", graph_key=key,
                      config={"n_parts": 4, "verify": True}),
        client.submit("circuit", graph_key=key,
                      config={"n_parts": 4, "verify": True}, priority=1),
        client.submit("path", path=str(root / "path.el"),
                      config={"n_parts": 4, "verify": True}),
        client.submit("postman", path=str(root / "postman.el"),
                      config={"n_parts": 4, "verify": True}),
    ]
    print("submitted:", ", ".join(s["job_id"] for s in submissions))

    # 3) Poll until every job is terminal, then fetch results.
    print()
    for sub in submissions:
        final = client.wait(sub["job_id"], timeout=300)
        doc = client.result(sub["job_id"])
        scenario = doc["scenario_result"]
        walks = scenario["circuits"]
        print(
            f"{final['id']}: {final['state']:<5} scenario={scenario['scenario']:<8} "
            f"queue={final['queue_latency_seconds'] * 1e3:6.1f}ms "
            f"run={final['run_seconds'] * 1e3:7.1f}ms "
            f"walks={len(walks)} edges={sum(c['n_edges'] for c in walks)}"
        )
        assert final["state"] == "DONE", final
        assert doc["schema_version"] == 5 and doc["artifact"] == "job"

    # 4) The amortization is visible in the catalog stats: the repeat
    #    circuit job reused the cached partition map.
    stats = client.catalog()["stats"]
    print(f"\ncatalog: partition hits={stats['partition_hits']} "
          f"misses={stats['partition_misses']} "
          f"(the repeat submission skipped partitioning)")
    assert stats["partition_hits"] >= 1

    server.shutdown()
    server.server_close()
    engine.close()
    print("\nall jobs served from one warm catalog and one shared pool.")


if __name__ == "__main__":
    main()
