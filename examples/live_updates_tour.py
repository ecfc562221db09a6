#!/usr/bin/env python
"""Tour of dynamic graphs: mutate a served graph, watch repairs stream out.

Starts an in-process serve instance, catalogs an Eulerian street network,
pins a **watch** on it, then mutates the graph over HTTP — the exact
workflow of a deployment tracking a road network that changes under it:

* a small closure (one edge detoured through a new junction) is repaired
  **incrementally**: the engine re-tours only the dirty partitions and
  replays every cached Phase-1 fragment elsewhere, emitting a circuit that
  is bit-identical to a full recompute;
* a bulldozer-scale rebuild (10% of edges) trips the dirty-fraction
  threshold and the watch falls back to a clean recompute — the decision
  is recorded in the job artifact either way.

Set ``REPRO_EXAMPLE_SCALE=small`` (as the CI examples smoke job does) to
shrink the graph.

Run:  python examples/live_updates_tour.py
"""

import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.bench.harness import print_header
from repro.generate.eulerize import eulerian_rmat
from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.client import JobClient
from repro.jobs.server import make_server

SMALL = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() in ("small", "smoke", "ci")
SCALE = 9 if SMALL else 13


def detour_edits(graph, eids):
    """Close each edge and route it through a fresh junction vertex."""
    eids = sorted({int(e) for e in eids})
    inserts, w = [], graph.n_vertices
    for eid in eids:
        u, v = graph.endpoints(eid)
        inserts += [(int(u), w), (w, int(v))]
        w += 1
    return inserts, eids


def main() -> None:
    print_header("Dynamic graphs: PATCH mutations + incremental repair watches")
    root = Path(tempfile.mkdtemp(prefix="repro-live-tour-"))
    graph, _ = eulerian_rmat(SCALE, avg_degree=4.0, seed=3)

    engine = JobEngine(
        GraphCatalog(root / "catalog"),
        dispatchers=2,
        pool_workers=2,
        artifact_dir=root / "artifacts",
        journal=root / "journal",
    )
    server = make_server(engine, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address
    client = JobClient(f"http://{host}:{port}")

    # 1) Catalog the street network and pin a watch on it: from now on,
    #    every mutation of this graph re-emits a repaired circuit job.
    key = engine.catalog.put(graph, name="street-network")
    watch = client.create_watch(key, config={"n_parts": 8}, name="coverage")
    print(f"graph {key[:12]}… ({graph.n_edges} edges) "
          f"watched by {watch['id']}")

    # 2) A single street closure: PATCH the delta, never re-upload the
    #    graph. The watch's first emission is the capture run; the second
    #    closure is repaired from the cached Phase-1 fragments.
    for round_no in (1, 2):
        g = engine.catalog.get(key)
        inserts, deletes = detour_edits(g, [5 * round_no])
        out = client.mutate(key, insert=inserts, delete_eids=deletes,
                            name=f"closure-{round_no}")
        key = out["graph_key"]
        info = out["watches"][watch["id"]]
        status = client.wait(info["job_id"], timeout=120)
        assert status["state"] == "DONE", status
        print(f"closure {round_no}: {out['base_key'][:12]}… -> {key[:12]}… "
              f"decision={info['decision']} job={info['job_id']}")
    assert info["decision"] == "repair", info

    # The artifact's pass history records the repair and its counters.
    doc = client.result(info["job_id"])
    rep = next(p for p in doc["pass_history"] if p["pass"] == "repair")
    print(f"repair pass: {rep['hits']} cached nodes replayed, "
          f"{rep['misses']} re-toured (dirty: {rep['dirty_parts']})")
    assert rep["hits"] > 0

    # 3) Bit-parity: the repaired emission equals a cold recompute of the
    #    mutated graph submitted as an ordinary job (the catalog extends
    #    the parent's partition map for delta children, so both runs see
    #    the same placement).
    cold = client.submit("circuit", graph_key=key, config={"n_parts": 8})
    assert client.wait(cold["job_id"], timeout=120)["state"] == "DONE"
    warm_circuits = engine.job(info["job_id"]).result.circuits
    cold_circuits = engine.job(cold["job_id"]).result.circuits
    assert len(warm_circuits) == len(cold_circuits)
    for a, b in zip(warm_circuits, cold_circuits):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.edge_ids, b.edge_ids)
    print("bit-parity: repaired emission matches the cold recompute")

    # 4) A bulldozer-scale rebuild trips the threshold: the session
    #    declines to repair and recomputes cleanly instead.
    g = engine.catalog.get(key)
    inserts, deletes = detour_edits(g, range(0, g.n_edges, 10))
    out = client.mutate(key, insert=inserts, delete_eids=deletes,
                        name="rebuild")
    info = out["watches"][watch["id"]]
    assert client.wait(info["job_id"], timeout=120)["state"] == "DONE"
    print(f"rebuild (10% of edges): decision={info['decision']}")
    assert info["decision"] == "recompute", info

    summary = client.watch(watch["id"])
    print(f"watch {summary['id']}: {summary['mutations']} mutations, "
          f"last job {summary['last_job_id']}")

    server.shutdown()
    server.server_close()
    engine.close()
    print("live-updates tour complete")


if __name__ == "__main__":
    main()
