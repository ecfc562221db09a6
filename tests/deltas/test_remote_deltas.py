"""Remote provisioning ships the delta when the host holds the parent."""

from __future__ import annotations

from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.remote import WorkerHost

from tests.deltas.util import detour_delta, superposed_cycles


def test_provisioning_prefers_delta_over_full_npz(tmp_path):
    g0 = superposed_cycles(200, seed=1)
    host = WorkerHost(tmp_path / "shard").start()
    eng = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                    dispatcher="remote", hosts=[host.address],
                    artifact_dir=tmp_path / "art")
    try:
        k0 = eng.catalog.put(g0)
        assert eng.submit("circuit", graph_key=k0).result() is not None
        stats = eng._dispatcher.supervisor_stats()["provisioning"]
        assert stats["full"] == 1 and stats["delta"] == 0
        full_bytes = stats["full_bytes"]
        assert full_bytes > 0
        d = detour_delta(g0, [5])
        k1 = eng.catalog.mutate(k0, d)
        assert eng.submit("circuit", graph_key=k1).result() is not None
        stats = eng._dispatcher.supervisor_stats()["provisioning"]
        # bytes on the wire: the delta NPZ, not the child archive
        assert stats["full"] == 1 and stats["delta"] == 1
        assert 0 < stats["delta_bytes"] < full_bytes
        # the shard re-keyed the delta child to the identical content hash
        assert k1 in host.catalog
    finally:
        eng.close()
        host.close()


def test_provisioning_falls_back_to_full_without_the_parent(tmp_path):
    g0 = superposed_cycles(120, seed=2)
    host = WorkerHost(tmp_path / "shard").start()
    eng = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                    dispatcher="remote", hosts=[host.address],
                    artifact_dir=tmp_path / "art")
    try:
        k0 = eng.catalog.put(g0)
        k1 = eng.catalog.mutate(k0, detour_delta(g0, [3]))
        # first contact is the child itself: the host never saw the
        # parent, so the coordinator must ship the full archive
        assert eng.submit("circuit", graph_key=k1).result() is not None
        stats = eng._dispatcher.supervisor_stats()["provisioning"]
        assert stats["full"] == 1 and stats["delta"] == 0
        assert k1 in host.catalog
    finally:
        eng.close()
        host.close()
