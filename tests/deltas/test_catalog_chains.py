"""Catalog delta chains: mutate, rebuild, materialize, eviction safety,
and which versions stay in memory."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.deltas import extend_part_of
from repro.errors import FaultInjectedError
from repro.faults import FaultPlan
from repro.jobs import GraphCatalog, JobEngine

from tests.deltas.util import detour_delta, superposed_cycles


def _graphs_equal(a, b):
    assert a.n_vertices == b.n_vertices
    assert np.array_equal(np.asarray(a.edge_u), np.asarray(b.edge_u))
    assert np.array_equal(np.asarray(a.edge_v), np.asarray(b.edge_v))


def test_mutate_persists_only_the_delta(tmp_path):
    cat = GraphCatalog(tmp_path)
    g0 = superposed_cycles(40)
    k0 = cat.put(g0, name="base")
    delta = detour_delta(g0, [3])
    k1 = cat.mutate(k0, delta, name="child")
    assert k1 != k0 and k1 in cat
    _graphs_equal(cat.get(k1), delta.apply(g0))
    assert (tmp_path / "deltas" / f"{k1}.npz").exists()
    assert not (tmp_path / "graphs" / f"{k1}.npz").exists()
    assert cat.delta_parent(k1) == k0 and cat.delta_parent(k0) is None
    assert cat.load_delta(k1) == delta
    assert cat.stats["mutations"] == 1
    # idempotent: the same delta lands on the same key
    assert cat.mutate(k0, delta) == k1
    assert cat.stats["mutations"] == 2
    assert len(cat.keys()) == 2


def test_chain_rebuild_in_a_fresh_catalog(tmp_path):
    cat = GraphCatalog(tmp_path)
    g0 = superposed_cycles(30, seed=2)
    k0 = cat.put(g0)
    d1 = detour_delta(g0, [1])
    k1 = cat.mutate(k0, d1)
    g1 = d1.apply(g0)
    d2 = detour_delta(g1, [4])
    k2 = cat.mutate(k1, d2)
    # a fresh catalog on the same root rebuilds the grandchild by
    # walking the persisted delta chain down to the base archive
    cat2 = GraphCatalog(tmp_path)
    assert k2 in cat2
    _graphs_equal(cat2.get(k2), d2.apply(g1))
    assert cat2.stats["delta_rebuilds"] >= 1


def test_materialize_writes_the_full_archive(tmp_path):
    cat = GraphCatalog(tmp_path)
    g0 = superposed_cycles(30, seed=8)
    k0 = cat.put(g0)
    d = detour_delta(g0, [2])
    k1 = cat.mutate(k0, d)
    path = cat.materialize(k1)
    assert path.exists()
    assert cat.materialize(k1) == path  # idempotent
    # the delta survives materialization (still serves remote shipping)
    parent, _ = cat.export_delta_bytes(k1)
    assert parent == k0
    cat2 = GraphCatalog(tmp_path)
    _graphs_equal(cat2.get(k1), d.apply(g0))
    assert cat2.stats["delta_rebuilds"] == 0


def test_export_put_delta_bytes_round_trip(tmp_path):
    a = GraphCatalog(tmp_path / "a")
    b = GraphCatalog(tmp_path / "b")
    g0 = superposed_cycles(30, seed=4)
    k0 = a.put(g0)
    d = detour_delta(g0, [2])
    k1 = a.mutate(k0, d)
    parent, blob = a.export_delta_bytes(k1)
    assert parent == k0
    b.put(g0)
    # the receiving side re-applies and re-keys: same content hash
    assert b.put_delta_bytes(parent, blob) == k1
    _graphs_equal(b.get(k1), a.get(k1))
    with pytest.raises(KeyError):
        a.export_delta_bytes(k0)  # root graphs have no stored delta


def test_partition_extension_is_canonical(tmp_path):
    cat = GraphCatalog(tmp_path)
    g0 = superposed_cycles(40, seed=6)
    k0 = cat.put(g0)
    d = detour_delta(g0, [7])
    k1 = cat.mutate(k0, d)
    child_map = cat.partition_map(k1, "ldg", 4, 0)
    assert cat.stats["partition_extensions"] == 1
    base_map = cat.partition_map(k0, "ldg", 4, 0)
    assert np.array_equal(child_map["part_of"],
                          extend_part_of(base_map["part_of"], d))


def test_delta_apply_fault_leaves_the_catalog_unchanged(tmp_path):
    cat = GraphCatalog(tmp_path)
    g0 = superposed_cycles(20, seed=1)
    k0 = cat.put(g0)
    before = cat.keys()
    plan = FaultPlan.parse("delta_apply")
    with pytest.raises(FaultInjectedError):
        cat.mutate(k0, detour_delta(g0, [0]), faults=plan)
    assert cat.keys() == before
    # the plan is consume-then-raise: the retry goes through clean
    assert cat.mutate(k0, detour_delta(g0, [0]), faults=plan) in cat


def test_eviction_never_strands_a_delta_chain(tmp_path):
    # Satellite regression: under budget pressure the LRU sweep must not
    # unlink a parent an unmaterialized delta child still rebuilds
    # through — evict-parent-then-materialize-child used to 404.
    cat = GraphCatalog(tmp_path, size_budget_bytes=1)
    g0 = superposed_cycles(60, seed=3)
    k0 = cat.put(g0)
    d = detour_delta(g0, [5])
    k1 = cat.mutate(k0, d, pin=True)  # a live watch pins its head
    cat.put(superposed_cycles(60, seed=9))
    assert (tmp_path / "graphs" / f"{k0}.npz").exists()
    _graphs_equal(GraphCatalog(tmp_path).get(k1), d.apply(g0))
    # materializing the child releases the parent for eviction ...
    cat.materialize(k1)
    cat.put(superposed_cycles(60, seed=10))
    assert k0 not in cat.keys()
    # ... and the child keeps serving from its own archive
    _graphs_equal(GraphCatalog(tmp_path).get(k1), d.apply(g0))


# ---------------------------------------------------------------------------
# What the catalog keeps in memory: roots, heads and pinned versions
# ---------------------------------------------------------------------------


def _in_memory(cat):
    """Every key the catalog's memory tables hold anything for."""
    return (set(cat._graphs) | set(cat._plans)
            | {ck[0] for ck in cat._partitions})


def _chain(cat, g0, n):
    """``n`` one-edge detours from a fresh root; each version's graph and
    partition map as served while it was the head."""
    keys, graphs, maps = [cat.put(g0)], [g0], []
    maps.append(cat.partition_map(keys[0], "ldg", 4, 0)["part_of"])
    for step in range(n):
        keys.append(cat.mutate(keys[-1], detour_delta(graphs[-1], [step])))
        graphs.append(cat.get(keys[-1]))
        maps.append(cat.partition_map(keys[-1], "ldg", 4, 0)["part_of"])
    return keys, graphs, maps


def test_a_watched_graph_keeps_only_its_root_and_head_in_memory(tmp_path):
    g = superposed_cycles(60, seed=5)
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_workers=1) as eng:
        cat = eng.catalog
        k0 = cat.put(g, name="base")
        w = eng.add_watch(k0)
        versions = [k0]
        for step in range(20):
            out = eng.mutate_graph(versions[-1], detour_delta(g, [step]))
            eng.handle(out["watches"][w["id"]]["job_id"]).result(timeout=60)
            versions.append(out["graph_key"])
            g = cat.get(versions[-1])
        # A dispatcher unpins just after the job's result is published.
        deadline = time.monotonic() + 10
        while len(cat._pins) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(set(versions)) == 21
        assert cat._pins == {versions[-1]: 1}  # the watch's head
        assert _in_memory(cat) == {k0, versions[-1]}
        assert cat.stats["delta_rebuilds"] == 0


def test_a_pinned_superseded_version_stays_until_unpinned(tmp_path):
    cat = GraphCatalog(tmp_path)
    g0 = superposed_cycles(40, seed=2)
    k0 = cat.put(g0)
    d1 = detour_delta(g0, [1])
    k1 = cat.mutate(k0, d1)
    cat.pin(k1)  # a queued job on k1
    cat.partition_map(k1, "ldg", 4, 0)
    k2 = cat.mutate(k1, detour_delta(d1.apply(g0), [2]))
    assert {k0, k1, k2} <= _in_memory(cat)  # superseded, but still pinned
    cat.unpin(k1)
    assert _in_memory(cat) == {k0, k2}


def test_get_rebuilds_a_superseded_version_bit_identically(tmp_path):
    cat = GraphCatalog(tmp_path)
    keys, graphs, maps = _chain(cat, superposed_cycles(50, seed=7), 5)
    assert _in_memory(cat) == {keys[0], keys[-1]}
    stats = dict(cat.stats)
    # keys[3]'s parent is superseded too: one rebuild walks both deltas.
    g3 = cat.get(keys[3])
    _graphs_equal(g3, graphs[3])
    assert cat.stats["delta_rebuilds"] == stats["delta_rebuilds"] + 1
    part = cat.partition_map(keys[3], "ldg", 4, 0)
    assert np.array_equal(part["part_of"], maps[3])
    # The map reloads from derived/: a hit, nothing recomputed.
    assert cat.stats["partition_hits"] == stats["partition_hits"] + 1
    for kind in ("partition_misses", "partition_extensions"):
        assert cat.stats[kind] == stats[kind]
    # Still superseded and unpinned: nothing stays in memory for it.
    assert _in_memory(cat) == {keys[0], keys[-1]}


def test_a_reader_catalog_forgets_what_the_index_shows_superseded(tmp_path):
    """A second catalog over the same root (a forked worker's) follows a
    chain through refresh() and keeps what the mutating catalog keeps:
    the root and the head, not every version it was asked for."""
    cat = GraphCatalog(tmp_path)
    reader = GraphCatalog(tmp_path)
    graphs = [superposed_cycles(40, seed=6)]
    keys = [cat.put(graphs[0])]
    for step in range(6):
        keys.append(cat.mutate(keys[-1], detour_delta(graphs[-1], [step])))
        graphs.append(cat.get(keys[-1]))
        assert keys[-1] not in reader
        reader.refresh()
        _graphs_equal(reader.get(keys[-1]), graphs[-1])
        reader.partition_map(keys[-1], "ldg", 4, 0)
    assert _in_memory(cat) == {keys[0], keys[-1]}
    assert set(reader._graphs) == {keys[0], keys[-1]}
    assert _in_memory(reader) == {keys[0], keys[-1]}
