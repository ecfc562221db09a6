"""Tests for the <I, B, L, R> partition model (paper §3.1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import PartitionError
from repro.generate.synthetic import paper_figure1_graph, random_eulerian
from repro.graph.partition import PartitionedGraph, partition_stats


def test_fig1_partition_classification(fig1):
    """The paper's own example: v3 is the only EB; the rest are OBs."""
    g, part = fig1
    pg = PartitionedGraph(g, part)
    views = pg.views()
    # Paper ids are 1-based; ours 0-based.
    assert views[0].ob.tolist() == [0, 1]  # v1, v2
    assert views[0].eb.tolist() == []
    assert views[1].ob.tolist() == []
    assert views[1].eb.tolist() == [2]  # v3, two remote edges, even local deg
    assert views[2].ob.tolist() == [5, 8]  # v6, v9
    assert views[3].ob.tolist() == [9, 10, 12, 13]  # v10, v11, v13, v14
    assert views[1].internal.tolist() == [3, 4]  # v4, v5


def test_fig1_local_remote_split(fig1):
    g, part = fig1
    pg = PartitionedGraph(g, part)
    v2 = pg.view(1)  # P2
    # P2's local edges are e3,4 e4,5 e3,5 (ids 2,3,4 in our edge order).
    assert sorted(v2.local_eids.tolist()) == [2, 3, 4]
    assert v2.n_remote_edges == 2  # e2,3 and e3,13
    total_remote = sum(w.n_remote_edges for w in pg.views())
    # Each cut edge contributes one half-edge per side.
    assert total_remote == 2 * pg.n_cut_edges


def test_partition_stats_fig1(fig1):
    g, part = fig1
    s = partition_stats(PartitionedGraph(g, part))
    assert s["n_vertices"] == 14
    assert s["n_bidirected_edges"] == 32
    assert s["n_parts"] == 4
    assert 0 < s["cut_fraction"] < 1


def test_single_partition_has_no_boundary(triangle):
    pg = PartitionedGraph(triangle, np.zeros(3, dtype=np.int64), 1)
    w = pg.view(0)
    assert w.boundary.size == 0
    assert w.internal.size == 3
    assert w.n_local_edges == 3
    assert pg.edge_cut_fraction() == 0.0


def test_bad_partition_maps(triangle):
    with pytest.raises(PartitionError):
        PartitionedGraph(triangle, np.zeros(2, dtype=np.int64))
    with pytest.raises(PartitionError):
        PartitionedGraph(triangle, np.array([0, 1, -1]))
    with pytest.raises(PartitionError):
        PartitionedGraph(triangle, np.array([0, 1, 5]), n_parts=2)
    pg = PartitionedGraph(triangle, np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(PartitionError):
        pg.view(2)


def test_empty_partition_allowed(triangle):
    pg = PartitionedGraph(triangle, np.zeros(3, dtype=np.int64), n_parts=3)
    w = pg.view(2)
    assert w.n_vertices == 0 and w.n_local_edges == 0 and w.n_remote_edges == 0


def test_imbalance_definition():
    # 4 vertices, 2 parts: 3/1 split -> max|4 - 2*c|/4 = max(|4-6|,|4-2|)/4 = 0.5
    g = random_eulerian(10, seed=0)
    n = g.n_vertices
    part = np.zeros(n, dtype=np.int64)
    part[0] = 1
    pg = PartitionedGraph(g, part, 2)
    expected = max(abs(n - 2 * (n - 1)), abs(n - 2 * 1)) / n
    assert pg.imbalance() == pytest.approx(expected)


def test_phase1_cost_matches_definition(fig1):
    g, part = fig1
    pg = PartitionedGraph(g, part)
    for w in pg.views():
        assert w.phase1_cost() == w.boundary.size + w.internal.size + w.local_eids.size


@given(st.integers(0, 5), st.integers(1, 5))
def test_property_views_partition_vertices_and_edges(seed, n_parts):
    """Across views: vertices and local edges partition exactly; OB/EB split B."""
    g = random_eulerian(40, n_walks=4, walk_len=14, seed=seed)
    rng = np.random.default_rng(seed)
    part = rng.integers(0, n_parts, size=g.n_vertices, dtype=np.int64)
    pg = PartitionedGraph(g, part, n_parts)
    views = pg.views()
    all_verts = np.concatenate([np.concatenate([w.internal, w.boundary]) for w in views])
    assert sorted(all_verts.tolist()) == list(range(g.n_vertices))
    all_local = np.concatenate([w.local_eids for w in views])
    cut = int((~pg.local_mask).sum())
    assert all_local.size == g.n_edges - cut
    assert np.unique(all_local).size == all_local.size
    for w in views:
        assert sorted(np.concatenate([w.ob, w.eb]).tolist()) == sorted(w.boundary.tolist())
        # Eulerian graph => every partition has an even number of OBs
        # (handshake on local subgraph).
        assert w.ob.size % 2 == 0


@given(st.integers(0, 5), st.integers(1, 5))
def test_property_level0_tables_match_views(seed, n_parts):
    """The per-pid level-0 tables Setup hands the program equal what the
    full views derive: ``L_i`` in ascending eid order, and a remote-degree
    table counting each vertex's rows in ``R_i``."""
    g = random_eulerian(40, n_walks=4, walk_len=14, seed=seed)
    rng = np.random.default_rng(seed)
    part = rng.integers(0, n_parts, size=g.n_vertices, dtype=np.int64)
    pg = PartitionedGraph(g, part, n_parts)
    local, rdeg = pg.local_eids_by_pid(), pg.remote_deg_by_pid()
    assert len(local) == len(rdeg) == n_parts
    for w in pg.views():
        np.testing.assert_array_equal(local[w.pid], w.local_eids)
        verts, counts = np.unique(w.remote[:, 0], return_counts=True)
        expected = np.stack((verts, counts), axis=1).reshape(-1, 2)
        assert rdeg[w.pid].dtype == np.int64
        np.testing.assert_array_equal(rdeg[w.pid], expected)
        # Its own array: a level-0 state holding it pins no other rows.
        assert rdeg[w.pid].base is None


def test_partitioned_graph_keeps_one_per_edge_table(fig1):
    """Besides the graph itself, a PartitionedGraph holds one per-edge
    array (the local mask); endpoint partitions are gathered on use."""
    g, part = fig1
    pg = PartitionedGraph(g, part)
    per_edge = [k for k, a in vars(pg).items()
                if isinstance(a, np.ndarray) and a.shape[:1] == (g.n_edges,)]
    assert per_edge == ["local_mask"]
