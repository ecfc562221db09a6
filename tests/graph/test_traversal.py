"""Tests for BFS traversal utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generate.synthetic import cycle_graph, grid_city, random_eulerian
from repro.graph.graph import Graph
from repro.graph.traversal import (
    bfs_distances,
    bfs_tree,
    eccentricity_sample,
    shortest_path,
)


def test_bfs_distances_cycle():
    g = cycle_graph(6)
    d = bfs_distances(g, 0)
    assert d.tolist() == [0, 1, 2, 3, 2, 1]


def test_bfs_distances_unreachable():
    g = Graph.from_edges(4, [(0, 1)])
    d = bfs_distances(g, 0)
    assert d[1] == 1 and d[2] == -1 and d[3] == -1


def test_bfs_distances_cutoff():
    g = cycle_graph(10)
    d = bfs_distances(g, 0, cutoff=2)
    assert d.max() == 2
    assert (d == -1).sum() == 5  # vertices at distance 3..5


def test_bfs_distances_bad_source():
    with pytest.raises(ValueError):
        bfs_distances(cycle_graph(3), 7)


def test_bfs_tree_parents_consistent():
    g = grid_city(4, 4)
    parent, parent_edge = bfs_tree(g, 0)
    assert parent[0] == -1
    for v in range(1, g.n_vertices):
        p, e = int(parent[v]), int(parent_edge[v])
        assert p >= 0
        assert {g.endpoints(e)[0], g.endpoints(e)[1]} >= {v} or True
        u, w = g.endpoints(e)
        assert {u, w} == {v, p} or (u == w == v)


def test_shortest_path_endpoints_and_length():
    g = cycle_graph(8)
    verts, eids = shortest_path(g, 0, 3)
    assert verts[0] == 0 and verts[-1] == 3
    assert len(verts) == len(eids) + 1 == 4
    for (a, b), e in zip(zip(verts[:-1], verts[1:]), eids):
        u, v = g.endpoints(e)
        assert {a, b} == {u, v}


def test_shortest_path_trivial():
    g = cycle_graph(3)
    assert shortest_path(g, 1, 1) == ([1], [])


def test_shortest_path_unreachable_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        shortest_path(g, 0, 3)


def test_shortest_path_length_matches_bfs():
    g = grid_city(6, 5)
    d = bfs_distances(g, 0)
    for target in (7, 13, 29):
        verts, eids = shortest_path(g, 0, target)
        assert len(eids) == d[target]


def test_eccentricity_sample():
    g = cycle_graph(10)
    assert eccentricity_sample(g, [0]) == 5
    assert eccentricity_sample(g, [0], cutoff=3) == 3


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 500))
def test_property_triangle_inequality(seed):
    """BFS distances satisfy d(s,v) <= d(s,u) + 1 across every edge."""
    g = random_eulerian(40, n_walks=4, walk_len=12, seed=seed)
    d = bfs_distances(g, 0)
    for _, u, v in g.iter_edges():
        if d[u] >= 0 and d[v] >= 0:
            assert abs(d[u] - d[v]) <= 1


def _queue_bfs_tree(g, source):
    """Reference FIFO-queue BFS: parents in discovery order x CSR order."""
    from collections import deque

    offsets, targets, eids = g.csr
    parent = np.full(g.n_vertices, -1, dtype=np.int64)
    parent_edge = np.full(g.n_vertices, -1, dtype=np.int64)
    seen = np.zeros(g.n_vertices, dtype=bool)
    seen[source] = True
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for i in range(offsets[x], offsets[x + 1]):
            t = int(targets[i])
            if not seen[t]:
                seen[t] = True
                parent[t], parent_edge[t] = x, int(eids[i])
                queue.append(t)
    return parent, parent_edge


def test_bfs_tree_matches_fifo_queue():
    """The level-vectorized parents equal a FIFO queue's, on multigraphs
    with self-loops, parallel edges and unreachable vertices."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 61))
        m = int(rng.integers(1, 3 * n))
        g = Graph.from_edges(n, rng.integers(0, n, size=(m, 2)).tolist())
        source = int(rng.integers(0, n))
        parent, parent_edge = bfs_tree(g, source)
        ref_parent, ref_edge = _queue_bfs_tree(g, source)
        np.testing.assert_array_equal(parent, ref_parent, err_msg=str(seed))
        np.testing.assert_array_equal(parent_edge, ref_edge, err_msg=str(seed))


def test_bfs_stop_ends_at_first_marked_level():
    g = cycle_graph(10)
    stop = np.zeros(10, dtype=bool)
    stop[[3, 6]] = True
    d, parent, parent_edge = bfs_distances(g, 0, stop=stop,
                                           return_parents=True)
    assert d.max() == 3 and d[3] == 3 and d[7] == 3 and d[6] == -1
    full_parent, full_edge = bfs_tree(g, 0)
    reached = d >= 0
    np.testing.assert_array_equal(parent[reached], full_parent[reached])
    np.testing.assert_array_equal(parent_edge[reached], full_edge[reached])
