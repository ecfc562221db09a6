"""Unit tests for the Graph/GraphBuilder substrate."""

import numpy as np
import pytest

from repro.graph.graph import Graph, GraphBuilder, index_dtype


def test_empty():
    g = Graph(0)
    assert g.n_vertices == 0 and g.n_edges == 0


def test_isolated_vertices_have_degree_zero():
    g = Graph(5, [0], [1])
    assert g.degrees().tolist() == [1, 1, 0, 0, 0]


def test_endpoints_and_other_endpoint(triangle):
    assert triangle.endpoints(0) == (0, 1)
    assert triangle.other_endpoint(0, 0) == 1
    assert triangle.other_endpoint(0, 1) == 0
    with pytest.raises(ValueError):
        triangle.other_endpoint(0, 2)


def test_other_endpoint_self_loop():
    g = Graph(1, [0], [0])
    assert g.other_endpoint(0, 0) == 0


def test_incident_and_neighbors(two_triangles):
    neigh, eids = two_triangles.incident(0)
    assert sorted(neigh.tolist()) == [1, 2, 3, 4]
    assert sorted(eids.tolist()) == [0, 2, 3, 5]
    assert two_triangles.degree(0) == 4


def test_degrees_self_loop_counts_two():
    g = Graph(2, [0, 0], [0, 1])
    assert g.degrees().tolist() == [3, 1]


def test_iter_edges(triangle):
    assert list(triangle.iter_edges()) == [(0, 0, 1), (1, 1, 2), (2, 2, 0)]


def test_edge_arrays_read_only(triangle):
    with pytest.raises(ValueError):
        triangle.edge_u[0] = 5


def test_from_edges_empty():
    g = Graph.from_edges(4, [])
    assert g.n_vertices == 4 and g.n_edges == 0


def test_subgraph_edges(two_triangles):
    sub = two_triangles.subgraph_edges(np.array([0, 1, 2]))
    assert sub.n_edges == 3
    assert sub.n_vertices == two_triangles.n_vertices  # vertex set preserved
    assert sub.degrees().tolist()[:3] == [2, 2, 2]


def test_with_extra_edges(triangle):
    g2 = triangle.with_extra_edges([0], [2])
    assert g2.n_edges == 4
    assert g2.endpoints(3) == (0, 2)
    # Original ids are stable.
    assert g2.endpoints(0) == triangle.endpoints(0)


def test_equality():
    a = Graph.from_edges(3, [(0, 1)])
    b = Graph.from_edges(3, [(0, 1)])
    c = Graph.from_edges(3, [(1, 2)])
    assert a == b and a != c


def test_not_hashable(triangle):
    with pytest.raises(TypeError):
        hash(triangle)


def test_invalid_construction():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(2, [0], [2])
    with pytest.raises(ValueError):
        Graph(2, [0, 1], [1])


def test_builder_basic():
    b = GraphBuilder()
    assert b.add_edge(0, 1) == 0
    assert b.add_edge(5, 2) == 1
    assert b.n_edges == 2
    g = b.build()
    assert g.n_vertices == 6
    assert g.endpoints(1) == (5, 2)


def test_builder_add_edges_and_ensure_vertex():
    b = GraphBuilder(2)
    b.add_edges([(0, 1), (1, 0)])
    b.ensure_vertex(9)
    g = b.build()
    assert g.n_vertices == 10 and g.n_edges == 2


def test_builder_rejects_negative():
    b = GraphBuilder()
    with pytest.raises(ValueError):
        b.add_edge(-1, 0)


def test_index_dtype_narrows_only_when_ids_and_slot_codes_fit():
    assert index_dtype(0, 0) is np.int32
    assert index_dtype(1 << 31, (1 << 30) - 1) is np.int32  # ids < 2**31, 2m < 2**31
    assert index_dtype((1 << 31) + 1, 10) is np.int64  # id 2**31 does not fit
    assert index_dtype(10, 1 << 30) is np.int64  # CSR offsets reach 2m = 2**31
