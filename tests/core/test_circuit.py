"""Tests for the EulerCircuit type and its verifier."""

import numpy as np
import pytest

from repro.core.circuit import (
    CHECK_BLOCK,
    EulerCircuit,
    check_step_incidence,
    verify_circuit,
)
from repro.errors import InvalidCircuitError
from repro.generate.synthetic import cycle_graph
from repro.graph.graph import Graph


def _circ(verts, eids):
    return EulerCircuit(np.array(verts, np.int64), np.array(eids, np.int64))


def test_valid_triangle(triangle):
    c = _circ([0, 1, 2, 0], [0, 1, 2])
    verify_circuit(triangle, c)
    assert c.is_closed and c.n_edges == 3 and c.start == 0


def test_reverse_direction_also_valid(triangle):
    verify_circuit(triangle, _circ([0, 2, 1, 0], [2, 1, 0]))


def test_empty_circuit():
    g = Graph(3)
    c = _circ([], [])
    verify_circuit(g, c)
    assert c.is_closed and c.start == -1


def test_wrong_edge_count(triangle):
    with pytest.raises(InvalidCircuitError, match="edges"):
        verify_circuit(triangle, _circ([0, 1, 0], [0, 0]))


def test_duplicate_edge_detected(triangle):
    with pytest.raises(InvalidCircuitError, match="duplicated"):
        verify_circuit(triangle, _circ([0, 1, 0, 1], [0, 0, 0]))


def test_wrong_vertex_sequence_length(triangle):
    with pytest.raises(InvalidCircuitError, match="length"):
        verify_circuit(triangle, _circ([0, 1, 2], [0, 1, 2]))


def test_non_incident_step_detected(triangle):
    # Edge 1 joins (1,2) but the sequence claims 0 -> 2 via it.
    with pytest.raises(InvalidCircuitError, match="step"):
        verify_circuit(triangle, _circ([0, 2, 1, 0], [1, 2, 0]))


@pytest.mark.parametrize("bad", [3, -1])
def test_out_of_range_edge_id_is_an_invalid_circuit(triangle, bad):
    """An id that names no edge fails the check as InvalidCircuitError
    naming the id, not as an IndexError or ValueError from indexing."""
    with pytest.raises(InvalidCircuitError, match=f"step 2: edge id {bad} "):
        verify_circuit(triangle, _circ([0, 1, 2, 0], [0, 1, bad]))
    with pytest.raises(InvalidCircuitError, match=f"edge id {bad} "):
        check_step_incidence(
            triangle, np.array([0, 1, 2, 0]), np.array([0, 1, bad])
        )


def test_blockwise_checks_name_steps_past_the_first_block():
    n = CHECK_BLOCK + 10
    g = cycle_graph(n)
    verts = np.append(np.arange(n), 0)
    eids = np.arange(n)
    verify_circuit(g, _circ(verts, eids))
    swapped = eids.copy()
    swapped[[CHECK_BLOCK + 3, CHECK_BLOCK + 4]] = swapped[[CHECK_BLOCK + 4, CHECK_BLOCK + 3]]
    with pytest.raises(InvalidCircuitError, match=f"step {CHECK_BLOCK + 3}: edge"):
        verify_circuit(g, _circ(verts, swapped))
    repeated = eids.copy()
    repeated[CHECK_BLOCK + 5] = 7
    with pytest.raises(InvalidCircuitError,
                       match=rf"duplicated \[7\], missing \[{CHECK_BLOCK + 5}\]"):
        verify_circuit(g, _circ(verts, repeated))
    outside = eids.copy()
    outside[CHECK_BLOCK + 6] = n
    with pytest.raises(InvalidCircuitError,
                       match=f"step {CHECK_BLOCK + 6}: edge id {n} "):
        verify_circuit(g, _circ(verts, outside))


def test_open_walk_rejected_when_closed_required(two_triangles):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    open_walk = _circ([0, 1, 2, 0], [0, 1, 2])
    verify_circuit(g, open_walk)  # sanity
    path_graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    walk = _circ([0, 1, 2], [0, 1])
    with pytest.raises(InvalidCircuitError, match="closed"):
        verify_circuit(path_graph, walk)
    verify_circuit(path_graph, walk, require_closed=False)


def test_self_loop_circuit():
    g = Graph(1, [0], [0])
    verify_circuit(g, _circ([0, 0], [0]))


def test_parallel_edges_circuit():
    g = Graph(2, [0, 0], [1, 1])
    verify_circuit(g, _circ([0, 1, 0], [0, 1]))
    with pytest.raises(InvalidCircuitError):
        verify_circuit(g, _circ([0, 1, 0], [0, 0]))


def test_repr_mentions_kind():
    assert "circuit" in repr(_circ([0, 0], [0]))
    assert "path" in repr(_circ([0, 1], [0]))
