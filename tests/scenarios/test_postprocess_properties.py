"""Property tests for scenario postprocessing.

Each scenario's postprocess is a pure array transform; these tests pin its
correctness independently of the pipeline: circuit rotation/cut for every
virtual-edge position (including first and last step), postman edge-id
mapping with overlapping duplicated shortest paths, and component
reassembly preserving original ids across all three executor backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import find_euler_circuit
from repro.core.circuit import EulerCircuit, verify_circuit
from repro.errors import InvalidCircuitError
from repro.generate.synthetic import cycle_graph, random_eulerian
from repro.graph.graph import Graph
from repro.pipeline import RunConfig
from repro.scenarios import (
    map_edge_ids,
    reassemble,
    rotate_and_cut,
    run_scenario,
    verify_covering_walk,
)
from tests.scenarios.test_scenarios import union_graph


# ---------------------------------------------------------------------------
# Path: rotation/cut at every virtual-edge position
# ---------------------------------------------------------------------------

def _check_cut(graph: Graph, circ: EulerCircuit, virtual_eid: int) -> None:
    """rotate_and_cut must yield an open walk over all edges but one."""
    path = rotate_and_cut(circ, virtual_eid)
    assert path.n_edges == circ.n_edges - 1
    assert sorted(path.edge_ids.tolist()) == sorted(
        e for e in circ.edge_ids.tolist() if e != virtual_eid
    )
    # Endpoints are the virtual edge's endpoints.
    u, v = graph.endpoints(virtual_eid)
    assert {int(path.vertices[0]), int(path.vertices[-1])} == {u, v}
    # Every step is incident with its edge.
    eu = graph.edge_u[path.edge_ids]
    ev = graph.edge_v[path.edge_ids]
    a, b = path.vertices[:-1], path.vertices[1:]
    assert bool(
        (((a == eu) & (b == ev)) | ((a == ev) & (b == eu))).all()
    )


@pytest.mark.parametrize("position", ["first", "last", "middle"])
def test_cut_at_boundary_positions(position):
    # A cycle's circuit visits edges in a known order; treating the edge at
    # the chosen position as virtual exercises the rotation boundaries.
    g = cycle_graph(9)
    circ = find_euler_circuit(g, n_parts=2).circuit
    k = {"first": 0, "last": circ.n_edges - 1, "middle": circ.n_edges // 2}
    _check_cut(g, circ, int(circ.edge_ids[k[position]]))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 500), st.data())
def test_property_cut_any_position(seed, data):
    g = random_eulerian(30, n_walks=3, walk_len=10, seed=seed)
    if g.n_edges < 2:
        return
    circ = find_euler_circuit(g, n_parts=3).circuit
    k = data.draw(st.integers(0, circ.n_edges - 1))
    _check_cut(g, circ, int(circ.edge_ids[k]))


def test_cut_rejects_absent_or_repeated_virtual_edge():
    g = cycle_graph(5)
    circ = find_euler_circuit(g, n_parts=2).circuit
    with pytest.raises(InvalidCircuitError, match="0 times"):
        rotate_and_cut(circ, 99)
    doubled = EulerCircuit(
        vertices=np.concatenate([circ.vertices, circ.vertices[1:]]),
        edge_ids=np.concatenate([circ.edge_ids, circ.edge_ids]),
    )
    with pytest.raises(InvalidCircuitError, match="2 times"):
        rotate_and_cut(doubled, int(circ.edge_ids[0]))


# ---------------------------------------------------------------------------
# Postman: edge-id mapping with overlapping duplicated paths
# ---------------------------------------------------------------------------

def test_map_edge_ids_with_overlapping_duplicates():
    # Two duplicated shortest paths that overlap on original edge 1: the
    # duplicate list repeats it, and both duplicates must map back to it.
    n_edges = 4
    dup_orig = np.array([1, 1, 3], dtype=np.int64)  # eids 4, 5, 6
    walk = np.array([0, 4, 1, 5, 2, 3, 6], dtype=np.int64)
    mapped, n_rev = map_edge_ids(walk, n_edges, dup_orig)
    assert mapped.tolist() == [0, 1, 1, 1, 2, 3, 3]
    assert n_rev == 3


@settings(deadline=None, max_examples=50)
@given(
    st.integers(1, 50),
    st.lists(st.integers(0, 49), max_size=20),
    st.integers(0, 1000),
)
def test_property_map_edge_ids(n_edges, dups, seed):
    dup_orig = np.array([d % n_edges for d in dups], dtype=np.int64)
    rng = np.random.default_rng(seed)
    walk = rng.permutation(n_edges + dup_orig.size).astype(np.int64)
    mapped, n_rev = map_edge_ids(walk, n_edges, dup_orig)
    assert n_rev == dup_orig.size
    assert mapped.max(initial=0) < n_edges
    # Every original edge appears once plus once per duplicate of it.
    counts = np.bincount(mapped, minlength=n_edges)
    expected = 1 + np.bincount(dup_orig, minlength=n_edges)
    assert counts.tolist() == expected.tolist()
    # The input walk is untouched (mapping copies).
    assert mapped is not walk
    assert sorted(walk.tolist()) == list(range(n_edges + dup_orig.size))


def test_postman_overlapping_paths_end_to_end():
    # A "caterpillar": spine 0-1-2-3 with legs at 1 and 2. Six odd vertices;
    # greedy matching duplicates overlapping spine segments.
    g = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]
    )
    res = run_scenario(g, "postman", RunConfig(n_parts=2, verify=True))
    walk = res.circuit
    verify_covering_walk(g, walk)
    counts = np.bincount(walk.edge_ids, minlength=g.n_edges)
    assert int(counts.sum()) == g.n_edges + res.metrics["n_revisits"]
    assert bool((counts >= 1).all())


@pytest.mark.parametrize("bad", [3, -1])
def test_covering_walk_rejects_out_of_range_edge_ids(bad):
    """An id that names no edge fails the check as InvalidCircuitError
    naming the id, not as an IndexError or ValueError from indexing."""
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    walk = EulerCircuit(np.array([0, 1, 2, 0, 1]), np.array([0, 1, 2, bad]))
    with pytest.raises(InvalidCircuitError, match=f"step 3: edge id {bad} "):
        verify_covering_walk(g, walk)


# ---------------------------------------------------------------------------
# Components: reassembly preserves original ids across all executors
# ---------------------------------------------------------------------------

def test_reassemble_maps_ids():
    sub = EulerCircuit(
        vertices=np.array([0, 1, 2, 0]), edge_ids=np.array([0, 1, 2])
    )
    verts = np.array([10, 20, 30])
    eids = np.array([7, 8, 9])
    out = reassemble(sub, verts, eids)
    assert out.vertices.tolist() == [10, 20, 30, 10]
    assert out.edge_ids.tolist() == [7, 8, 9]


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 200))
@pytest.mark.parametrize("executor,workers", [
    ("serial", 1), ("thread", 3), ("process", 2),
])
def test_property_component_reassembly(executor, workers, seed):
    g = union_graph(
        random_eulerian(25, n_walks=3, walk_len=8, seed=seed),
        cycle_graph(3 + seed % 5),
        random_eulerian(15, n_walks=2, walk_len=6, seed=seed + 1),
    )
    res = run_scenario(
        g, "components",
        RunConfig(n_parts=4, executor=executor, workers=workers, verify=True),
    )
    covered = np.concatenate([c.edge_ids for c in res.circuits])
    assert sorted(covered.tolist()) == list(range(g.n_edges))
    comp_vertex_sets = []
    for sub, circ in zip(res.sub_runs, res.circuits):
        # Original ids: the walk's vertices are exactly this component's.
        assert set(circ.vertices.tolist()) == set(
            sub.meta["vertices"].tolist()
        )
        assert circ.is_closed
        # Valid circuit of the component's induced edge subgraph.
        sub_eids = np.sort(circ.edge_ids)
        comp_graph = g.subgraph_edges(sub_eids)
        remap = {int(e): i for i, e in enumerate(sub_eids)}
        rel = EulerCircuit(
            vertices=circ.vertices,
            edge_ids=np.array([remap[int(e)] for e in circ.edge_ids]),
        )
        verify_circuit(comp_graph, rel)
        comp_vertex_sets.append(set(circ.vertices.tolist()))
    # Components are disjoint.
    for i in range(len(comp_vertex_sets)):
        for j in range(i + 1, len(comp_vertex_sets)):
            assert not (comp_vertex_sets[i] & comp_vertex_sets[j])
