"""End-to-end tests for find_euler_circuit (driver + report)."""

import numpy as np
import pytest

from repro.core import STRATEGIES, find_euler_circuit, verify_circuit
from repro.errors import DisconnectedGraphError, NotEulerianError
from repro.generate.synthetic import (
    cycle_graph,
    grid_city,
    paper_figure1_graph,
    random_eulerian,
    ring_of_cliques,
)
from repro.graph.graph import Graph

from tests.helpers import fragment_census, make_eulerian_suite


@pytest.mark.parametrize("name,graph", make_eulerian_suite())
def test_suite_circuits_valid(name, graph):
    res = find_euler_circuit(graph, n_parts=4, validate=True)
    verify_circuit(graph, res.circuit)


@pytest.mark.parametrize("n_parts", [1, 2, 3, 4, 5, 8, 16])
def test_partition_counts(grid8, n_parts):
    res = find_euler_circuit(grid8, n_parts=n_parts, validate=True)
    verify_circuit(grid8, res.circuit)
    expected = int(np.ceil(np.log2(res.report.n_parts))) + 1 if res.report.n_parts > 1 else 1
    assert res.report.n_supersteps == expected


@pytest.mark.parametrize("partitioner", ["ldg", "bfs", "hash", "random"])
def test_partitioners(cliques, partitioner):
    res = find_euler_circuit(cliques, n_parts=4, partitioner=partitioner, validate=True)
    verify_circuit(cliques, res.circuit)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies(grid8, strategy):
    res = find_euler_circuit(grid8, n_parts=4, strategy=strategy, validate=True)
    verify_circuit(grid8, res.circuit)


@pytest.mark.parametrize("matching", ["greedy", "random"])
def test_matching_policies(grid8, matching):
    res = find_euler_circuit(grid8, n_parts=8, matching=matching, validate=True)
    verify_circuit(grid8, res.circuit)


def test_more_parts_than_vertices(triangle):
    res = find_euler_circuit(triangle, n_parts=50, validate=True)
    verify_circuit(triangle, res.circuit)
    assert res.report.n_parts <= 3


def test_empty_graph():
    res = find_euler_circuit(Graph(5))
    assert res.circuit.n_edges == 0


def test_non_eulerian_rejected():
    with pytest.raises(NotEulerianError):
        find_euler_circuit(Graph.from_edges(2, [(0, 1)]))


def test_disconnected_rejected():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(DisconnectedGraphError):
        find_euler_circuit(g)


def test_verify_flag(grid8):
    res = find_euler_circuit(grid8, n_parts=4, verify=True)
    assert res.circuit.is_closed


def test_self_loops_and_parallel_edges():
    # Self loop at 0, parallel edges 0-1, plus a triangle through 1.
    g = Graph(4, [0, 0, 0, 1, 2, 3], [0, 1, 1, 2, 3, 1])
    res = find_euler_circuit(g, n_parts=2, validate=True)
    verify_circuit(g, res.circuit)


def test_spill_dir_used(tmp_path, grid8):
    res = find_euler_circuit(grid8, n_parts=4, spill_dir=tmp_path / "spill", validate=True)
    verify_circuit(grid8, res.circuit)
    assert any((tmp_path / "spill").iterdir())


def test_engine_workers_parallel_equivalent(cliques):
    a = find_euler_circuit(cliques, n_parts=4, engine_workers=1)
    b = find_euler_circuit(cliques, n_parts=4, engine_workers=4)
    # Determinism: identical circuits regardless of worker count.
    assert np.array_equal(a.circuit.vertices, b.circuit.vertices)
    assert np.array_equal(a.circuit.edge_ids, b.circuit.edge_ids)


def test_deterministic_given_seed(cliques):
    a = find_euler_circuit(cliques, n_parts=4, seed=3)
    b = find_euler_circuit(cliques, n_parts=4, seed=3)
    assert np.array_equal(a.circuit.vertices, b.circuit.vertices)


def test_report_structure(fig1):
    g, _ = fig1
    res = find_euler_circuit(g, n_parts=4, validate=True)
    rep = res.report
    assert rep.n_supersteps == 3
    assert rep.total_seconds >= rep.compute_seconds >= 0
    # Fig. 6 rows exist and use the documented categories.
    rows = rep.time_split_rows()
    assert rows and all("phase1_tour" in r for r in rows)
    # Fig. 7 points: expected cost positive where Phase 1 ran.
    pts = rep.phase1_points()
    assert pts and all(p["expected_cost"] >= 0 for p in pts)
    # Fig. 8 series: level-0 cumulative is the largest.
    state = rep.state_by_level()
    assert len(state) == rep.n_supersteps
    assert state[0]["cumulative_longs"] >= state[-1]["cumulative_longs"]
    # Fig. 9 census rows carry the vertex-type counts.
    census = rep.census_rows()
    assert census and all("n_ob" in r for r in census)


def test_cumulative_state_monotonically_nonincreasing():
    """The paper: "Our algorithm design monotonically reduces the total
    in-memory state ... as we go up the level" (eager strategy)."""
    g = random_eulerian(400, n_walks=10, walk_len=60, seed=2)
    res = find_euler_circuit(g, n_parts=8, strategy="eager")
    cum = [r["cumulative_longs"] for r in res.report.state_by_level()]
    assert all(a >= b for a, b in zip(cum, cum[1:]))


def test_path_fragments_all_consumed(grid8):
    """Every OB-pair path fragment must be referenced by a higher-level
    fragment; only cycles are splice-pending."""
    from repro.core.pathmap import FID_MIN, KIND_PATH, REF_MASK

    res = find_euler_circuit(grid8, n_parts=4)
    store = res.store
    census = fragment_census(store)
    referenced = set()
    for fid, *_ in census:
        items, _ = store.body(fid)
        refs = items[:, 0] & REF_MASK
        referenced.update(refs[refs >= FID_MIN].tolist())
    paths = [fid for fid, kind, *_ in census if kind == KIND_PATH]
    assert paths and set(paths) <= referenced
