"""Integration matrix: feature combinations exercised together.

Individual features (spill, §5 strategies, thread workers, matching
policies, partitioners) are unit-tested elsewhere; real deployments combine
them. These tests sweep the combinations on moderately sized inputs and
verify the circuit every time.
"""

import numpy as np
import pytest

from repro.core import STRATEGIES, find_euler_circuit, verify_circuit
from repro.generate import eulerian_rmat
from repro.generate.synthetic import random_eulerian
from tests.helpers import fragment_census


@pytest.fixture(scope="module")
def medium_graph():
    g, _ = eulerian_rmat(scale=11, avg_degree=4.0, seed=21)
    return g


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_with_spill_and_threads(tmp_path, medium_graph, strategy):
    res = find_euler_circuit(
        medium_graph,
        n_parts=8,
        strategy=strategy,
        spill_dir=tmp_path / strategy,
        engine_workers=4,
        validate=True,
    )
    verify_circuit(medium_graph, res.circuit)
    assert (tmp_path / strategy).exists()


@pytest.mark.parametrize("matching", ["greedy", "random"])
@pytest.mark.parametrize("partitioner", ["ldg", "hash"])
def test_matching_partitioner_cross(medium_graph, matching, partitioner):
    res = find_euler_circuit(
        medium_graph,
        n_parts=5,
        matching=matching,
        partitioner=partitioner,
        seed=3,
    )
    verify_circuit(medium_graph, res.circuit)


def test_spilled_proposed_equals_in_memory(tmp_path, medium_graph):
    """Disk spill must not change the result, only where bodies live."""
    a = find_euler_circuit(medium_graph, n_parts=4, strategy="proposed")
    b = find_euler_circuit(
        medium_graph, n_parts=4, strategy="proposed", spill_dir=tmp_path
    )
    assert np.array_equal(a.circuit.vertices, b.circuit.vertices)
    assert np.array_equal(a.circuit.edge_ids, b.circuit.edge_ids)


def test_many_tiny_partitions_all_strategies():
    """n_parts near n_vertices stresses empty partitions and forced merges."""
    g = random_eulerian(30, n_walks=3, walk_len=10, seed=9)
    for strategy in STRATEGIES:
        res = find_euler_circuit(g, n_parts=16, strategy=strategy, validate=True)
        verify_circuit(g, res.circuit)


def test_reports_consistent_across_strategies(medium_graph):
    """All strategies process the same graph: identical superstep counts,
    and the cycle fragments (which nest all paths) cover every edge exactly
    once."""
    from repro.core.pathmap import KIND_CYCLE

    counts = set()
    cycle_edges = set()
    for strategy in STRATEGIES:
        res = find_euler_circuit(medium_graph, n_parts=8, strategy=strategy)
        counts.add(res.report.n_supersteps)
        cycle_edges.add(
            sum(row[6] for row in fragment_census(res.store) if row[1] == KIND_CYCLE)
        )
    assert len(counts) == 1
    assert cycle_edges == {medium_graph.n_edges}
