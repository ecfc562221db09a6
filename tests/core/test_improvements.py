"""Tests for the §5 heuristics: remote-edge dedup and deferred transfer."""

import numpy as np
import pytest

from repro.core.improvements import (
    STRATEGIES,
    DeferredStore,
    plan_remote_placement,
    strategy_flags,
)
from repro.core.merge_tree import build_merge_tree
from repro.generate.synthetic import paper_figure1_graph, random_eulerian
from repro.graph.graph import index_dtype
from repro.graph.metagraph import build_metagraph
from repro.graph.partition import PartitionedGraph
from repro.partitioning import partition


def _setup(fig1):
    g, part = fig1
    pg = PartitionedGraph(g, part)
    tree = build_merge_tree(build_metagraph(pg))
    return pg, tree


def test_strategy_flags():
    assert strategy_flags("eager") == (False, False)
    assert strategy_flags("dedup") == (True, False)
    assert strategy_flags("deferred") == (False, True)
    assert strategy_flags("proposed") == (True, True)
    with pytest.raises(ValueError):
        strategy_flags("lazy")
    assert set(STRATEGIES) == {"eager", "dedup", "deferred", "proposed"}


def test_eager_placement_holds_both_directions(fig1):
    pg, tree = _setup(fig1)
    plan = plan_remote_placement(pg, tree, dedup=False)
    total = sum(r.shape[0] for r in plan.rows_for.values())
    assert total == 2 * pg.n_cut_edges
    # Every row's src belongs to the holding partition.
    for pid, rows in plan.rows_for.items():
        for src, dst, eid, dst_pid in rows.tolist():
            assert pg.part_of[src] == pid
            assert pg.part_of[dst] == dst_pid


def test_dedup_placement_halves_rows(fig1):
    pg, tree = _setup(fig1)
    plan = plan_remote_placement(pg, tree, dedup=True)
    total = sum(r.shape[0] for r in plan.rows_for.values())
    assert total == pg.n_cut_edges  # exactly one copy per cut edge
    eids = sorted(
        int(e) for rows in plan.rows_for.values() for e in rows[:, 2].tolist()
    )
    assert eids == sorted(np.flatnonzero(~pg.local_mask).tolist())


def _reference_rows(pg, dedup):
    """Placement rows built one cut edge at a time, in eid order."""
    u, v, part = pg.graph.edge_u, pg.graph.edge_v, pg.part_of
    cut = np.flatnonzero(~pg.local_mask).tolist()
    weight = [0] * pg.n_parts
    for e in cut:
        weight[part[u[e]]] += 1
        weight[part[v[e]]] += 1
    rows = {pid: [] for pid in range(pg.n_parts)}
    for e in cut:
        a, b = int(u[e]), int(v[e])
        pa, pb = int(part[a]), int(part[b])
        u_side = (a, b, e, pb)
        v_side = (b, a, e, pa)
        if not dedup:
            rows[pa].append(u_side)
            rows[pb].append(v_side)
        elif (weight[pa], pa) <= (weight[pb], pb):
            rows[pa].append(u_side)
        else:
            rows[pb].append(v_side)
    return rows


@pytest.mark.parametrize("dedup", [False, True])
def test_placement_rows_ascend_by_eid_and_match_reference(dedup):
    g = random_eulerian(300, n_walks=8, walk_len=60, seed=5)
    pg = partition(g, 8, "ldg")
    tree = build_merge_tree(build_metagraph(pg))
    plan = plan_remote_placement(pg, tree, dedup=dedup)
    reference = _reference_rows(pg, dedup)
    assert set(plan.rows_for) == set(reference)
    width = index_dtype(g.n_vertices, g.n_edges)
    for pid, rows in plan.rows_for.items():
        assert rows.dtype == width and rows.shape[1] == 4
        assert bool(np.all(np.diff(rows[:, 2]) > 0)), pid
        assert rows.tolist() == [list(r) for r in reference[pid]], pid


def test_merge_levels_match_tree(fig1):
    pg, tree = _setup(fig1)
    plan = plan_remote_placement(pg, tree, dedup=False)
    # Fig. 2: P3-P4 and P1-P2 merge at level 0; cross edges at level 1.
    u, v = pg.graph.edge_u, pg.graph.edge_v
    levels = plan.merge_level_by_eid
    assert np.flatnonzero(levels >= 0).tolist() == np.flatnonzero(~pg.local_mask).tolist()
    for eid in np.flatnonzero(levels >= 0).tolist():
        a, b = int(pg.part_of[u[eid]]), int(pg.part_of[v[eid]])
        assert levels[eid] == tree.merge_level_of(a, b)
    # e6,11 (P3-P4, edge id 9) merges at level 0.
    assert levels[9] == 0
    # e2,3 (P1-P2, edge id 1) merges at level 0; e3,13 (P2-P4, id 5) at level 1.
    assert levels[1] == 0
    assert levels[5] == 1


def test_deferred_store_ship_and_residency():
    store = DeferredStore()
    rows_l1 = np.array([[1, 2, 0, 1], [3, 4, 1, 1]], dtype=np.int64)
    rows_l2 = np.array([[5, 6, 2, 2]], dtype=np.int64)
    store.deposit(0, 1, rows_l1)
    store.deposit(0, 2, rows_l2)
    assert store.resident_longs() == 2 * 3
    shipped = store.ship([0], 1)
    assert shipped.shape == (2, 4)
    assert store.resident_longs() == 2 * 1
    # Shipping again is empty (bucket consumed).
    assert store.ship([0], 1).shape == (0, 4)
    assert store.ship([0], 2).shape == (1, 4)
    assert store.resident_longs() == 0


def test_deferred_store_empty_rows_ignored():
    store = DeferredStore()
    store.deposit(3, 0, np.empty((0, 4), dtype=np.int64))
    assert store.resident_longs() == 0
    assert store.ship([3], 0).shape == (0, 4)


def test_dedup_reduces_measured_state_end_to_end():
    """On a real run, dedup must reduce cumulative level-0 state by roughly
    the remote-edge share, never increase it."""
    from repro.core import find_euler_circuit

    g = random_eulerian(300, n_walks=8, walk_len=60, seed=5)
    eager = find_euler_circuit(g, n_parts=8, strategy="eager", verify=True)
    dedup = find_euler_circuit(g, n_parts=8, strategy="dedup", verify=True)
    e0 = eager.report.state_by_level()[0]["cumulative_longs"]
    d0 = dedup.report.state_by_level()[0]["cumulative_longs"]
    assert d0 < e0


def test_all_strategies_produce_identical_circuit_validity():
    from repro.core import find_euler_circuit, verify_circuit

    g = random_eulerian(150, n_walks=6, walk_len=40, seed=9)
    for strat in STRATEGIES:
        res = find_euler_circuit(g, n_parts=4, strategy=strat)
        verify_circuit(g, res.circuit)
