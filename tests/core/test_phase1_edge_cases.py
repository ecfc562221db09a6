"""Phase-1 edge cases: self loops, disconnected live graphs, coarse-only levels.

Each test pins down a corner of Alg. 1 via the :class:`Phase1Stats` counters
— the census the Fig. 7/9 benchmarks read — so kernel rewrites (e.g. the
array-backed adjacency) cannot silently change classification behavior.
"""

from repro.core.pathmap import KIND_CYCLE, FragmentBatch, FragmentStore, make_fid
from repro.core.phase1 import EDGE_COARSE, EDGE_RAW, run_phase1
from tests.helpers import edges_of, fragment_census, rdeg_of

NO_REMOTE = rdeg_of({})


def test_self_loop_only_internal_vertex():
    """A vertex whose only edges are self loops forms an internal cycle."""
    store = FragmentStore()
    # Triangle 0-1-2 plus two self loops at internal vertex 1.
    local = edges_of([
        (0, 1, EDGE_RAW, 0),
        (1, 2, EDGE_RAW, 1),
        (2, 0, EDGE_RAW, 2),
        (1, 1, EDGE_RAW, 3),
        (1, 1, EDGE_RAW, 4),
    ])
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert stats.n_live_vertices == 3
    assert stats.n_internal == 3 and stats.n_ob == 0 and stats.n_eb == 0
    assert stats.n_local_edges == 5
    # One anchored cycle consuming everything; self loops merge into it.
    assert stats.n_iv_cycles_anchored + stats.n_iv_cycles_merged >= 1
    assert len(pm.anchored_cycles) == 1
    assert store.edge_counts(pm.anchored_cycles).tolist() == [5]


def test_self_loop_only_boundary_vertex():
    """A boundary vertex carrying only a self loop is an EB vertex whose
    tour is exactly that loop."""
    store = FragmentStore()
    local = edges_of([(7, 7, EDGE_RAW, 11)])
    pm, stats = run_phase1(3, 1, local, rdeg_of({7: 2}), store, validate=True)
    assert stats.n_eb == 1 and stats.n_ob == 0 and stats.n_internal == 0
    assert stats.n_eb_cycles == 1 and stats.n_trivial == 0
    assert fragment_census(store) == [
        (pm.anchored_cycles[0], KIND_CYCLE, 1, 3, 7, 7, 1)  # src == dst == 7
    ]


def test_isolated_boundary_vertex_is_trivial():
    """A boundary vertex with no local edges yields a trivial (empty) tour."""
    store = FragmentStore()
    pm, stats = run_phase1(0, 0, edges_of([]), rdeg_of({4: 2}), store,
                           validate=True)
    assert stats.n_live_vertices == 1 and stats.n_eb == 1
    assert stats.n_trivial == 1
    assert pm.ob_paths.size == 0 and pm.anchored_cycles.size == 0


def test_disconnected_live_graph_anchored_fallback():
    """Internal cycles with no pivot on any root stay anchored (the
    generalization beyond the paper's connected-partition assumption)."""
    store = FragmentStore()
    # Two vertex-disjoint triangles, all vertices internal.
    local = edges_of([
        (0, 1, EDGE_RAW, 0),
        (1, 2, EDGE_RAW, 1),
        (2, 0, EDGE_RAW, 2),
        (10, 11, EDGE_RAW, 3),
        (11, 12, EDGE_RAW, 4),
        (12, 10, EDGE_RAW, 5),
    ])
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert stats.n_internal == 6
    assert stats.n_iv_cycles_anchored == 2 and stats.n_iv_cycles_merged == 0
    assert len(pm.anchored_cycles) == 2
    assert store.edge_counts(pm.anchored_cycles).tolist() == [3, 3]


def test_disconnected_component_far_from_boundary():
    """A component with boundary vertices plus an unreachable internal
    cycle: the cycle anchors instead of merging into the OB path's root."""
    store = FragmentStore()
    local = edges_of([
        (0, 1, EDGE_RAW, 0),  # OB path component: 0 -1- 1
        (5, 6, EDGE_RAW, 1),  # far triangle
        (6, 7, EDGE_RAW, 2),
        (7, 5, EDGE_RAW, 3),
    ])
    pm, stats = run_phase1(0, 0, local, rdeg_of({0: 1, 1: 1}), store,
                           validate=True)
    assert stats.n_ob == 2 and stats.n_paths == 1
    assert stats.n_iv_cycles_anchored == 1
    assert len(pm.ob_paths) == 1 and len(pm.anchored_cycles) == 1


def test_coarse_edges_only_level():
    """A merge level whose live local graph is built purely of coarse
    OB-pair edges (no newly-localized raw edges)."""
    # Two prior two-edge path fragments 1->2 produced at level 0.
    p1, p2 = make_fid(0, 0, 0), make_fid(0, 1, 0)
    batch = FragmentBatch(0, 1, known_edges={p1: 2, p2: 2})
    local = edges_of([
        (1, 2, EDGE_COARSE, p1),
        (1, 2, EDGE_COARSE, p2),
    ])
    pm, stats = run_phase1(0, 1, local, rdeg_of({1: 2, 2: 2}), batch,
                           validate=True)
    assert stats.n_local_edges == 2 and stats.n_internal == 0
    assert stats.n_eb == 2  # both endpoints even local degree, still boundary
    assert stats.n_eb_cycles == 1 and stats.n_trivial == 1
    # The cycle weighs the coarse fragments' raw edges, not the item count.
    assert batch.block.n_edges.tolist() == [4]
    assert stats.phase1_cost == stats.n_eb + stats.n_local_edges


def test_coarse_cycle_consumed_at_root_level():
    """Root level: two coarse edges between the last OB pair close into one
    cycle even when one side travels the fragment backward."""
    p = make_fid(0, 0, 0)  # a two-edge path 3 -> 4 from level 0
    batch = FragmentBatch(2, 1, known_edges={p: 2})
    local = edges_of([
        (3, 4, EDGE_COARSE, p),
        (3, 4, EDGE_RAW, 77),
    ])
    pm, stats = run_phase1(2, 1, local, NO_REMOTE, batch, validate=True)
    assert stats.n_internal == 2
    assert len(pm.anchored_cycles) == 1
    assert batch.block.n_edges.tolist() == [3]


def test_sparse_vertex_id_space_fallback():
    """Scattered huge vertex ids exercise the sparse (unique-remap) path;
    results must match what the dense path gives on relabeled ids."""
    big = 10**15
    local = edges_of([
        (big, big + 7, EDGE_RAW, 0),
        (big + 7, 3 * big, EDGE_RAW, 1),
        (3 * big, big, EDGE_RAW, 2),
    ])
    store = FragmentStore()
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert stats.n_live_vertices == 3 and stats.n_local_edges == 3
    assert len(pm.anchored_cycles) == 1
    assert store.edge_counts(pm.anchored_cycles).tolist() == [3]
    # Same graph with compact ids (dense path): identical shape and eids.
    dense_store = FragmentStore()
    dense_local = edges_of([(0, 1, EDGE_RAW, 0), (1, 2, EDGE_RAW, 1),
                            (2, 0, EDGE_RAW, 2)])
    dpm, _ = run_phase1(0, 0, dense_local, NO_REMOTE, dense_store, validate=True)
    dense_items = dense_store.body(dpm.anchored_cycles[0])[0]
    items = store.body(pm.anchored_cycles[0])[0]
    assert dense_items[:, 0].tolist() == items[:, 0].tolist()
