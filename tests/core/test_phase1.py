"""Tests for Phase 1 (Alg. 1) — including the paper's Lemmas 1-3 as properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pathmap import (
    FID_MIN,
    FORWARD_SHIFT,
    KIND_CYCLE,
    REF_MASK,
    FragmentBatch,
    FragmentStore,
    make_fid,
)
from repro.core.phase1 import EDGE_COARSE, EDGE_RAW, run_phase1
from repro.errors import InvariantViolation
from repro.generate.synthetic import paper_figure1_graph, random_eulerian
from repro.graph.partition import PartitionedGraph
from tests.helpers import edges_of, rdeg_of

NO_REMOTE = rdeg_of({})


def _phase1_inputs(pg, pid):
    """Build (local_edges, remote_degree) tables for a level-0 partition
    view, counting remote degrees from its cut rows."""
    view = pg.view(pid)
    u, v = pg.graph.edge_u, pg.graph.edge_v
    local = [(int(u[e]), int(v[e]), EDGE_RAW, int(e)) for e in view.local_eids]
    rdeg = {}
    for src in view.remote[:, 0].tolist():
        rdeg[src] = rdeg.get(src, 0) + 1
    return edges_of(local), rdeg_of(rdeg)


def _edges(fid_or_fids, store):
    return store.edge_counts(np.atleast_1d(fid_or_fids)).tolist()


def test_fig1_p2_single_eb_cycle(fig1):
    g, part = fig1
    pg = PartitionedGraph(g, part)
    store = FragmentStore()
    local, rdeg = _phase1_inputs(pg, 1)  # P2
    pm, stats = run_phase1(1, 0, local, rdeg, store, validate=True)
    assert stats.n_ob == 0 and stats.n_eb == 1 and stats.n_internal == 2
    assert len(pm.ob_paths) == 0
    assert len(pm.anchored_cycles) == 1
    cyc = pm.anchored_cycles[0]
    assert store.kind_of(cyc) == KIND_CYCLE and store.body(cyc)[1] == 2  # v3
    assert _edges(cyc, store) == [3]


def test_fig1_p3_single_ob_path(fig1):
    g, part = fig1
    pg = PartitionedGraph(g, part)
    store = FragmentStore()
    local, rdeg = _phase1_inputs(pg, 2)  # P3
    pm, stats = run_phase1(2, 0, local, rdeg, store, validate=True)
    assert stats.n_ob == 2
    assert len(pm.ob_paths) == 1
    src, dst, fid = pm.ob_paths[0]
    assert {src, dst} == {5, 8}  # v6 -> v9 (paper's e6,9 OB-pair)
    assert _edges(fid, store) == [3]


def test_fig1_p4_two_ob_paths(fig1):
    g, part = fig1
    pg = PartitionedGraph(g, part)
    store = FragmentStore()
    local, rdeg = _phase1_inputs(pg, 3)  # P4
    pm, stats = run_phase1(3, 0, local, rdeg, store, validate=True)
    assert stats.n_ob == 4 and stats.n_paths == 2
    assert len(pm.anchored_cycles) == 0
    # Fig. 1b shows one valid pairing (e10,11 and e13,14); any perfect
    # matching of the four OBs consuming all 4 local edges is correct.
    endpoints = sorted(v for s, d, _ in pm.ob_paths for v in (s, d))
    assert endpoints == [9, 10, 12, 13]  # v10, v11, v13, v14
    assert sum(_edges(pm.ob_paths[:, 2], store)) == 4


def test_trivial_eb_skipped():
    """A boundary vertex with remote edges but zero local edges yields a
    trivial tour (counted, no fragment)."""
    store = FragmentStore()
    pm, stats = run_phase1(0, 0, edges_of([]), rdeg_of({7: 2}), store,
                           validate=True)
    assert stats.n_trivial == 1
    assert stats.n_eb == 1
    assert len(store) == 0


def test_internal_only_partition_single_cycle(triangle):
    """A partition with no boundary (whole graph) gives one anchored cycle."""
    store = FragmentStore()
    local = edges_of([(u, v, EDGE_RAW, e) for e, u, v in triangle.iter_edges()])
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert len(pm.anchored_cycles) == 1
    assert stats.n_iv_cycles_anchored == 1
    assert _edges(pm.anchored_cycles, store) == [3]


def test_figure_eight_single_walk_consumes_all(two_triangles):
    """Two triangles sharing vertex 0: the first maximal walk starts at 0 and
    passes back through it, so one internal cycle covers all six edges."""
    store = FragmentStore()
    local = edges_of([(u, v, EDGE_RAW, e) for e, u, v in two_triangles.iter_edges()])
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert stats.n_iv_cycles_anchored == 1 and stats.n_iv_cycles_merged == 0
    assert _edges(pm.anchored_cycles, store) == [6]


def test_merge_into_at_pivot():
    """A second internal cycle touching the first only at a mid-walk vertex
    must merge into it (mergeInto, Lemma 3): triangle 0-1-2 plus triangle
    1-3-4 discovered after the first walk closed."""
    from repro.graph.graph import Graph

    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)])
    store = FragmentStore()
    local = edges_of([(u, v, EDGE_RAW, e) for e, u, v in g.iter_edges()])
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert stats.n_iv_cycles_merged == 1
    assert stats.n_iv_cycles_anchored == 1  # the first (base) cycle
    assert len(pm.anchored_cycles) == 1
    assert _edges(pm.anchored_cycles, store) == [6]
    # The merged fragment passes through the pivot twice: its junctions
    # are its src, then the dst column.
    items, src = store.body(pm.anchored_cycles[0])
    assert [src, *items[:, 1].tolist()].count(1) == 2


def test_disconnected_partition_anchors_orphans():
    """Two vertex-disjoint triangles in one partition: Lemma 3's assumption
    fails, the generalization anchors the second cycle separately."""
    from repro.graph.graph import Graph

    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    store = FragmentStore()
    local = edges_of([(u, v, EDGE_RAW, e) for e, u, v in g.iter_edges()])
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert stats.n_iv_cycles_anchored == 2
    assert len(pm.anchored_cycles) == 2


def test_coarse_edges_traversed_with_orientation():
    """A coarse OB-pair edge is consumed like a local edge and referenced
    with the right direction flag."""
    # Pretend level-0 produced a one-edge path 1 -> 2: the level-1 run
    # needs only its raw-edge count.
    prior = make_fid(0, 0, 0)
    batch = FragmentBatch(0, 1, known_edges={prior: 1})
    # At level 1: coarse edge (1,2) plus raw edge (2,1) close a cycle.
    local = edges_of([
        (1, 2, EDGE_COARSE, prior),
        (2, 1, EDGE_RAW, 5),
    ])
    pm, stats = run_phase1(0, 1, local, NO_REMOTE, batch, validate=True)
    store = FragmentStore()
    store.adopt(batch)
    assert len(pm.anchored_cycles) == 1
    items, _ = store.body(pm.anchored_cycles[0])
    frag_items = items[items[:, 0] & REF_MASK >= FID_MIN].tolist()
    assert len(frag_items) == 1
    (code, dst), = frag_items
    assert code & REF_MASK == prior
    # Traversal from vertex 1 along (1,2) is forward; from 2 it is backward.
    assert code >> FORWARD_SHIFT == (dst == 2)
    assert _edges(pm.anchored_cycles, store) == [2]


def test_self_loop_consumed():
    from repro.graph.graph import Graph

    g = Graph(2, [0, 0, 0], [0, 1, 1])  # self loop at 0 + double edge 0-1
    store = FragmentStore()
    local = edges_of([(u, v, EDGE_RAW, e) for e, u, v in g.iter_edges()])
    pm, stats = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    assert sum(_edges(pm.anchored_cycles, store)) == 3


def test_parallel_edges_consumed_once_each():
    from repro.graph.graph import Graph

    g = Graph(2, [0, 0], [1, 1])
    store = FragmentStore()
    local = edges_of([(u, v, EDGE_RAW, e) for e, u, v in g.iter_edges()])
    pm, _ = run_phase1(0, 0, local, NO_REMOTE, store, validate=True)
    items, _ = store.body(pm.anchored_cycles[0])
    assert sorted((items[:, 0] & REF_MASK).tolist()) == [0, 1]


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 1000), st.integers(1, 5))
def test_property_lemmas_and_conservation(seed, n_parts):
    """Lemmas 1-3 hold (validate=True raises otherwise) and Phase 1 conserves
    edges: every local edge lands in exactly one fragment; paths pair up OBs."""
    g = random_eulerian(50, n_walks=4, walk_len=16, seed=seed)
    rng = np.random.default_rng(seed)
    part = rng.integers(0, n_parts, size=g.n_vertices, dtype=np.int64)
    pg = PartitionedGraph(g, part, n_parts)
    for pid in range(n_parts):
        store = FragmentStore()
        local, rdeg = _phase1_inputs(pg, pid)
        pm, stats = run_phase1(pid, 0, local, rdeg, store, validate=True)
        # Lemma 1 consequence: exactly n_ob/2 paths.
        assert stats.n_paths == stats.n_ob // 2
        # Conservation: fragments cover all local edges exactly once.
        seen: list[int] = []

        def collect(fid):
            for code, _ in store.body(fid)[0].tolist():
                assert code & REF_MASK < FID_MIN  # level 0: no coarse refs
                seen.append(code & REF_MASK)

        for _, _, fid in pm.ob_paths:
            collect(fid)
        for fid in pm.anchored_cycles:
            collect(fid)
        assert sorted(seen) == sorted(local[:, 3].tolist())
        # Parity: path endpoints at v match v's local-degree parity.
        end_count: dict[int, int] = {}
        for s, d, _ in pm.ob_paths:
            end_count[s] = end_count.get(s, 0) + 1
            end_count[d] = end_count.get(d, 0) + 1
        ldeg: dict[int, int] = {}
        for u, v, _, _ in local.tolist():
            ldeg[u] = ldeg.get(u, 0) + 1
            ldeg[v] = ldeg.get(v, 0) + 1
        for v, d in ldeg.items():
            assert d % 2 == end_count.get(v, 0) % 2


#: A triangle 0-1-2 with a pendant edge 2-3: boundary vertices 2 and 3
#: (one remote edge each) are its two OBs.
_PENDANT = [(0, 1, EDGE_RAW, 0), (1, 2, EDGE_RAW, 1), (2, 0, EDGE_RAW, 2),
            (2, 3, EDGE_RAW, 3)]


@pytest.mark.parametrize("local, rdeg, match", [
    (edges_of(_PENDANT), np.array([[3, 1], [1, 0], [2, 1]]),
     "strictly ascending vertices and positive degrees"),
    (edges_of(_PENDANT), np.array([[2, 1], [2, 1], [3, 1]]),
     "strictly ascending vertices and positive degrees"),
    (edges_of(_PENDANT), {2: 1, 3: 1},
     r"remote_degree must be an int64 \(n, 2\) array; got dict"),
    (edges_of(_PENDANT), np.array([[2, 1], [3, 1]], dtype=np.int32),
     r"remote_degree must be an int64 \(n, 2\) array; got int32 \(2, 2\)"),
    (_PENDANT, rdeg_of({2: 1, 3: 1}),
     r"local_edges must be an int64 \(n, 4\) array; got list"),
    (edges_of(_PENDANT)[:, :3], rdeg_of({2: 1, 3: 1}),
     r"local_edges must be an int64 \(n, 4\) array; got int64 \(4, 3\)"),
    (edges_of(_PENDANT[:3] + [(2, 3, EDGE_COARSE, 3)]), rdeg_of({2: 1, 3: 1}),
     r"coarse edges with fragment ids in \[2\*\*52, 2\*\*62\)"),
    (edges_of(_PENDANT[:3] + [(2, 3, EDGE_RAW, make_fid(0, 0, 0))]),
     rdeg_of({2: 1, 3: 1}), r"raw edges with refs in \[0, 2\*\*52\)"),
], ids=["unsorted-with-zero-degree", "duplicate-vertex", "dict", "int32",
        "tuple-list", "three-columns", "coarse-eid", "raw-fid"])
def test_validate_checks_the_table_contract(local, rdeg, match):
    """Under validate, inputs that are not the packed, canonical tables
    raise rather than being normalized: an unsorted table with a zero row
    is refused, not filtered and sorted."""
    with pytest.raises(InvariantViolation, match=match):
        run_phase1(0, 0, local, rdeg, FragmentStore(), validate=True)


def test_canonical_tables_pass_the_contract():
    """The same graph with its canonical tables walks, so each case above
    fails on its table alone."""
    pm, stats = run_phase1(0, 0, edges_of(_PENDANT), rdeg_of({3: 1, 1: 0, 2: 1}),
                           FragmentStore(), validate=True)
    assert stats.n_ob == 2 and pm.ob_paths[:, :2].tolist() == [[2, 3]]
