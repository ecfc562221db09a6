"""Tests for Phase 3 reconstruction (the part the paper deferred)."""

import tracemalloc

import numpy as np
import pytest

from repro.core import phase1
from repro.core.circuit import verify_circuit
from repro.core.pathmap import FORWARD, KIND_CYCLE, KIND_PATH, make_fid
from repro.core.phase3 import _reverse_items, _rotate_to, build_pending_index, reconstruct_circuit
from repro.errors import InvariantViolation
from repro.generate.eulerize import eulerian_rmat
from repro.graph.graph import Graph
from repro.pipeline import RunConfig, run_pipeline
from tests.helpers import item, store_of

#: The triangle 0 -e0-> 1 -e1-> 2 -e2-> 0 as an ItemArray body.
TRIANGLE = [item(0, 1, 1), item(1, 2, 1), item(2, 0, 1)]


def _items(rows):
    return np.array(rows, dtype=np.int64)


def test_reverse_items_edges():
    # Path 5 -e0-> 6 -e1-> 7 reversed: 7 -e1-> 6 -e0-> 5 (the dst column
    # shifts to the preceding junction; direction bits flip).
    items = _items([item(0, 6, 1), item(1, 7, 1)])
    rev = _reverse_items(items, 5)
    assert rev.tolist() == [list(item(1, 6, 0)), list(item(0, 5, 0))]


def test_reverse_items_flips_frag_orientation():
    frag = make_fid(0, 3, 0)
    items = _items([item(frag, 6, 1), item(1, 7, 1)])
    rev = _reverse_items(items, 5)
    assert rev[0].tolist() == list(item(1, 6, 0))
    assert rev[1].tolist() == list(item(frag, 5, 0))  # forward bit flipped
    assert (rev[:, 0] ^ items[::-1, 0]).tolist() == [FORWARD, FORWARD]


def test_rotate_to():
    # Cycle 1 -a-> 2 -b-> 3 -c-> 1 rotated to start at 3.
    items = _items([item(0, 2, 1), item(1, 3, 1), item(2, 1, 1)])
    rot = _rotate_to(items, 1, 3)
    assert (rot[:, 0] ^ FORWARD).tolist() == [2, 0, 1]  # eids c, a, b
    assert rot[:, 1].tolist() == [1, 2, 3]
    assert _rotate_to(items, 1, 1) is items
    with pytest.raises(InvariantViolation):
        _rotate_to(items, 1, 99)


def test_pending_index_covers_all_junctions():
    store, (fid,) = store_of((
        KIND_CYCLE, 0, 0, 1, 1,
        [item(0, 2, 1), item(1, 3, 1), item(2, 1, 1)], 3,
    ))
    idx = build_pending_index(store, [fid])
    assert set(idx) == {1, 2, 3}
    assert all(idx[v] == [fid] for v in (1, 2, 3))


def test_pending_index_rejects_paths():
    store, (fid,) = store_of((KIND_PATH, 0, 0, 1, 2, [item(0, 2, 1)], 1))
    with pytest.raises(InvariantViolation):
        build_pending_index(store, [fid])
    with pytest.raises(InvariantViolation, match="not a cycle"):
        reconstruct_circuit(store, [fid], fid)  # nor can a path be the base


def test_reconstruct_single_cycle(triangle):
    store, (fid,) = store_of((KIND_CYCLE, 0, 0, 0, 0, TRIANGLE, 3))
    c = reconstruct_circuit(store, [fid], fid)
    verify_circuit(triangle, c)


def test_reconstruct_splices_pending_cycle(two_triangles):
    """Base cycle 0-1-2-0 plus pending cycle 0-3-4-0 splice into one circuit."""
    store, (base, pend) = store_of(
        (KIND_CYCLE, 1, 0, 0, 0, TRIANGLE, 3),
        (KIND_CYCLE, 0, 0, 0, 0,
         [item(3, 3, 1), item(4, 4, 1), item(5, 0, 1)], 3),
    )
    c = reconstruct_circuit(store, [base, pend], base)
    verify_circuit(two_triangles, c)


def test_reconstruct_expands_nested_fragments_both_directions():
    """A cycle whose items are two coarse paths, one traversed backward."""
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p1, p2 = make_fid(0, 0, 0), make_fid(0, 1, 0)
    # Level-1 cycle at 0: forward along p1 (0->2), backward along p2 (2->0).
    store, (_, _, cyc) = store_of(
        (KIND_PATH, 0, 0, 0, 2, [item(0, 1, 1), item(1, 2, 1)], 2),
        (KIND_PATH, 0, 1, 0, 2, [item(3, 3, 1), item(2, 2, 1)], 2),
        (KIND_CYCLE, 1, 1, 0, 0, [item(p1, 2, 1), item(p2, 0, 0)], 4),
    )
    c = reconstruct_circuit(store, [cyc], cyc)
    verify_circuit(g, c)
    assert c.vertices.tolist() == [0, 1, 2, 3, 0]


def test_reconstruct_splice_inside_nested_expansion():
    """A pending cycle whose only contact point is *inside* a coarse path's
    expansion must still be spliced (the all-junction pending index)."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)])
    p = make_fid(0, 0, 0)
    store, (_, pend, base) = store_of(
        # Path 0->2 via 1 found at level 0 (consumes e0, e1).
        (KIND_PATH, 0, 0, 0, 2, [item(0, 1, 1), item(1, 2, 1)], 2),
        # Pending cycle at vertex 1 (level 0): 1-3-4-1.
        (KIND_CYCLE, 0, 0, 1, 1,
         [item(3, 3, 1), item(4, 4, 1), item(5, 1, 1)], 3),
        # Level-1 base cycle: coarse path 0->2, then edge 2-0. Vertex 1
        # only appears inside the coarse expansion.
        (KIND_CYCLE, 1, 0, 0, 0, [item(p, 2, 1), item(2, 0, 1)], 3),
    )
    c = reconstruct_circuit(store, [base, pend], base)
    verify_circuit(g, c)


def test_unspliced_cycle_raises():
    """A pending cycle sharing no vertex with the base walk is an error
    (disconnected input)."""
    store, (base, orphan) = store_of(
        (KIND_CYCLE, 0, 0, 0, 0, TRIANGLE, 3),
        (KIND_CYCLE, 0, 0, 5, 5,
         [item(3, 6, 1), item(4, 7, 1), item(5, 5, 1)], 3),
    )
    with pytest.raises(InvariantViolation, match="never spliced"):
        reconstruct_circuit(store, [base, orphan], base)


def test_reconstruct_with_spilled_fragments(tmp_path, triangle):
    """Phase 3 must read bodies back from disk transparently."""
    store, (fid,) = store_of((KIND_CYCLE, 0, 0, 0, 0, TRIANGLE, 3),
                             spill_dir=tmp_path)
    assert store.spill_level(0) == 1
    c = reconstruct_circuit(store, [fid], fid)
    verify_circuit(triangle, c)


@pytest.mark.parametrize(
    "declared, match",
    [(2, "emitted more than 2 edges"), (4, "emitted 3 edges .* sum to 4")],
    ids=["2", "4"],
)
def test_miscounted_store_raises_invariant_violation(declared, match):
    """The circuit's arrays are sized once from the cycles' n_edges sum: a
    store whose bodies emit more (or fewer) edges than that sum fails
    naming the sum, never with an IndexError."""
    store, (fid,) = store_of((KIND_CYCLE, 0, 0, 0, 0, TRIANGLE, declared))
    with pytest.raises(InvariantViolation, match=match):
        reconstruct_circuit(store, [fid], fid)


def test_phase3_peak_above_its_inputs_stays_within_a_per_edge_budget(monkeypatch):
    """Traced peak of one ``reconstruct_circuit`` call on a scale-12 R-MAT
    store, above the store it reads: the int64 outputs alone take 16 bytes
    per edge, and with the base cycle left out of the pending index the
    call peaks near 17."""
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", 0)
    g = eulerian_rmat(12, avg_degree=8.0, seed=3)[0]
    ctx = run_pipeline(Graph(g.n_vertices, g.edge_u, g.edge_v), RunConfig(n_parts=8))
    fids, levels = ctx.store.cycles()
    base = int(fids[levels == levels.max()][0])
    tracemalloc.start()
    try:
        circuit = reconstruct_circuit(ctx.store, fids, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(circuit.edge_ids, ctx.circuit.edge_ids)
    assert peak <= 20 * g.n_edges
