"""Tests for Phase-2 state merging and the Longs accounting."""

import numpy as np
import pytest

from repro.core.merging import LONGS, PartitionState, merge_states
from repro.core.phase1 import EDGE_COARSE, EDGE_RAW
from tests.helpers import rdeg_of


def _rows(rows):
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _deg(rdeg):
    """Remote-degree table as a {vertex: degree} dict (assertion helper)."""
    return {int(v): int(d) for v, d in rdeg}


def test_merge_localizes_internal_edges_eager():
    """Eager placement: both directed copies of the cut edge meet at the
    merge and produce exactly one local edge."""
    parent = PartitionState(
        pid=1, level=0, held=_rows([(10, 20, 5, 0)]),
        remote_deg=rdeg_of({10: 1}), member_leaves=(1,),
    )
    child = PartitionState(
        pid=0, level=0, held=_rows([(20, 10, 5, 1)]),
        remote_deg=rdeg_of({20: 1}), member_leaves=(0,),
    )
    state, local, rdeg = merge_states(parent, child, in_group={0, 1})
    assert local.tolist() in ([[10, 20, EDGE_RAW, 5]], [[20, 10, EDGE_RAW, 5]])
    assert _deg(rdeg) == {}  # both endpoints became internal
    assert state.held.shape[0] == 0
    assert state.member_leaves == (0, 1)
    assert state.level == 1


def test_merge_keeps_external_edges():
    parent = PartitionState(
        pid=1, level=0, held=_rows([(10, 30, 7, 2)]),
        remote_deg=rdeg_of({10: 1}), member_leaves=(1,),
    )
    child = PartitionState(
        pid=0, level=0, held=_rows([(11, 31, 8, 3)]),
        remote_deg=rdeg_of({11: 1}), member_leaves=(0,),
    )
    state, local, rdeg = merge_states(parent, child, in_group={0, 1})
    assert local.shape == (0, 4)
    assert state.held.shape[0] == 2
    assert _deg(rdeg) == {10: 1, 11: 1}


def test_merge_dedup_single_copy_localizes():
    """Dedup placement: only one copy exists; it still becomes local and both
    endpoints' remote degrees drop."""
    parent = PartitionState(
        pid=1, level=0, held=_rows([(10, 20, 5, 0)]),
        remote_deg=rdeg_of({10: 1}), member_leaves=(1,),
    )
    child = PartitionState(
        pid=0, level=0, held=np.empty((0, 4), dtype=np.int64),
        remote_deg=rdeg_of({20: 1}), member_leaves=(0,),
    )
    state, local, rdeg = merge_states(parent, child, in_group={0, 1})
    assert len(local) == 1 and _deg(rdeg) == {}


def test_merge_carries_coarse_edges_from_both_sides():
    parent = PartitionState(pid=1, level=0, coarse=_rows([(1, 2, 100, 0)]),
                            member_leaves=(1,))
    child = PartitionState(pid=0, level=0, coarse=_rows([(3, 4, 101, 0)]),
                           member_leaves=(0,))
    state, local, _ = merge_states(parent, child, in_group={0, 1})
    assert [1, 2, EDGE_COARSE, 100] in local.tolist()
    assert [3, 4, EDGE_COARSE, 101] in local.tolist()
    assert state.coarse.shape == (0, 4)  # next Phase 1 will refill


def test_merge_extra_rows_deferred():
    parent = PartitionState(pid=1, level=0, remote_deg=rdeg_of({10: 1}),
                            member_leaves=(1,))
    child = PartitionState(pid=0, level=0, remote_deg=rdeg_of({20: 1}),
                           member_leaves=(0,))
    extra = _rows([(10, 20, 9, 0)])
    state, local, rdeg = merge_states(parent, child, in_group={0, 1}, extra_rows=extra)
    assert len(local) == 1
    assert _deg(rdeg) == {}


def test_merge_boundary_vertex_partially_internalized():
    """A vertex with remote edges to both the merged child and a third
    partition stays boundary with reduced degree."""
    parent = PartitionState(
        pid=1, level=0,
        held=_rows([(10, 20, 5, 0), (10, 30, 6, 2)]),
        remote_deg=rdeg_of({10: 2}), member_leaves=(1,),
    )
    child = PartitionState(
        pid=0, level=0, held=_rows([(20, 10, 5, 1)]),
        remote_deg=rdeg_of({20: 1}), member_leaves=(0,),
    )
    state, local, rdeg = merge_states(parent, child, in_group={0, 1})
    assert _deg(rdeg) == {10: 1}
    assert state.held.shape[0] == 1  # only the external row survives


def test_state_longs_formula():
    s = PartitionState(
        pid=0, level=0,
        coarse=_rows([(1, 2, 3, 0)]),
        held=_rows([(1, 9, 0, 1), (2, 8, 1, 1)]),
        remote_deg=rdeg_of({1: 1, 2: 1, 3: 0}),
        n_pathmap_entries=4,
    )
    expected = LONGS.BOUNDARY * 2 + LONGS.REMOTE * 2 + LONGS.COARSE * 1 + LONGS.PATHMAP * 4
    assert s.state_longs() == expected


def test_census_counts():
    s = PartitionState(
        pid=0, level=0, coarse=_rows([(1, 2, 3, 0)]),
        held=_rows([(1, 9, 0, 1)]), remote_deg=rdeg_of({1: 1}),
    )
    c = s.census()
    assert c == {"n_boundary": 1, "n_remote_half_edges": 1, "n_coarse_edges": 1}


def test_pathmap_entry_counts_accumulate():
    parent = PartitionState(pid=1, level=0, n_pathmap_entries=3, member_leaves=(1,))
    child = PartitionState(pid=0, level=0, n_pathmap_entries=2, member_leaves=(0,))
    state, _, _ = merge_states(parent, child, in_group={0, 1})
    assert state.n_pathmap_entries == 5


def _merge_reference(parent, child, in_group, extra):
    """merge_states' outputs the straightforward way: one combined copy of
    every held row, split by destination leaf."""
    parts = [r for r in (parent.held, child.held, extra) if r is not None and r.size]
    rows = np.concatenate(parts) if parts else np.empty((0, 4), np.int64)
    mask = np.isin(rows[:, 3], sorted(in_group))
    internal, external = rows[mask], rows[~mask]
    _, first = np.unique(internal[:, 2], return_index=True)
    loc = internal[first]
    raw = np.stack(
        (loc[:, 0], loc[:, 1], np.full(len(loc), EDGE_RAW), loc[:, 2]), axis=1
    ).reshape(-1, 4)
    coarse = [
        np.stack((c[:, 0], c[:, 1], np.full(len(c), EDGE_COARSE), c[:, 2]), axis=1)
        .reshape(-1, 4)
        for c in (parent.coarse, child.coarse)
    ]
    return external, np.concatenate([raw, *coarse])


@pytest.mark.parametrize("seed", range(12))
def test_merge_matches_combined_copy_reference(seed):
    """Splitting each side's rows on its own keeps the exact row order of
    the combined-copy algorithm: same held rows out, same EdgeTable."""
    rng = np.random.default_rng(seed)
    n_leaves = 6

    def held(n, leaf):
        src = rng.integers(0, 50, n)
        dst = rng.integers(0, 50, n)
        eid = rng.choice(200, size=n, replace=False)
        dst_leaf = rng.choice([p for p in range(n_leaves) if p != leaf], size=n)
        return np.stack((src, dst, eid, dst_leaf), axis=1).astype(np.int64)

    def coarse(k):
        return rng.integers(0, 50, size=(k, 4)).astype(np.int64)

    parent = PartitionState(pid=1, level=0, held=held(rng.integers(0, 40), 1),
                            coarse=coarse(rng.integers(0, 5)), member_leaves=(1,))
    child = PartitionState(pid=0, level=0, held=held(rng.integers(0, 40), 0),
                           coarse=coarse(rng.integers(0, 5)), member_leaves=(0,))
    extra = held(rng.integers(0, 10), 2) if seed % 3 == 0 else None
    group = {0, 1} | ({int(rng.integers(2, n_leaves))} if seed % 2 else set())
    external, local = _merge_reference(parent, child, group, extra)
    state, local_edges, _ = merge_states(parent, child, group, extra_rows=extra)
    np.testing.assert_array_equal(state.held.reshape(-1, 4), external)
    np.testing.assert_array_equal(local_edges, local)
