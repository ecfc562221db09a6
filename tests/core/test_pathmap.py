"""Tests for fragments and the (spillable) fragment store."""

import pickle

import numpy as np
import pytest

from repro.core.pathmap import (
    ITEM_EDGE,
    ITEM_FRAG,
    KIND_CYCLE,
    KIND_PATH,
    Fragment,
    FragmentBatch,
    FragmentStore,
    PathMap,
    as_items,
    make_fid,
)
from repro.core.phase1 import run_phase1


def test_new_fragment_assigns_sequential_ids():
    s = FragmentStore()
    a = s.new_fragment(KIND_PATH, 0, 0, 1, 2, [(ITEM_EDGE, 0, 2)], 1)
    b = s.new_fragment(KIND_CYCLE, 0, 0, 3, 3, [(ITEM_EDGE, 1, 3)], 1)
    assert (a.fid, b.fid) == (0, 1)
    assert len(s) == 2
    assert 0 in s and 2 not in s
    assert s.total_edges == 2


def test_cycle_requires_matching_endpoints():
    s = FragmentStore()
    with pytest.raises(ValueError):
        s.new_fragment(KIND_CYCLE, 0, 0, 1, 2, [], 0)


def test_bad_kind_rejected():
    s = FragmentStore()
    with pytest.raises(ValueError):
        s.new_fragment("walk", 0, 0, 1, 2, [], 0)


def test_junctions_sequence():
    s = FragmentStore()
    f = s.new_fragment(
        KIND_PATH, 0, 0, 5, 7, [(ITEM_EDGE, 0, 6), (ITEM_EDGE, 1, 7)], 2
    )
    assert f.junctions() == [5, 6, 7]


def test_spill_and_reload(tmp_path):
    s = FragmentStore(spill_dir=tmp_path / "frags")
    items = [(ITEM_EDGE, 0, 2), (ITEM_FRAG, 9, 3, True)]
    f = s.new_fragment(KIND_PATH, 0, 1, 1, 3, items, 4)
    s.spill(f.fid)
    assert s.get(f.fid).items is None
    assert np.array_equal(s.items_of(f.fid), as_items(items))
    with pytest.raises(ValueError):
        s.get(f.fid).junctions()


def test_spill_level_only_that_level(tmp_path):
    """Spill is per Phase-1 block: a level's blocks go, other levels stay."""
    s = FragmentStore(spill_dir=tmp_path)
    triangle = [(0, 1, 0, 0), (1, 2, 0, 1), (2, 0, 0, 2)]
    a = run_phase1(0, 0, triangle, {}, s)[0].anchored_cycles[0]
    b = run_phase1(0, 1, triangle, {}, s)[0].anchored_cycles[0]
    assert s.spill_level(0) == 1
    assert s.get(a).items is None
    assert s.get(b).items is not None
    assert np.array_equal(s.items_of(a), s.items_of(b))  # read back from disk
    assert s.spill_level(0) == 0  # idempotent


def _two_cycle_block(store):
    """One Phase-1 run (pid 0, level 0) yielding two anchored cycles."""
    edges = [(0, 1, 0, 0), (1, 2, 0, 1), (2, 0, 0, 2),
             (3, 4, 0, 3), (4, 5, 0, 4), (5, 3, 0, 5)]
    return run_phase1(0, 0, edges, {}, store)[0].anchored_cycles


def test_spilled_block_is_mapped_once(tmp_path):
    s = FragmentStore(spill_dir=tmp_path)
    a, b = _two_cycle_block(s)
    expected = [s.items_of(a).copy(), s.items_of(b).copy()]
    s.spill(a)
    assert s.get(b).items is None  # the whole block left memory
    key = make_fid(0, 0, 0) >> 32  # the block of (level 0, pid 0)
    assert [p.name for p in tmp_path.iterdir()] == [f"block_{key}.npy"]
    got = [s.items_of(a), s.items_of(b)]
    assert all(np.array_equal(x, y) for x, y in zip(got, expected))
    # Both bodies are slices of one memory map of the block's file.
    assert np.shares_memory(got[0].base, got[1].base)


def test_batch_pickles_as_its_block_without_copying_the_items():
    batch = FragmentBatch(0, 0)
    fids = _two_cycle_block(batch)
    buffers = []
    blob = pickle.dumps(batch, protocol=5, buffer_callback=buffers.append)
    # The kernel's ItemArray ships as is, beside the five root columns.
    assert len(buffers) == 6
    assert any(np.shares_memory(np.asarray(b.raw()), batch.block.items)
               for b in buffers)
    copy = pickle.loads(blob, buffers=buffers)
    store = FragmentStore()
    store.adopt(copy)
    assert store.n_blocks == 1 and len(store) == 2
    assert [f.fid for f in store.all_fragments()] == fids.tolist()
    assert store.census()["n_item_rows"] == 6


def test_spill_without_dir_raises():
    s = FragmentStore()
    f = s.new_fragment(KIND_PATH, 0, 0, 0, 1, [(ITEM_EDGE, 0, 1)], 1)
    with pytest.raises(ValueError):
        s.spill(f.fid)


def test_items_of_in_memory_fast_path():
    """An in-memory body is a view into its block, never a copy."""
    s = FragmentStore()
    f = s.new_fragment(KIND_PATH, 0, 0, 0, 1, [(ITEM_EDGE, 0, 1)], 1)
    assert np.shares_memory(s.items_of(f.fid), f.items)


def test_pathmap_defaults():
    pm = PathMap(pid=3, level=1)
    assert pm.ob_paths.shape == (0, 3) and pm.anchored_cycles.size == 0
    assert pm.n_merged_cycles == 0 and pm.n_trivial == 0


def test_as_items_normalizes_legacy_tuples():
    arr = as_items([(ITEM_EDGE, 7, 2), (ITEM_FRAG, 9, 3, False)])
    assert arr.dtype == np.int64 and arr.shape == (2, 4)
    assert arr[0].tolist() == [ITEM_EDGE, 7, 2, 1]  # edge rows default fwd=1
    assert arr[1].tolist() == [ITEM_FRAG, 9, 3, 0]
    assert as_items(arr) is arr  # already-packed bodies pass through
