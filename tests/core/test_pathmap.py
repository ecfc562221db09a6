"""Tests for fragments and the (spillable) fragment store."""

import pickle

import numpy as np
import pytest

from repro.core.pathmap import (
    FID_MIN,
    KIND_CYCLE,
    REF_MASK,
    KIND_PATH,
    FragmentBatch,
    FragmentStore,
    PathMap,
    make_fid,
)
from repro.core.phase1 import run_phase1
from tests.helpers import edges_of, fragment_census, item, rdeg_of, store_of


def test_spill_and_reload(tmp_path):
    rows = [item(0, 2, 1), item(make_fid(0, 9, 0), 3, 1)]
    s, (fid,) = store_of((KIND_PATH, 0, 1, 1, 3, rows, 4),
                         spill_dir=tmp_path / "frags")
    assert s.spill_level(0) == 1
    assert s.census()["n_item_rows"] == 0  # the body left memory
    items, src = s.body(fid)
    assert src == 1 and items.tolist() == [list(r) for r in rows]


def test_spill_level_only_that_level(tmp_path):
    """Spill is per Phase-1 block: a level's blocks go, other levels stay."""
    s = FragmentStore(spill_dir=tmp_path)
    triangle = edges_of([(0, 1, 0, 0), (1, 2, 0, 1), (2, 0, 0, 2)])
    a = run_phase1(0, 0, triangle, rdeg_of({}), s)[0].anchored_cycles[0]
    b = run_phase1(0, 1, triangle, rdeg_of({}), s)[0].anchored_cycles[0]
    assert s.spill_level(0) == 1
    assert s.census()["n_item_rows"] == 3  # only level 1's block is resident
    # Level 0's body reads back from disk, equal to level 1's in memory.
    assert np.array_equal(s.body(a)[0], s.body(b)[0])
    assert s.spill_level(0) == 0  # idempotent


def _two_cycle_block(store):
    """One Phase-1 run (pid 0, level 0) yielding two anchored cycles."""
    edges = edges_of([(0, 1, 0, 0), (1, 2, 0, 1), (2, 0, 0, 2),
                      (3, 4, 0, 3), (4, 5, 0, 4), (5, 3, 0, 5)])
    return run_phase1(0, 0, edges, rdeg_of({}), store)[0].anchored_cycles


def test_spilled_block_is_mapped_once(tmp_path):
    s = FragmentStore(spill_dir=tmp_path)
    a, b = _two_cycle_block(s)
    expected = [s.body(a)[0].copy(), s.body(b)[0].copy()]
    s.spill_level(0)
    assert s.census()["n_item_rows"] == 0  # the whole block left memory
    key = make_fid(0, 0, 0) >> 32  # the block of (level 0, pid 0)
    assert [p.name for p in tmp_path.iterdir()] == [f"block_{key}.npy"]
    got = [s.body(a)[0], s.body(b)[0]]
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
    assert store.columns()["fid"].tolist() == fids.tolist()
    assert store.census()["n_item_rows"] == 6


def test_spill_without_dir_raises():
    s, _ = store_of((KIND_PATH, 0, 0, 0, 1, [item(0, 1, 1)], 1))
    with pytest.raises(ValueError):
        s.spill_level(0)


def test_items_of_in_memory_fast_path():
    """An in-memory ``body(fid)`` is a view of its block, never a copy."""
    batch = FragmentBatch(0, 0)
    a, b = _two_cycle_block(batch)
    s = FragmentStore()
    s.adopt(batch)
    assert all(np.shares_memory(s.body(fid)[0], batch.block.items)
               for fid in (a, b))


def test_columns_are_the_store_read_view():
    """``columns()`` lists every fragment in fid order across blocks; the
    per-fid reads and ``cycles()`` agree with it."""
    s, fids = store_of(
        (KIND_CYCLE, 1, 0, 4, 4, [item(2, 5, 1), item(3, 4, 0)], 2),
        (KIND_PATH, 0, 2, 1, 2, [item(0, 2, 1)], 1),
        (KIND_CYCLE, 0, 2, 3, 3, [item(1, 3, 1)], 1),
    )
    assert fids == [make_fid(1, 0, 0), make_fid(0, 2, 0), make_fid(0, 2, 1)]
    assert fragment_census(s) == [
        (fids[1], KIND_PATH, 0, 2, 1, 2, 1),
        (fids[2], KIND_CYCLE, 0, 2, 3, 3, 1),
        (fids[0], KIND_CYCLE, 1, 0, 4, 4, 2),
    ]
    assert [s.kind_of(f) for f in fids] == [KIND_CYCLE, KIND_PATH, KIND_CYCLE]
    assert [s.level_of(f) for f in fids] == [1, 0, 0]
    assert s.edge_counts(fids).tolist() == [2, 1, 1]
    cycles, levels = s.cycles()
    assert cycles.tolist() == [fids[2], fids[0]] and levels.tolist() == [0, 1]
    assert s.census() == {"n_fragments": 3, "n_paths": 1, "n_cycles": 2,
                          "n_item_rows": 4}
    empty = FragmentStore().columns()
    assert all(col.size == 0 for col in empty.values())
    assert empty["kind"].dtype == np.int8 and empty["fid"].dtype == np.int64


def test_every_fid_lies_between_the_edge_ids_and_the_direction_bit():
    """``make_fid`` keeps fids in ``[2**52, 2**62)``, so an ItemArray ref
    is a fragment exactly when it is at least ``FID_MIN``."""
    assert make_fid(0, 0, 0) == FID_MIN == 1 << 52
    assert make_fid(1022, (1 << 20) - 1, (1 << 32) - 1) == REF_MASK
    for level in (-1, 1023):
        with pytest.raises(ValueError, match="level"):
            make_fid(level, 0, 0)


def test_pathmap_defaults():
    pm = PathMap(pid=3, level=1)
    assert pm.ob_paths.shape == (0, 3) and pm.anchored_cycles.size == 0
    assert pm.n_merged_cycles == 0 and pm.n_trivial == 0
