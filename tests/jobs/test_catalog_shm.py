"""The catalog's eviction / live-mmap race.

Budget eviction must never unlink an NPZ while any caller still holds the
mmap'd ``Graph`` it was handed — every dispatcher reads graphs through that
mmap: the file removal is deferred to the death of the last live
reference, and a key re-published in the meantime keeps its files.
"""

from __future__ import annotations

import gc

import numpy as np

from repro.generate.synthetic import grid_city, random_eulerian
from repro.jobs import GraphCatalog


def test_eviction_defers_unlink_while_graph_is_live(tmp_path):
    catalog = GraphCatalog(tmp_path, size_budget_bytes=1)
    g = grid_city(6, 6)
    key = catalog.put(g)
    del g  # drop put()'s reference; re-load through the mmap path
    catalog._graphs.clear()
    gc.collect()
    live = catalog.get(key)
    npz = catalog._graph_path(key)

    catalog.put(random_eulerian(40, 4, 12, seed=1))  # evicts `key`
    assert key not in catalog
    # The mmap'd file must survive as long as `live` does...
    assert npz.exists()
    assert int(live.edge_u[0]) >= 0  # pages still readable
    # ...and disappear the moment the last reference dies.
    del live
    gc.collect()
    assert not npz.exists()


def test_eviction_unlinks_immediately_when_nothing_is_live(tmp_path):
    catalog = GraphCatalog(tmp_path, size_budget_bytes=1)
    key = catalog.put(grid_city(6, 6))
    npz = catalog._graph_path(key)
    catalog._graphs.clear()
    catalog._live.clear()
    catalog.put(random_eulerian(40, 4, 12, seed=1))
    assert key not in catalog and not npz.exists()


def test_deferred_unlink_spares_republished_key(tmp_path):
    catalog = GraphCatalog(tmp_path, size_budget_bytes=1)
    g = grid_city(6, 6)
    key = catalog.put(g)
    del g
    catalog._graphs.clear()
    gc.collect()
    live = catalog.get(key)
    npz = catalog._graph_path(key)

    catalog.put(random_eulerian(40, 4, 12, seed=1))  # evicts `key`
    assert npz.exists()  # deferred: `live` still reads it

    # The same graph comes back before the old reference dies. Its files
    # must survive the stale finalizer from the earlier eviction.
    rekey = catalog.put(grid_city(6, 6), pin=True)
    assert rekey == key
    del live
    gc.collect()
    assert npz.exists()
    assert catalog.get(key).n_edges == grid_city(6, 6).n_edges


def test_evicted_graph_stays_correct_through_live_reference(tmp_path):
    """An in-flight reader sees bit-identical data across its eviction."""
    catalog = GraphCatalog(tmp_path, size_budget_bytes=1)
    g = random_eulerian(60, 5, 16, seed=3)
    key = catalog.put(g)
    edge_u, edge_v = g.edge_u.copy(), g.edge_v.copy()
    del g
    catalog._graphs.clear()
    gc.collect()
    live = catalog.get(key)
    catalog.put(grid_city(8, 8))  # evict under the live mmap
    np.testing.assert_array_equal(live.edge_u, edge_u)
    np.testing.assert_array_equal(live.edge_v, edge_v)
