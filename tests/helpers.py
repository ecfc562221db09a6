"""Shared, importable test helpers (no fixtures — those live in conftest.py).

Kept separate from ``conftest.py`` because pytest injects conftests outside
the normal import system; parametrizing tests with suite data requires a
plainly importable module (``from tests.helpers import make_eulerian_suite``).
"""

from __future__ import annotations

import numpy as np

from repro.core.pathmap import (
    _KINDS,
    FORWARD_SHIFT,
    FragmentBlock,
    FragmentStore,
    make_fid,
)
from repro.generate.synthetic import (
    cycle_graph,
    grid_city,
    paper_figure1_graph,
    random_eulerian,
    ring_of_cliques,
)
from repro.graph.graph import Graph

__all__ = [
    "make_eulerian_suite",
    "edges_of",
    "rdeg_of",
    "store_of",
    "item",
    "fragment_census",
]


def make_eulerian_suite() -> list[tuple[str, Graph]]:
    """A named collection of connected Eulerian graphs for end-to-end tests."""
    suite = [
        ("fig1", paper_figure1_graph()[0]),
        ("triangle", Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])),
        ("cycle12", cycle_graph(12)),
        ("grid6", grid_city(6, 6)),
        ("cliques", ring_of_cliques(3, 5)),
    ]
    for seed in range(4):
        suite.append((f"rand{seed}", random_eulerian(50, 4, 16, seed=seed)))
    return suite


def edges_of(rows) -> np.ndarray:
    """An ``int64 (m, 4)`` EdgeTable from ``(u, v, kind, ref)`` rows."""
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def rdeg_of(degrees: dict) -> np.ndarray:
    """A canonical ``int64 (r, 2)`` remote-degree table from ``{vertex:
    degree}``: rows with degree <= 0 dropped, sorted by vertex."""
    return np.array(sorted((v, d) for v, d in degrees.items() if d > 0),
                    dtype=np.int64).reshape(-1, 2)


def item(ref: int, dst: int, forward: int = 1) -> tuple[int, int]:
    """One ItemArray row ``(ref | forward << 62, dst)``: an edge when
    ``ref`` is an eid, a fragment when it is a fid."""
    return (ref | forward << FORWARD_SHIFT, dst)


def store_of(*fragments, spill_dir=None) -> tuple[FragmentStore, list[int]]:
    """A store holding hand-written fragments as Phase-1 blocks.

    Each fragment is ``(kind, level, pid, src, dst, rows, n_edges)`` with
    ItemArray ``rows`` as :func:`item` writes them. Fragments sharing a
    ``(level, pid)`` share that run's block, in argument order, so each
    gets fid ``make_fid(level, pid, seq)``; every block is registered with
    ``add_block``. Returns the store and the fids in argument order.
    """
    runs: dict[tuple[int, int], list] = {}
    fids = []
    for frag in fragments:
        run = runs.setdefault((frag[1], frag[2]), [])
        fids.append(make_fid(frag[1], frag[2], len(run)))
        run.append(frag)
    store = FragmentStore(spill_dir=spill_dir)
    for (level, pid), run in runs.items():
        kinds, _, _, srcs, dsts, bodies, n_edges = zip(*run)
        bodies = [np.array(b, dtype=np.int64).reshape(-1, 2) for b in bodies]
        bounds = np.cumsum([0] + [len(b) for b in bodies], dtype=np.int64)
        store.add_block(FragmentBlock(
            level, pid, np.concatenate(bodies),
            np.array([_KINDS.index(k) for k in kinds], dtype=np.int8),
            np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64),
            np.array(n_edges, dtype=np.int64), bounds,
        ))
    return store, fids


def fragment_census(store: FragmentStore, bodies: bool = False) -> list[tuple]:
    """``(fid, kind, level, pid, src, dst, n_edges)`` per fragment, in fid
    order, read from the store's columns: the rows the golden census
    digests. With ``bodies`` each row also carries its ItemArray bytes."""
    cols = store.columns()
    rows = zip(*(cols[name].tolist() for name in
                 ("fid", "kind", "level", "pid", "src", "dst", "n_edges")))
    census = [(fid, _KINDS[kind], *rest) for fid, kind, *rest in rows]
    if bodies:
        census = [row + (store.body(row[0])[0].tobytes(),) for row in census]
    return census
