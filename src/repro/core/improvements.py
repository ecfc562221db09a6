"""Section-5 memory heuristics: remote-edge dedup and deferred transfer.

The paper identifies remote edges as the memory bottleneck (they accumulate
up the merge tree, Fig. 9) and proposes two mitigations it analyzes but does
not implement. We implement both as runtime *strategies* so the Fig. 8
benchmark can report measured (not only modeled) state:

* **avoid remote-edge duplication** (``dedup``) — of the two directed copies
  of a cut edge, only the partition whose group is *lighter* (fewer
  cumulative remote half-edges; the paper drops from the heavier one) keeps
  a copy; the pair of internal directed edges is reconstituted when the two
  groups merge. Halves the cumulative remote-edge state.
* **defer transfer of remote edges** (``deferred``) — remote edges that will
  only become local at a higher merge level stay on the *leaf machine* that
  loaded them (:class:`DeferredStore` models those machines' memory) and are
  shipped to the active ancestor just before the Phase-1 run that consumes
  them.

``STRATEGIES`` lists the valid driver settings; ``proposed`` means
``dedup + deferred``, the paper's combined proposal.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..graph.graph import index_dtype
from ..graph.partition import PartitionedGraph
from .merge_tree import MergeTree

__all__ = [
    "STRATEGIES",
    "strategy_flags",
    "RemotePlacement",
    "DeferredStore",
    "plan_remote_placement",
]

#: Valid merge strategies for the driver.
STRATEGIES = ("eager", "dedup", "deferred", "proposed")


def strategy_flags(strategy: str) -> tuple[bool, bool]:
    """Map a strategy name to ``(dedup_enabled, deferred_enabled)``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    return (
        strategy in ("dedup", "proposed"),
        strategy in ("deferred", "proposed"),
    )


@dataclass
class RemotePlacement:
    """Which partition holds which remote half-edges at load time.

    ``rows_for[pid]`` is a ``(k, 4)`` array of half-edges ``(src, dst, eid,
    dst_pid)`` placed in partition ``pid``'s memory, and
    ``merge_level_by_eid`` maps each cut eid to the level at whose end the
    two incident groups merge (from the static merge tree), which the
    deferred strategy keys shipments on — a dense ``(n_edges,)`` column, −1
    for non-cut edges, so planning code fancy-indexes held rows' eid column
    instead of looping a dict. Both are stored at the run's index width
    (:func:`~repro.graph.graph.index_dtype` of the graph): ``int32``
    whenever the graph's ids fit.
    """

    rows_for: dict[int, np.ndarray]
    merge_level_by_eid: np.ndarray


def plan_remote_placement(
    pg: PartitionedGraph, tree: MergeTree, dedup: bool
) -> RemotePlacement:
    """Decide, at graph-loading time, where each remote half-edge lives.

    Without ``dedup`` each partition holds the half-edge whose source lies in
    it (the paper's current approach: both directions held, one per side).
    With ``dedup`` only one side holds it: the side whose partition carries
    fewer cumulative remote half-edges ("we select the partition that is
    heavier among the pair ... as the one to drop its remote edges", §5).
    """
    graph, k = pg.graph, pg.n_parts
    u, v = graph.edge_u, graph.edge_v
    width = index_dtype(graph.n_vertices, graph.n_edges)
    # Every per-edge table below is a mask, a column of the endpoints'
    # parts (one byte up to 255 parts) or an output: no cut-sized int64
    # column is built.
    pu, pv = pg.endpoint_parts()

    # Merge level of every edge from the leaf-pair table of the static tree
    # (one fancy index), -1 for the local ones.
    merge_level_by_eid = tree.merge_levels(width)[pu, pv]
    merge_level_by_eid[pg.local_mask] = -1

    if dedup:
        # "Heavier" = more cumulative remote half-edges under eager
        # placement; the lighter side holds, ties break toward the smaller
        # pid. Decided once per partition pair, then looked up per edge.
        cut = ~pg.local_mask
        weight = np.bincount(pu[cut], minlength=k) + np.bincount(pv[cut], minlength=k)
        del cut
        ids = np.arange(k)
        a_wins = ((weight[:, None] < weight)
                  | ((weight[:, None] == weight) & (ids[:, None] <= ids)))
        a_holds = a_wins[pu, pv]
        # Each cut edge's holding partition; local edges get k, no pid.
        holder = np.where(a_holds, pu, pv)
        holder[pg.local_mask] = k

    # Each partition's rows straight from its own cut eids: a cut edge's
    # two sides lie in different partitions, so a partition holds each eid
    # at most once (eager: the side it is on; dedup: the side it owns), and
    # its eids come out ascending. Columns are (src, dst, eid, dst_pid)
    # seen from the holding side, written in place, so the largest
    # temporary is one of the partition's own columns.
    rows_for = {}
    for pid in range(k):
        if dedup:
            eids = np.flatnonzero(holder == pid)
            flip = np.flatnonzero(~a_holds[eids])
        else:
            # Exactly one endpoint in pid: a cut edge on pid's boundary.
            eids = np.flatnonzero((pu == pid) != (pv == pid))
            flip = np.flatnonzero(pu[eids] != pid)
        rows = np.empty((eids.size, 4), dtype=width)
        rows[:, 0] = u[eids]
        rows[:, 1] = v[eids]
        rows[:, 2] = eids
        rows[:, 3] = pv[eids]
        # Rows held on the v side: swap the endpoints, far side is u's.
        rows[flip, 0], rows[flip, 1] = rows[flip, 1], rows[flip, 0]
        rows[flip, 3] = pu[eids[flip]]
        rows_for[pid] = rows
    return RemotePlacement(
        rows_for=rows_for,
        merge_level_by_eid=merge_level_by_eid,
    )


class DeferredStore:
    """The leaf machines' memory under the deferred-transfer strategy.

    Holds, per *original* leaf partition, the remote half-edge rows bucketed
    by the merge level at which they become local. The driver *ships* a
    bucket to the active ancestor just before the ancestor's Phase-1 run at
    ``level + 1``; shipped buckets leave the store, mirroring the freed leaf
    memory. :meth:`resident_longs` reports the Longs the leaves still hold
    (counted separately from active-partition state, as in the paper's
    Fig. 8 analysis, which plots the *active* partitions' state).
    """

    def __init__(self) -> None:
        self._buckets: dict[int, dict[int, list[np.ndarray]]] = defaultdict(dict)

    def deposit(self, leaf_pid: int, level: int, rows: np.ndarray) -> None:
        """Store rows on ``leaf_pid``'s machine for shipment after ``level``."""
        if rows.size == 0:
            return
        self._buckets[leaf_pid].setdefault(level, []).append(rows)

    def ship(self, leaf_pids, level: int) -> np.ndarray:
        """Remove and return all rows on the given leaves due at ``level``."""
        out: list[np.ndarray] = []
        for pid in leaf_pids:
            buckets = self._buckets.get(pid)
            if buckets and level in buckets:
                out.extend(buckets.pop(level))
        if not out:
            return np.empty((0, 4), dtype=np.int64)
        return np.concatenate(out, axis=0)

    def resident_longs(self, longs_per_row: int = 2) -> int:
        """Longs still parked on leaf machines (2 per half-edge by default)."""
        total = 0
        for buckets in self._buckets.values():
            for chunks in buckets.values():
                total += sum(c.shape[0] for c in chunks)
        return total * longs_per_row
