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
    u = pg.graph.edge_u
    v = pg.graph.edge_v
    width = index_dtype(pg.graph.n_vertices, pg.graph.n_edges)
    cut_eids = np.flatnonzero(~pg.local_mask)
    pu = pg.part_of[u[cut_eids]] if cut_eids.size else np.empty(0, np.int64)
    pv = pg.part_of[v[cut_eids]] if cut_eids.size else np.empty(0, np.int64)

    # Merge level per cut edge, computed once per *partition pair* (at most
    # n_parts^2, versus one tree walk per cut edge) and broadcast back.
    pair_keys, pair_inverse = np.unique(pu * pg.n_parts + pv, return_inverse=True)
    pair_levels = np.fromiter(
        (
            tree.merge_level_of(int(k) // pg.n_parts, int(k) % pg.n_parts)
            for k in pair_keys
        ),
        dtype=np.int64,
        count=pair_keys.size,
    )
    merge_level_by_eid = np.full(pg.graph.n_edges, -1, dtype=width)
    if cut_eids.size:
        merge_level_by_eid[cut_eids] = pair_levels[pair_inverse]
    del pair_inverse

    cu = u[cut_eids]
    cv = v[cut_eids]
    if dedup:
        # "Heavier" = more cumulative remote half-edges under eager
        # placement; the lighter side holds, ties break toward the smaller
        # pid.
        weight = np.zeros(pg.n_parts, dtype=np.int64)
        np.add.at(weight, pu, 1)
        np.add.at(weight, pv, 1)
        wa, wb = weight[pu], weight[pv]
        a_holds = (wa < wb) | ((wa == wb) & (pu <= pv))
        owners = np.where(a_holds, pu, pv)
        del wa, wb

    # Each partition's rows straight from its own cut positions: a cut
    # edge's two sides lie in different partitions, so a partition holds
    # each eid at most once (eager: the side it is on; dedup: the side it
    # owns), and its positions already ascend by eid. Columns are (src,
    # dst, eid, dst_pid) seen from the holding side, built one partition at
    # a time so the only cut-sized temporary is a mask.
    rows_for = {}
    for pid in range(pg.n_parts):
        if dedup:
            pos = np.flatnonzero(owners == pid)
            u_side = a_holds[pos]
        else:
            on_u = pu == pid
            pos = np.flatnonzero(on_u | (pv == pid))
            u_side = on_u[pos]
            del on_u
        rows = np.empty((pos.size, 4), dtype=width)
        a, b = cu[pos], cv[pos]
        rows[:, 0] = np.where(u_side, a, b)
        rows[:, 1] = np.where(u_side, b, a)
        rows[:, 2] = cut_eids[pos]
        rows[:, 3] = np.where(u_side, pv[pos], pu[pos])
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
