"""Linear Deterministic Greedy (LDG) streaming partitioner.

Stanton & Kliot's LDG heuristic (KDD 2012): stream vertices in some order and
place each on the partition holding most of its already-placed neighbours,
damped by a load penalty ``(1 - |P_k| / C)`` with capacity
``C = n_vertices / n_parts * (1 + slack)``. One streaming pass gives edge
cuts far below hash partitioning at near-perfect balance — a reasonable
single-machine stand-in for ParHIP [34], which the paper uses offline.

A BFS vertex order (default) substantially improves locality over the natural
id order because neighbours tend to be placed while their cluster is still
"open".

Both the BFS order and the streaming pass run in the kernel library
(``setup.c``) over the graph's index-width CSR; the NumPy versions here
are the no-compiler fallback and the reference the kernels must match,
map for map, so persisted partition maps stay valid.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .. import kernels
from ..graph.graph import Graph
from ..graph.partition import PartitionedGraph

__all__ = ["ldg_partition", "bfs_order"]


def bfs_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """A BFS visitation order over all vertices (restarting per component).

    Deterministic for a given graph and seed; the seed picks the restart
    vertex preference (vertices are tried in a seeded shuffle order).
    Runs in the kernel library (``setup.c``), or in
    :func:`_bfs_order_reference` without a compiler.
    """
    offsets, targets, _ = graph.csr
    starts = np.random.default_rng(seed).permutation(graph.n_vertices)
    native = kernels.load()
    if native is None:
        return _bfs_order_reference(offsets, targets, starts)
    return native.bfs_order(offsets, targets, starts)


def _bfs_order_reference(offsets, targets, starts) -> np.ndarray:
    """:func:`bfs_order` with a deque: the reference ``setup.c`` must match."""
    n = starts.size
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for s in starts:
        if seen[s]:
            continue
        seen[s] = True
        dq = deque([int(s)])
        while dq:
            x = dq.popleft()
            order[pos] = x
            pos += 1
            for t in targets[offsets[x] : offsets[x + 1]]:
                if not seen[t]:
                    seen[t] = True
                    dq.append(int(t))
    assert pos == n
    return order


def ldg_partition(
    graph: Graph,
    n_parts: int,
    slack: float = 0.05,
    order: np.ndarray | str = "bfs",
    seed: int = 0,
) -> PartitionedGraph:
    """Partition vertices with the LDG streaming heuristic.

    Parameters
    ----------
    graph:
        Input graph.
    n_parts:
        Number of partitions.
    slack:
        Capacity slack fraction; partitions hold at most
        ``ceil(n/n_parts * (1+slack))`` vertices.
    order:
        ``"bfs"`` (default), ``"natural"``, ``"random"``, or an explicit
        vertex-order array.
    seed:
        Seed for the BFS/random order.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    n = graph.n_vertices
    if isinstance(order, str):
        if order == "bfs":
            order_arr = bfs_order(graph, seed=seed)
        elif order == "natural":
            order_arr = np.arange(n, dtype=np.int64)
        elif order == "random":
            order_arr = np.random.default_rng(seed).permutation(n).astype(np.int64)
        else:
            raise ValueError(f"unknown order {order!r}")
    else:
        order_arr = np.asarray(order, dtype=np.int64)
        if sorted(order_arr.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of all vertices")

    capacity = int(np.ceil(n / n_parts * (1.0 + slack))) if n else 0
    offsets, targets, _ = graph.csr
    native = kernels.load()
    if native is None:
        part = _ldg_reference(offsets, targets, order_arr, n_parts, capacity)
    else:
        part = native.ldg(offsets, targets, np.ascontiguousarray(order_arr),
                          n_parts, capacity)
    return PartitionedGraph(graph, part, n_parts)


def _ldg_reference(offsets, targets, order, n_parts: int,
                   capacity: int) -> np.ndarray:
    """LDG's streaming pass in NumPy: the reference ``setup.c`` must match.

    A vertex goes to the part with the highest float64 score
    ``count * (1 - load / capacity)`` over its placed neighbours; full
    parts score -inf, ties go to the first maximum, and when every part
    is full the least-loaded part wins.
    """
    part = np.full(offsets.size - 1, -1, dtype=np.int64)
    load = np.zeros(n_parts, dtype=np.int64)
    for v in order:
        neigh = targets[offsets[v] : offsets[v + 1]]
        placed = part[neigh]
        scores = np.zeros(n_parts, dtype=np.float64)
        if placed.size:
            counted = placed[placed >= 0]
            if counted.size:
                scores += np.bincount(counted, minlength=n_parts)
        scores *= 1.0 - load / capacity if capacity else 0.0
        scores[load >= capacity] = -np.inf
        best = int(np.argmax(scores))
        # argmax of all -inf (shouldn't happen given slack>=0) -> least loaded
        if not np.isfinite(scores[best]):
            best = int(np.argmin(load))
        part[v] = best
        load[best] += 1
    return part
