"""BFS traversal utilities: distances, shortest paths, multi-source BFS.

Substrate for the Chinese-Postman extension (pairing odd vertices by
shortest deadhead routes) and for partition refinement. Unweighted BFS only
— the paper's graphs are unweighted, and hop distance is the natural
deadheading cost on them.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["bfs_distances", "shortest_path", "bfs_tree", "tree_path",
           "eccentricity_sample"]


def bfs_distances(
    graph: Graph,
    source: int,
    cutoff: int | None = None,
    stop: np.ndarray | None = None,
    return_parents: bool = False,
):
    """Hop distance from ``source`` to every vertex (-1 if unreachable).

    One vectorized pass per BFS level. ``cutoff`` stops the search beyond
    that distance (entries stay -1); ``stop`` (a boolean vertex mask) ends
    it after the first level that reaches a marked vertex. With
    ``return_parents`` the call returns ``(dist, parent, parent_edge)``:
    each reached vertex's parent is the first vertex of the previous level
    — in discovery order, scanning CSR rows in CSR order — with an edge to
    it, exactly what a FIFO-queue BFS assigns (-1 at the source and where
    unreached).
    """
    n = graph.n_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range")
    offsets, targets, eids = graph.csr
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    if return_parents:
        parent = np.full(n, -1, dtype=np.int64)
        parent_edge = np.full(n, -1, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        if cutoff is not None and d >= cutoff:
            break
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        idx = np.repeat(starts, counts) + _ranges(counts)
        fresh = np.flatnonzero(dist[targets[idx]] == -1)
        # First sighting of each new vertex, in frontier order x CSR
        # order: the order a FIFO queue discovers (and parents) them.
        new, first = np.unique(targets[idx[fresh]], return_index=True)
        if new.size == 0:
            break
        order = np.argsort(first)
        new, hit = new[order], fresh[first[order]]
        d += 1
        dist[new] = d
        if return_parents:
            parent[new] = np.repeat(frontier, counts)[hit]
            parent_edge[new] = eids[idx[hit]]
        frontier = new
        if stop is not None and stop[new].any():
            break
    if return_parents:
        return dist, parent, parent_edge
    return dist


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each c in counts (vectorized)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(ends - counts, counts)
    return out


def bfs_tree(graph: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS parent pointers from ``source``.

    Returns ``(parent_vertex, parent_edge)`` arrays (-1 where unreachable or
    at the source); ``parent_edge[v]`` is the edge id used to first reach
    ``v`` (see :func:`bfs_distances`).
    """
    _, parent, parent_edge = bfs_distances(graph, source, return_parents=True)
    return parent, parent_edge


def tree_path(parent: np.ndarray, parent_edge: np.ndarray,
              target: int) -> tuple[list[int], list[int]]:
    """The BFS-tree path from the root to ``target`` as ``(vertices,
    edge_ids)`` — ``vertices`` has one more entry than ``edge_ids``."""
    verts = [int(target)]
    eids: list[int] = []
    while parent[verts[-1]] != -1:
        eids.append(int(parent_edge[verts[-1]]))
        verts.append(int(parent[verts[-1]]))
    verts.reverse()
    eids.reverse()
    return verts, eids


def shortest_path(graph: Graph, source: int, target: int) -> tuple[list[int], list[int]]:
    """One shortest (hop-count) path as ``(vertices, edge_ids)``.

    Raises ``ValueError`` if ``target`` is unreachable. ``vertices`` has one
    more entry than ``edge_ids``; a source==target query returns
    ``([source], [])``. The search stops at ``target``'s level; the path is
    the one :func:`bfs_tree` gives.
    """
    if source == target:
        return [source], []
    stop = np.zeros(graph.n_vertices, dtype=bool)
    stop[target] = True
    dist, parent, parent_edge = bfs_distances(graph, source, stop=stop,
                                              return_parents=True)
    if dist[target] == -1:
        raise ValueError(f"no path from {source} to {target}")
    return tree_path(parent, parent_edge, target)


def eccentricity_sample(graph: Graph, seeds, cutoff: int | None = None) -> int:
    """Max BFS depth over a sample of seed vertices (diameter lower bound)."""
    best = 0
    for s in seeds:
        dist = bfs_distances(graph, int(s), cutoff=cutoff)
        reached = dist[dist >= 0]
        if reached.size:
            best = max(best, int(reached.max()))
    return best
