"""Structural graph properties: parity, connectivity, Eulerian-ness.

These implement the classical facts the paper leans on (§3.1): a connected
graph has an Euler circuit iff every vertex has even degree [Euler 1741], and
every graph has an even number of odd-degree vertices (Handshaking Lemma).
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..errors import DisconnectedGraphError, NotEulerianError
from .graph import Graph
from .traversal import _ranges

__all__ = [
    "odd_vertices",
    "all_even_degrees",
    "connected_components",
    "n_edge_components",
    "is_connected",
    "is_eulerian",
    "check_eulerian",
    "euler_path_endpoints",
]


def odd_vertices(graph: Graph) -> np.ndarray:
    """Vertex ids whose undirected degree is odd (always an even count)."""
    deg = graph.degrees()
    return np.flatnonzero(deg % 2 == 1)


def all_even_degrees(graph: Graph) -> bool:
    """True iff every vertex has even degree."""
    return bool(np.all(graph.degrees() % 2 == 0))


def connected_components(graph: Graph) -> np.ndarray:
    """Label vertices by connected component.

    Returns an ``int64`` array ``comp`` with ``comp[v]`` in ``[0, k)`` for
    ``k`` components, numbered in the order of their smallest vertex. The
    kernel library's union-find (``components.c``) reads the edge arrays
    and holds only the labels; without a compiler,
    :func:`_components_reference` gives the same labels.
    """
    native = kernels.load()
    if native is None:
        return _components_reference(graph)
    return native.components(graph.n_vertices,
                             np.ascontiguousarray(graph.edge_u),
                             np.ascontiguousarray(graph.edge_v))[0]


def _components_reference(graph: Graph) -> np.ndarray:
    """:func:`connected_components` as an iterative frontier BFS over the
    CSR arrays, NumPy-vectorized per frontier: the reference the kernel
    must match."""
    n = graph.n_vertices
    comp = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return comp
    offsets, targets, _ = graph.csr
    label = 0
    for seed in range(n):
        if comp[seed] != -1:
            continue
        comp[seed] = label
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            # Gather all neighbours of the frontier in one shot.
            starts = offsets[frontier]
            ends = offsets[frontier + 1]
            counts = ends - starts
            total = int(counts.sum())
            if total == 0:
                break
            # Build the index array for the concatenated neighbour slices.
            idx = np.repeat(starts, counts) + _ranges(counts)
            neigh = targets[idx]
            new = neigh[comp[neigh] == -1]
            if new.size == 0:
                break
            new = np.unique(new)
            comp[new] = label
            frontier = new
        label += 1
    return comp


def n_edge_components(graph: Graph) -> int:
    """Number of connected components that contain at least one edge.

    Counts the distinct labels of the edge-bearing vertices (positive
    degree): O(n) beside the labels.
    """
    if graph.n_edges == 0:
        return 0
    edge_bearing = graph.degrees() > 0
    comp = connected_components(graph)
    return int(np.count_nonzero(np.bincount(comp[edge_bearing])))


def is_connected(graph: Graph, ignore_isolated: bool = True) -> bool:
    """True iff the graph is connected.

    With ``ignore_isolated`` (the default, and what Eulerian-ness needs),
    vertices of degree zero are not counted against connectivity.
    """
    if graph.n_vertices == 0:
        return True
    comp = connected_components(graph)
    if not ignore_isolated:
        return int(comp.max()) == 0
    if graph.n_edges == 0:
        return True
    return n_edge_components(graph) <= 1


def is_eulerian(graph: Graph) -> bool:
    """True iff the graph has an Euler circuit.

    Requires every vertex to have even degree and all edges to lie in one
    connected component (isolated vertices are permitted).
    """
    if graph.n_edges == 0:
        return True
    return all_even_degrees(graph) and n_edge_components(graph) == 1


def check_eulerian(graph: Graph) -> None:
    """Raise a descriptive error if the graph has no Euler circuit.

    Degrees come from the endpoint arrays and components from the
    union-find kernel, so the check builds no CSR and holds O(n) scratch.

    Raises
    ------
    NotEulerianError
        If some vertex has odd degree (carries a sample of the offenders).
    DisconnectedGraphError
        If the edges span multiple components.
    """
    odd = odd_vertices(graph)
    if odd.size:
        raise NotEulerianError(
            f"graph is not Eulerian: {odd.size} vertices have odd degree "
            f"(e.g. {odd[:8].tolist()})",
            odd_vertices=odd[:64].tolist(),
        )
    k = n_edge_components(graph)
    if k > 1:
        raise DisconnectedGraphError(
            f"graph edges span {k} connected components; an Euler circuit "
            "requires one (use repro.generate.eulerize or extract the "
            "largest component)",
            num_components=k,
        )


def euler_path_endpoints(graph: Graph) -> tuple[int, int] | None:
    """If the graph has an Euler *path* but not a circuit, return its endpoints.

    Returns the pair of odd-degree vertices when exactly two exist and the
    edges are connected; ``None`` when the graph is Eulerian (circuit exists)
    or has no Euler path at all.
    """
    odd = odd_vertices(graph)
    if odd.size != 2:
        return None
    if n_edge_components(graph) != 1:
        return None
    return int(odd[0]), int(odd[1])
