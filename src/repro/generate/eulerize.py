"""Eulerizer: make a graph Eulerian by pairing odd-degree vertices (§4.2).

The paper: *"we develop a custom tool to add additional edges between
vertices that have an odd degree, to make the graph Eulerian. The tool
ensures that the edge degree distribution of the modified graph closely
matches the original graph ... In practice, the extra edges added is ~5%."*

We reproduce that construction: every odd-degree vertex receives exactly one
extra edge to another odd-degree vertex (the Handshaking Lemma guarantees an
even count of them), which bumps each affected degree by one — the smallest
possible perturbation of the distribution. Random pairing is retried a few
times per pair to avoid self loops and duplicate edges; a duplicate
(parallel) edge is accepted as a last resort since the core algorithm
tolerates multigraphs and parity is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.graph import Graph
from ..graph.properties import connected_components, odd_vertices

__all__ = [
    "EulerizeInfo",
    "largest_component",
    "eulerize",
    "eulerian_rmat",
    "open_path_variant",
]


def open_path_variant(graph: Graph) -> Graph:
    """Drop one non-loop edge from an Eulerian graph: an Euler-*path* input.

    The removed edge's endpoints become the only two odd-degree vertices,
    and an Eulerian graph cannot be disconnected by one edge removal (every
    edge lies on a cycle) — so the result has an open Euler path. Raises
    ``ValueError`` if every edge is a self loop (nothing to open).
    """
    non_loop = np.flatnonzero(graph.edge_u != graph.edge_v)
    if non_loop.size == 0:
        raise ValueError("graph has no non-loop edge to drop")
    drop = int(non_loop[0])
    keep = np.concatenate(
        [np.arange(drop), np.arange(drop + 1, graph.n_edges)]
    )
    return graph.subgraph_edges(keep)


@dataclass(frozen=True)
class EulerizeInfo:
    """Bookkeeping from :func:`eulerize` (feeds the Fig. 4 benchmark)."""

    #: Number of odd-degree vertices that were fixed up.
    n_odd: int
    #: Number of edges added.
    n_added: int
    #: Added edges as a fraction of the original edge count (paper: ~5%).
    added_fraction: float
    #: How many added edges duplicate an existing one (kept parallel).
    n_parallel: int


class _EdgeKeys:
    """The set of ``(lo, hi)`` edge keys that pairing must not duplicate.

    It starts as the input's edges and acts as one Python set of tuples
    under ``in``, ``add`` and ``discard``, but the input's keys live in one
    sorted array of ``lo * n + hi`` codes (8 B per edge, against ~280 B per
    edge for a set of tuples). Keys added or discarded later go in two small
    sets, so discarding an input edge's key hides that edge from then on,
    exactly as removing it from the one set would.
    """

    def __init__(self, graph: Graph):
        self._n = graph.n_vertices
        lo = np.minimum(graph.edge_u, graph.edge_v)
        hi = np.maximum(graph.edge_u, graph.edge_v)
        self._input = np.unique(lo * self._n + hi)
        self._added: set[int] = set()
        self._discarded: set[int] = set()

    def __contains__(self, key: tuple[int, int]) -> bool:
        code = key[0] * self._n + key[1]
        if code in self._added:
            return True
        if code in self._discarded:
            return False
        i = int(np.searchsorted(self._input, code))
        return i < self._input.size and int(self._input[i]) == code

    def add(self, key: tuple[int, int]) -> None:
        code = key[0] * self._n + key[1]
        self._added.add(code)
        self._discarded.discard(code)

    def discard(self, key: tuple[int, int]) -> None:
        code = key[0] * self._n + key[1]
        self._added.discard(code)
        self._discarded.add(code)


def largest_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Extract the largest connected component, compactly relabelled.

    Returns the component subgraph and the array of original vertex labels
    (``labels[new_id] == original_id``). Isolated vertices outside the
    component are dropped. If the graph has no edges the graph is returned
    unchanged with identity labels.
    """
    if graph.n_edges == 0:
        return graph, np.arange(graph.n_vertices, dtype=np.int64)
    comp = connected_components(graph)
    # Largest by vertex count among edge-bearing components.
    edge_comps = comp[graph.edge_u]
    counts = np.bincount(comp)
    candidates = np.unique(edge_comps)
    best = candidates[np.argmax(counts[candidates])]
    keep = np.flatnonzero(comp == best)
    remap = np.full(graph.n_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size, dtype=np.int64)
    mask = comp[graph.edge_u] == best
    return Graph(keep.size, remap[graph.edge_u[mask]], remap[graph.edge_v[mask]]), keep


def eulerize(
    graph: Graph,
    seed: int | np.random.Generator = 0,
    max_retries: int = 16,
) -> tuple[Graph, EulerizeInfo]:
    """Return an Eulerian-degree version of ``graph`` plus bookkeeping.

    Pairs the odd-degree vertices uniformly at random and adds one edge per
    pair. Pairs that would form a self loop or duplicate an existing edge are
    re-drawn up to ``max_retries`` times (by re-shuffling the still-unmatched
    tail); any remainder accepts parallel edges.

    Note this fixes *parity* only — connectivity is the caller's concern
    (see :func:`largest_component` / :func:`eulerian_rmat`).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    odd = odd_vertices(graph)
    if odd.size == 0:
        return graph, EulerizeInfo(0, 0, 0.0, 0)
    assert odd.size % 2 == 0, "Handshaking Lemma violated (library bug)"

    existing = _EdgeKeys(graph)
    pool = odd.copy()
    rng.shuffle(pool)
    accepted: list[tuple[int, int]] = []
    n_parallel = 0

    def _try_swap_repair(a: int, b: int) -> bool:
        """Fix a conflicted pair (a, b) by 2-swapping with an accepted pair:
        replace (c, d) with (a, c) and (b, d) when both are fresh."""
        probe = rng.permutation(len(accepted))[:64] if accepted else []
        for idx in probe:
            c, d = accepted[idx]
            for x, y in (((a, c), (b, d)), ((a, d), (b, c))):
                k1 = (min(x), max(x))
                k2 = (min(y), max(y))
                if (
                    x[0] != x[1]
                    and y[0] != y[1]
                    and k1 not in existing
                    and k2 not in existing
                    and k1 != k2
                ):
                    existing.discard((min(c, d), max(c, d)))
                    accepted[idx] = k1
                    accepted.append(k2)
                    existing.add(k1)
                    existing.add(k2)
                    return True
        return False

    for attempt in range(max_retries + 1):
        rejected: list[int] = []
        last_round = attempt == max_retries
        for k in range(0, pool.size - 1, 2):
            a, b = int(pool[k]), int(pool[k + 1])
            key = (a, b) if a <= b else (b, a)
            dup = key in existing
            if a != b and not dup:
                accepted.append(key)
                existing.add(key)
            elif last_round:
                if a != b and _try_swap_repair(a, b):
                    continue
                # Self-pairings cannot occur (pool entries are distinct odd
                # vertices, each exactly once), so a != b here; accept the
                # parallel edge — parity is what matters.
                accepted.append(key)
                existing.add(key)
                n_parallel += 1
            else:
                rejected.extend((a, b))
        if not rejected:
            break
        pool = np.array(rejected, dtype=np.int64)
        rng.shuffle(pool)
    extra = np.array(accepted, dtype=np.int64).reshape(-1, 2)
    out = graph.with_extra_edges(extra[:, 0], extra[:, 1])
    info = EulerizeInfo(
        n_odd=int(odd.size),
        n_added=len(accepted),
        added_fraction=len(accepted) / graph.n_edges if graph.n_edges else 0.0,
        n_parallel=n_parallel,
    )
    return out, info


def eulerian_rmat(
    scale: int,
    avg_degree: float = 5.0,
    seed: int = 0,
) -> tuple[Graph, EulerizeInfo]:
    """End-to-end §4.2 workload: R-MAT → largest component → eulerize.

    Returns a connected Eulerian graph and the eulerization bookkeeping.
    """
    from .rmat import rmat_graph  # local import avoids a cycle at package init

    g = rmat_graph(scale, avg_degree=avg_degree, seed=seed)
    g, _ = largest_component(g)
    return eulerize(g, seed=seed + 1)
