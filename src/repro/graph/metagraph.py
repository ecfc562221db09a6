"""Meta-graph over partitions (paper §3.1).

The meta-graph ``G = <V, E>`` has one meta-vertex per partition and a
meta-edge ``m_ij`` wherever at least one graph edge crosses between the
boundary vertices of partitions ``i`` and ``j``; its weight ``w(m_ij)`` is
the count of such crossing edges. Phase 2 (Alg. 2) builds the merge tree by
repeated maximal matching over this small structure, so the representation
here favours clarity over raw speed — it is O(n^2) small by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import index_dtype
from .partition import PartitionedGraph

__all__ = ["MetaGraph", "build_metagraph"]


@dataclass
class MetaGraph:
    """Weighted undirected meta-graph over partition ids.

    Attributes
    ----------
    vertices:
        Sorted list of live partition ids.
    weights:
        Mapping from the canonical pair ``(min(i,j), max(i,j))`` to the
        number of undirected graph edges between the two partitions.
    """

    vertices: list[int]
    weights: dict[tuple[int, int], int] = field(default_factory=dict)

    def weight(self, i: int, j: int) -> int:
        """Weight of meta-edge ``(i, j)`` (0 if absent)."""
        key = (i, j) if i <= j else (j, i)
        return self.weights.get(key, 0)

    def edges_sorted(self) -> list[tuple[int, int, int]]:
        """Meta-edges as ``(weight, i, j)`` sorted by descending weight.

        Ties break on ascending ``(i, j)`` so the greedy matching in Alg. 2 is
        deterministic.
        """
        return sorted(
            ((w, i, j) for (i, j), w in self.weights.items()),
            key=lambda t: (-t[0], t[1], t[2]),
        )

    def merged(self, pairs: list[tuple[int, int]], parent_of: dict[int, int]) -> "MetaGraph":
        """Meta-graph after contracting each matched pair into its parent.

        This is Alg. 2's ``rebuildMetaGraph``: every vertex maps through
        ``parent_of`` (vertices not matched this level map to themselves) and
        parallel meta-edges accumulate their weights; self-edges (now-internal
        weight) are dropped.
        """
        remap = {v: parent_of.get(v, v) for v in self.vertices}
        new_vertices = sorted(set(remap.values()))
        new_weights: dict[tuple[int, int], int] = {}
        for (i, j), w in self.weights.items():
            a, b = remap[i], remap[j]
            if a == b:
                continue
            key = (a, b) if a <= b else (b, a)
            new_weights[key] = new_weights.get(key, 0) + w
        return MetaGraph(new_vertices, new_weights)


def build_metagraph(pg: PartitionedGraph) -> MetaGraph:
    """Construct the meta-graph of a partitioned graph (vectorized).

    The weight of ``(i, j)`` counts *undirected* cut edges between the
    partitions, matching ``w(m_ij)`` in §3.1: one ``bincount`` of the cut
    edges' ordered pair codes at the graph's index width, folded onto
    ``i < j``.
    """
    k = pg.n_parts
    cut = ~pg.local_mask
    pu, pv = pg.endpoint_parts()
    width = index_dtype(max(pg.graph.n_vertices, k * k), pg.graph.n_edges)
    code = pu[cut].astype(width) * k
    code += pv[cut]
    ordered = np.bincount(code, minlength=k * k).reshape(k, k)
    pairs = ordered + ordered.T
    lo, hi = np.nonzero(np.triu(pairs, 1))
    weights = {(i, j): int(pairs[i, j])
               for i, j in zip(lo.tolist(), hi.tolist())}
    return MetaGraph(list(range(k)), weights)
