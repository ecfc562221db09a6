"""Partitioned-graph model: ``P_i = <I_i, B_i, L_i, R_i>`` (paper §3.1).

A :class:`PartitionedGraph` couples a :class:`~repro.graph.graph.Graph` with
a vertex→partition map and derives, per partition:

* ``I`` — internal vertices (all incident edges local),
* ``B`` — boundary vertices (at least one remote edge),
* ``L`` — local edges (both endpoints in the partition),
* ``R`` — remote half-edges (one endpoint in the partition).

Boundary vertices are further classified by *local-degree parity* into
odd-degree (OB) and even-degree (EB) boundary vertices, the distinction that
drives Phase 1 (§3.1–3.2). Everything is computed vectorized from the edge
arrays; a per-partition :class:`PartitionView` carries NumPy index arrays,
never Python sets, so Table-1 style statistics are cheap at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError
from .graph import Graph

__all__ = ["PartitionView", "PartitionedGraph", "partition_stats"]

# Vertex-kind codes used in census arrays (Fig. 9 vocabulary).
KIND_INTERNAL = 0
KIND_EB = 1  # even-degree boundary vertex
KIND_OB = 2  # odd-degree boundary vertex


@dataclass(frozen=True)
class PartitionView:
    """Immutable per-partition slice of a :class:`PartitionedGraph`.

    Attributes mirror the paper's ``<I, B, L, R>`` quadruple plus the OB/EB
    split. All arrays are ``int64``.
    """

    pid: int
    #: Internal vertices ``I_i``.
    internal: np.ndarray
    #: Boundary vertices ``B_i``.
    boundary: np.ndarray
    #: Odd-local-degree boundary vertices (``OB_i``).
    ob: np.ndarray
    #: Even-local-degree boundary vertices (``EB_i``).
    eb: np.ndarray
    #: Local edge ids ``L_i`` (undirected ids into the parent graph).
    local_eids: np.ndarray
    #: Remote half-edge table, one row per half-edge whose source lies in
    #: this partition: columns ``(src, dst, eid, dst_pid)``.
    remote: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        """``|I_i| + |B_i|``."""
        return int(self.internal.size + self.boundary.size)

    @property
    def n_local_edges(self) -> int:
        """``|L_i|`` as undirected edges."""
        return int(self.local_eids.size)

    @property
    def n_remote_edges(self) -> int:
        """``|R_i|`` as remote *half*-edges (the paper's directed convention)."""
        return int(self.remote.shape[0])

    def phase1_cost(self) -> int:
        """The paper's Phase-1 complexity term ``O(|B_i| + |I_i| + |L_i|)``."""
        return int(self.boundary.size + self.internal.size + self.local_eids.size)


class PartitionedGraph:
    """A graph plus a vertex→partition assignment with derived views.

    Parameters
    ----------
    graph:
        The underlying immutable graph.
    part_of:
        ``int64[n_vertices]`` mapping each vertex to a partition id in
        ``[0, n_parts)``.
    n_parts:
        Number of partitions; inferred as ``part_of.max()+1`` when omitted.
    """

    def __init__(self, graph: Graph, part_of, n_parts: int | None = None):
        part_of = np.asarray(part_of, dtype=np.int64)
        if part_of.shape != (graph.n_vertices,):
            raise PartitionError(
                f"part_of has shape {part_of.shape}, expected ({graph.n_vertices},)"
            )
        if graph.n_vertices:
            if part_of.min() < 0:
                raise PartitionError("negative partition id")
            inferred = int(part_of.max()) + 1
        else:
            inferred = 0
        self.n_parts = int(n_parts) if n_parts is not None else inferred
        if inferred > self.n_parts:
            raise PartitionError(
                f"partition id {inferred - 1} out of range for n_parts={self.n_parts}"
            )
        self.graph = graph
        self.part_of = part_of
        pu, pv = self.endpoint_parts()
        #: Boolean mask over undirected edges: True where both endpoints share
        #: a partition (a *local* edge). The only per-edge table kept: the
        #: endpoint partition columns are gathered where they are read.
        self.local_mask = pu == pv

    def endpoint_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(part_of[edge_u], part_of[edge_v])``, gathered afresh at the
        narrowest unsigned dtype that holds ``n_parts`` (one byte per edge
        up to 255 parts)."""
        part = self.part_of.astype(np.min_scalar_type(self.n_parts))
        return part[self.graph.edge_u], part[self.graph.edge_v]

    # -- global statistics ---------------------------------------------------

    @property
    def n_cut_edges(self) -> int:
        """Number of undirected edges crossing partitions."""
        return int((~self.local_mask).sum())

    def edge_cut_fraction(self) -> float:
        """``sum_i |R_i| / |E|`` with both sides bi-directed — equals the
        undirected cut fraction (Table 1's cut column)."""
        m = self.graph.n_edges
        return (self.n_cut_edges / m) if m else 0.0

    def vertex_counts(self) -> np.ndarray:
        """``|V_i|`` per partition."""
        return np.bincount(self.part_of, minlength=self.n_parts).astype(np.int64)

    def imbalance(self) -> float:
        """Peak vertex imbalance ``max_i | (|V| - n*|V_i|) / |V| |`` (Table 1)."""
        n_v = self.graph.n_vertices
        if n_v == 0:
            return 0.0
        counts = self.vertex_counts()
        return float(np.max(np.abs(n_v - self.n_parts * counts)) / n_v)

    # -- per-partition views ---------------------------------------------------

    def view(self, pid: int) -> PartitionView:
        """Build the ``<I, B, L, R>`` view for partition ``pid``."""
        if not (0 <= pid < self.n_parts):
            raise PartitionError(f"pid {pid} out of range [0, {self.n_parts})")
        part_of = self.part_of
        verts = np.flatnonzero(part_of == pid)

        u, v = self.graph.edge_u, self.graph.edge_v
        pu, pv = part_of[u], part_of[v]
        local_eids = np.flatnonzero(self.local_mask & (pu == pid))

        # Remote half-edges with source in this partition (either direction of
        # the undirected cut edge may face us).
        out_mask = (pu == pid) & ~self.local_mask
        in_mask = (pv == pid) & ~self.local_mask
        eids = np.concatenate([np.flatnonzero(out_mask), np.flatnonzero(in_mask)])
        src = np.concatenate([u[out_mask], v[in_mask]])
        dst = np.concatenate([v[out_mask], u[in_mask]])
        dst_pid = part_of[dst] if dst.size else dst
        remote = np.column_stack([src, dst, eids, dst_pid]) if eids.size else (
            np.empty((0, 4), dtype=np.int64)
        )

        boundary = np.unique(src)
        internal = verts[~np.isin(verts, boundary, assume_unique=True)]

        # Local-degree parity of boundary vertices -> OB/EB split.
        local_deg = np.zeros(self.graph.n_vertices, dtype=np.int64)
        if local_eids.size:
            np.add.at(local_deg, u[local_eids], 1)
            np.add.at(local_deg, v[local_eids], 1)
        odd_mask = (local_deg[boundary] % 2) == 1
        ob = boundary[odd_mask]
        eb = boundary[~odd_mask]
        return PartitionView(
            pid=pid,
            internal=internal,
            boundary=boundary,
            ob=ob,
            eb=eb,
            local_eids=local_eids,
            remote=remote,
        )

    def views(self) -> list[PartitionView]:
        """All per-partition views."""
        return [self.view(pid) for pid in range(self.n_parts)]

    # -- level-0 tables (Setup builds them once per run; nothing is cached) --

    def local_eids_by_pid(self) -> list[np.ndarray]:
        """``L_i`` per partition (ascending eids), from one global sort.

        One stable radix sort of the local edges by owner replaces the
        per-partition O(|E|) mask scans of :meth:`view`; each entry is a
        slice of the one sorted array.
        """
        local = np.flatnonzero(self.local_mask)
        owner = self.part_of[self.graph.edge_u[local]]
        order = np.argsort(owner, kind="stable")
        local = local[order]
        starts = np.searchsorted(owner[order], np.arange(self.n_parts + 1))
        return [local[starts[p]:starts[p + 1]] for p in range(self.n_parts)]

    def remote_deg_by_pid(self) -> list[np.ndarray]:
        """Each partition's remote-degree table ``(vertex, degree)``.

        The degree of a boundary vertex is its number of incident cut
        edges (a self loop is never cut), counted straight from the cut
        endpoints: no half-edge row table is built for it. Rows are sorted
        by vertex; vertices without cut edges are absent. Each table is
        its own array: a level-0 state keeps its table as given, and a
        view would pin every partition's rows for as long as it lives.
        """
        cut = ~self.local_mask
        n = self.graph.n_vertices
        deg = np.bincount(self.graph.edge_u[cut], minlength=n)
        deg += np.bincount(self.graph.edge_v[cut], minlength=n)
        verts = np.flatnonzero(deg)
        owner = self.part_of[verts]
        order = np.argsort(owner, kind="stable")
        table = np.stack((verts[order], deg[verts[order]]), axis=1).astype(
            np.int64, copy=False
        )
        starts = np.searchsorted(owner[order], np.arange(self.n_parts + 1))
        return [table[starts[p]:starts[p + 1]].copy() for p in range(self.n_parts)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionedGraph(n_vertices={self.graph.n_vertices}, "
            f"n_edges={self.graph.n_edges}, n_parts={self.n_parts})"
        )


def partition_stats(pg: PartitionedGraph) -> dict:
    """Table-1 row for a partitioned graph.

    Returns a dict with the paper's columns: ``n_vertices``, bi-directed edge
    count ``n_bidirected_edges``, total boundary vertices ``sum_boundary``,
    ``n_parts``, ``cut_fraction`` and ``imbalance``.
    """
    views = pg.views()
    return {
        "n_vertices": pg.graph.n_vertices,
        "n_edges": pg.graph.n_edges,
        "n_bidirected_edges": 2 * pg.graph.n_edges,
        "sum_boundary": int(sum(w.boundary.size for w in views)),
        "n_parts": pg.n_parts,
        "cut_fraction": pg.edge_cut_fraction(),
        "imbalance": pg.imbalance(),
    }
