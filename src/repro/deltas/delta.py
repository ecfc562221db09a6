"""GraphDelta: packed int64 edge mutation tables between two graphs.

A delta is the dynamic-graph analogue of the EdgeTable: two columnar
int64 tables — deletes addressed by *base* edge id, inserts addressed by
*result* edge position — plus the vertex/edge counts on both sides. The
representation is chosen so that every operation the subsystem needs is
a vectorized mask/gather, never a Python loop:

``apply``
    Scatter surviving base edges and inserted edges into the result
    arrays with two boolean masks. ``O(m)`` NumPy, no sorting.
``invert``
    A pure field swap: deletes and inserts trade places, before and
    after counts flip. ``d.invert().apply(d.apply(g))`` is bit-identical
    to ``g`` — the catalog relies on this to walk delta chains in either
    direction.
``compose``
    Provenance arrays map every result-edge slot back to a base edge id
    (non-negative) or an insert-pool index (negative code); chaining two
    deltas is one gather through the intermediate graph's provenance.
``eid_map``
    The old→new edge-id map (``-1`` for deleted edges) the incremental
    repair engine uses to re-key cached Phase-1 inputs. Because deletes
    compact and inserts land in explicit slots, the map is monotonic
    over survivors — a partition untouched by the delta keeps its local
    edge rows in the same relative order, which is what makes cached
    EdgeTables comparable after remapping.

Deltas persist as tiny NPZ blobs (`to_bytes`/`from_bytes`) in the
catalog's ``deltas/`` directory, keyed by the *child* content hash; the
chain parent lives in the catalog index. Inserted endpoints may name
vertices past the base graph's range — ``apply`` grows the vertex space
(`n_vertices_after`), so street-network growth and streaming assembly
both fit without a separate "add vertex" operation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from ..graph.graph import Graph

__all__ = ["GraphDelta", "extend_part_of"]


def extend_part_of(part_of: np.ndarray, delta: "GraphDelta") -> np.ndarray:
    """Extend a base-graph partition map over ``delta``'s vertex growth.

    New vertices join the partition of their first already-placed endpoint
    in delta-insert order, defaulting to partition 0 when every neighbour
    is also new. Deterministic, and shared by the catalog (deriving a
    delta child's canonical map) and the repair session (rolling its map
    forward) — both sides *must* agree for incremental repair to be
    bit-identical to a full recompute.
    """
    part_of = np.asarray(part_of, dtype=np.int64)
    n0, n1 = delta.n_vertices_before, delta.n_vertices_after
    if part_of.shape != (n0,):
        raise ValueError(
            f"part_of has shape {part_of.shape}, expected ({n0},)"
        )
    if n1 == n0:
        return part_of.copy()
    out = np.empty(n1, dtype=np.int64)
    out[:n0] = part_of
    out[n0:] = -1
    for u, v in zip(delta.insert_u.tolist(), delta.insert_v.tolist()):
        for a, b in ((u, v), (v, u)):
            if a >= n0 and out[a] < 0 and out[b] >= 0:
                out[a] = out[b]
    out[out < 0] = 0
    return out


def _as_i64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64).reshape(-1)


@dataclass(frozen=True)
class GraphDelta:
    """One graph mutation: ``G(before) -> G(after)``.

    Parameters
    ----------
    n_vertices_before, n_vertices_after:
        Vertex-space sizes on each side (inserts may grow it).
    n_edges_before, n_edges_after:
        Edge counts on each side; always
        ``n_edges_before - len(delete_eids) + len(insert_pos)``.
    delete_eids:
        Sorted unique edge ids **in the base graph** to remove.
    delete_u, delete_v:
        Endpoints of the deleted edges (recorded so ``invert`` can
        restore them without consulting the base graph).
    insert_pos:
        Sorted unique edge positions **in the result graph** the
        inserted edges occupy; surviving base edges fill the remaining
        slots in base order.
    insert_u, insert_v:
        Endpoints of the inserted edges.
    """

    n_vertices_before: int
    n_vertices_after: int
    n_edges_before: int
    n_edges_after: int
    delete_eids: np.ndarray = field(default_factory=lambda: _as_i64(()))
    delete_u: np.ndarray = field(default_factory=lambda: _as_i64(()))
    delete_v: np.ndarray = field(default_factory=lambda: _as_i64(()))
    insert_pos: np.ndarray = field(default_factory=lambda: _as_i64(()))
    insert_u: np.ndarray = field(default_factory=lambda: _as_i64(()))
    insert_v: np.ndarray = field(default_factory=lambda: _as_i64(()))

    def __post_init__(self):
        for name in ("delete_eids", "delete_u", "delete_v",
                     "insert_pos", "insert_u", "insert_v"):
            object.__setattr__(self, name, _as_i64(getattr(self, name)))
        m0, m1 = self.n_edges_before, self.n_edges_after
        dels, ins = self.delete_eids, self.insert_pos
        if not (self.delete_u.size == self.delete_v.size == dels.size):
            raise ValueError("delete endpoint columns must match delete_eids")
        if not (self.insert_u.size == self.insert_v.size == ins.size):
            raise ValueError("insert endpoint columns must match insert_pos")
        if m1 != m0 - dels.size + ins.size:
            raise ValueError(
                f"inconsistent edge counts: {m0} - {dels.size} deletes "
                f"+ {ins.size} inserts != {m1}"
            )
        for label, arr, bound in (("delete_eids", dels, m0),
                                  ("insert_pos", ins, m1)):
            if arr.size:
                if arr[0] < 0 or arr[-1] >= bound:
                    raise ValueError(f"{label} out of range [0, {bound})")
                if np.any(np.diff(arr) <= 0):
                    raise ValueError(f"{label} must be sorted and unique")
        if self.insert_u.size and (
            min(self.insert_u.min(), self.insert_v.min()) < 0
            or max(self.insert_u.max(), self.insert_v.max())
            >= self.n_vertices_after
        ):
            raise ValueError("inserted edge endpoint out of range")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_edits(cls, graph: Graph, insert=None, delete_eids=None,
                   ) -> "GraphDelta":
        """Build a delta against ``graph`` from user-level edit lists.

        ``insert`` is an iterable of ``(u, v)`` pairs appended after the
        surviving base edges (so new edges take the highest ids, matching
        :meth:`Graph.with_extra_edges`); ``delete_eids`` names base edge
        ids. Endpoints past the base vertex range grow the vertex space.
        """
        m0, n0 = graph.n_edges, graph.n_vertices
        dels = np.unique(_as_i64(delete_eids if delete_eids is not None
                                 else ()))
        if dels.size and (dels[0] < 0 or dels[-1] >= m0):
            raise ValueError(f"delete edge id out of range [0, {m0})")
        pairs = np.asarray(list(insert) if insert is not None else (),
                           dtype=np.int64).reshape(-1, 2)
        if pairs.size and pairs.min() < 0:
            raise ValueError("inserted vertex ids must be non-negative")
        m1 = m0 - dels.size + pairs.shape[0]
        n1 = n0
        if pairs.size:
            n1 = max(n1, int(pairs.max()) + 1)
        return cls(
            n_vertices_before=n0, n_vertices_after=n1,
            n_edges_before=m0, n_edges_after=m1,
            delete_eids=dels,
            delete_u=np.asarray(graph.edge_u)[dels],
            delete_v=np.asarray(graph.edge_v)[dels],
            insert_pos=np.arange(m1 - pairs.shape[0], m1, dtype=np.int64),
            insert_u=pairs[:, 0], insert_v=pairs[:, 1],
        )

    # -- core algebra --------------------------------------------------------

    def apply(self, graph: Graph) -> Graph:
        """The mutated graph. ``graph`` must match the *before* side."""
        if (graph.n_vertices != self.n_vertices_before
                or graph.n_edges != self.n_edges_before):
            raise ValueError(
                f"delta expects base with {self.n_vertices_before} vertices"
                f"/{self.n_edges_before} edges, got {graph.n_vertices}"
                f"/{graph.n_edges}"
            )
        base_u = np.asarray(graph.edge_u)
        base_v = np.asarray(graph.edge_v)
        if self.delete_eids.size and not (
            np.array_equal(base_u[self.delete_eids], self.delete_u)
            and np.array_equal(base_v[self.delete_eids], self.delete_v)
        ):
            raise ValueError(
                "delta delete endpoints disagree with the base graph "
                "(applied to the wrong graph?)"
            )
        keep = np.ones(self.n_edges_before, dtype=bool)
        keep[self.delete_eids] = False
        slots = np.ones(self.n_edges_after, dtype=bool)
        slots[self.insert_pos] = False
        res_u = np.empty(self.n_edges_after, dtype=np.int64)
        res_v = np.empty(self.n_edges_after, dtype=np.int64)
        res_u[self.insert_pos] = self.insert_u
        res_v[self.insert_pos] = self.insert_v
        res_u[slots] = base_u[keep]
        res_v[slots] = base_v[keep]
        return Graph.from_arrays(self.n_vertices_after, res_u, res_v,
                                 check=False)

    def invert(self) -> "GraphDelta":
        """The inverse delta (deletes and inserts trade places)."""
        return GraphDelta(
            n_vertices_before=self.n_vertices_after,
            n_vertices_after=self.n_vertices_before,
            n_edges_before=self.n_edges_after,
            n_edges_after=self.n_edges_before,
            delete_eids=self.insert_pos,
            delete_u=self.insert_u, delete_v=self.insert_v,
            insert_pos=self.delete_eids,
            insert_u=self.delete_u, insert_v=self.delete_v,
        )

    def eid_map(self) -> np.ndarray:
        """Old→new edge-id map, ``-1`` where the base edge was deleted.

        Monotonically increasing over surviving edges: relative edge
        order is preserved, so per-partition EdgeTables stay comparable
        after remapping their ``EDGE_RAW`` refs through this map.
        """
        emap = np.full(self.n_edges_before, -1, dtype=np.int64)
        keep = np.ones(self.n_edges_before, dtype=bool)
        keep[self.delete_eids] = False
        slots = np.ones(self.n_edges_after, dtype=bool)
        slots[self.insert_pos] = False
        emap[keep] = np.flatnonzero(slots)
        return emap

    def compose(self, other: "GraphDelta") -> "GraphDelta":
        """The single delta equivalent to ``self`` then ``other``.

        Provenance construction: label every edge slot of the
        intermediate and final graphs with either the base edge id it
        descends from (non-negative) or a negative code into the
        concatenated insert pools. An insert of ``self`` that ``other``
        deletes cancels out entirely; a base edge ``other`` deletes is a
        plain base delete of the composition.
        """
        if (other.n_vertices_before != self.n_vertices_after
                or other.n_edges_before != self.n_edges_after):
            raise ValueError(
                "cannot compose: second delta's before-side "
                f"({other.n_vertices_before}v/{other.n_edges_before}e) "
                "does not match first delta's after-side "
                f"({self.n_vertices_after}v/{self.n_edges_after}e)"
            )
        m0, m1, m2 = (self.n_edges_before, self.n_edges_after,
                      other.n_edges_after)
        k1 = self.insert_pos.size
        k2 = other.insert_pos.size

        prov1 = np.empty(m1, dtype=np.int64)
        prov1[self.insert_pos] = -(np.arange(k1, dtype=np.int64) + 1)
        slots1 = np.ones(m1, dtype=bool)
        slots1[self.insert_pos] = False
        keep0 = np.ones(m0, dtype=bool)
        keep0[self.delete_eids] = False
        prov1[slots1] = np.flatnonzero(keep0)

        prov2 = np.empty(m2, dtype=np.int64)
        prov2[other.insert_pos] = -(np.arange(k2, dtype=np.int64) + 1 + k1)
        slots2 = np.ones(m2, dtype=bool)
        slots2[other.insert_pos] = False
        keep1 = np.ones(m1, dtype=bool)
        keep1[other.delete_eids] = False
        prov2[slots2] = prov1[keep1]

        survivors = prov2[prov2 >= 0]
        deleted = np.ones(m0, dtype=bool)
        deleted[survivors] = False
        del_eids = np.flatnonzero(deleted)
        # Endpoints for each deleted base edge come from whichever stage
        # deleted it: stage 1 recorded them directly; stage 2 deletes of
        # base-descended slots recorded them against intermediate ids.
        du = np.empty(m0, dtype=np.int64)
        dv = np.empty(m0, dtype=np.int64)
        du[self.delete_eids] = self.delete_u
        dv[self.delete_eids] = self.delete_v
        base_del2 = prov1[other.delete_eids]
        stage2 = base_del2 >= 0
        du[base_del2[stage2]] = other.delete_u[stage2]
        dv[base_del2[stage2]] = other.delete_v[stage2]

        ins_pos = np.flatnonzero(prov2 < 0)
        codes = -prov2[ins_pos] - 1
        pool_u = np.concatenate([self.insert_u, other.insert_u])
        pool_v = np.concatenate([self.insert_v, other.insert_v])
        return GraphDelta(
            n_vertices_before=self.n_vertices_before,
            n_vertices_after=other.n_vertices_after,
            n_edges_before=m0, n_edges_after=m2,
            delete_eids=del_eids,
            delete_u=du[del_eids], delete_v=dv[del_eids],
            insert_pos=ins_pos,
            insert_u=pool_u[codes], insert_v=pool_v[codes],
        )

    # -- introspection -------------------------------------------------------

    @property
    def n_deletes(self) -> int:
        return int(self.delete_eids.size)

    @property
    def n_inserts(self) -> int:
        return int(self.insert_pos.size)

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique vertices any delta edge is incident to."""
        return np.unique(np.concatenate([
            self.delete_u, self.delete_v, self.insert_u, self.insert_v,
        ]))

    def summary(self) -> dict:
        """Wire/artifact-friendly description of this delta."""
        return {
            "n_inserts": self.n_inserts,
            "n_deletes": self.n_deletes,
            "n_vertices_before": self.n_vertices_before,
            "n_vertices_after": self.n_vertices_after,
            "n_edges_before": self.n_edges_before,
            "n_edges_after": self.n_edges_after,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return (
            self.summary() == other.summary()
            and np.array_equal(self.delete_eids, other.delete_eids)
            and np.array_equal(self.delete_u, other.delete_u)
            and np.array_equal(self.delete_v, other.delete_v)
            and np.array_equal(self.insert_pos, other.insert_pos)
            and np.array_equal(self.insert_u, other.insert_u)
            and np.array_equal(self.insert_v, other.insert_v)
        )

    # -- persistence ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to compressed NPZ bytes (the catalog's wire format)."""
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            meta=np.array([self.n_vertices_before, self.n_vertices_after,
                           self.n_edges_before, self.n_edges_after],
                          dtype=np.int64),
            delete_eids=self.delete_eids,
            delete_u=self.delete_u, delete_v=self.delete_v,
            insert_pos=self.insert_pos,
            insert_u=self.insert_u, insert_v=self.insert_v,
        )
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GraphDelta":
        with np.load(io.BytesIO(data)) as npz:
            meta = npz["meta"]
            return cls(
                n_vertices_before=int(meta[0]),
                n_vertices_after=int(meta[1]),
                n_edges_before=int(meta[2]), n_edges_after=int(meta[3]),
                delete_eids=npz["delete_eids"],
                delete_u=npz["delete_u"], delete_v=npz["delete_v"],
                insert_pos=npz["insert_pos"],
                insert_u=npz["insert_u"], insert_v=npz["insert_v"],
            )

    def save(self, path) -> None:
        from pathlib import Path

        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "GraphDelta":
        from pathlib import Path

        return cls.from_bytes(Path(path).read_bytes())

    # -- wire dict (the HTTP front end's JSON shape) -------------------------

    def to_wire(self) -> dict:
        """JSON-safe dict (edit lists, not packed tables)."""
        return {
            "insert": [[int(u), int(v)] for u, v in
                       zip(self.insert_u, self.insert_v)],
            "delete_eids": [int(e) for e in self.delete_eids],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"GraphDelta(+{self.n_inserts}/-{self.n_deletes} edges, "
                f"{self.n_edges_before}->{self.n_edges_after}e, "
                f"{self.n_vertices_before}->{self.n_vertices_after}v)")
