"""Phase 2 runtime: partition state and pairwise merging across levels.

A live partition between Phase-1 runs is exactly what the paper says remains
in memory after Phase 1 (§3.2): the coarse OB-pair edges just produced, the
boundary vertices, and the remote half-edges it holds (which of those it
holds depends on the §5 strategy). :func:`merge_states` implements the
child→parent absorption: remote edges between the two groups become local
raw edges, their endpoints' remote degrees drop (possibly turning boundary
vertices internal), and both sides' coarse edges become the local edge set
for the next Phase-1 run.

Everything a state carries is a packed array — the ``int64``
**CoarseTable** ``(k, 4)`` of ``(src, dst, fid, n_edges)`` rows, the held
half-edge rows ``(r, 4)`` at the run's index width (``int32`` whenever the
graph's ids fit, see :func:`~repro.graph.graph.index_dtype`), and the
``int64`` remote-degree table ``(b, 2)`` — so the child→parent merge is pure
array algebra (equality scans on the destination-leaf column replace the
old per-row generator) and a pickled state is a handful of raw buffers,
which is what the process executor ships across its worker boundary. A
state holds its tables as given: Setup, the program and
:func:`merge_states` build exactly these layouts, so nothing converts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phase1 import EDGE_COARSE, EDGE_RAW

__all__ = [
    "PartitionState",
    "merge_states",
    "local_edges_level0",
    "empty_coarse",
    "LONGS",
]


class LONGS:
    """Longs-per-record accounting constants (§4.3's Int64 state metric).

    The paper counts 8-byte Long values of partition state *as loaded for a
    Phase-1 run* (Fig. 8 measures the state "maintained as part of the
    partitions' state at different levels", which is why its last-level
    average is ~50% of the level-0 cumulative: the root holds all
    newly-localized edges). We charge:

    * ``VERTEX`` = 1 per live vertex (id; the OB/EB/internal type packs into
      spare bits),
    * ``LOCAL_DIRECTED`` = 1 per *directed* local edge — an undirected local
      edge costs 2, matching the paper's §5 observation that the bi-directed
      representation "doubles the memory usage",
    * ``REMOTE`` = 2 per held remote half-edge (src id + dst id); dropping
      one direction (the §5 dedup) therefore halves remote-edge state,
    * ``COARSE`` = 3 per coarse OB-pair edge (two endpoints + fragment id),
    * ``PATHMAP`` = 4 per pathMap entry (path id, type, src, dst).
    """

    VERTEX = 1
    LOCAL_DIRECTED = 1
    BOUNDARY = 2  # resident (between-levels) cost of a boundary vertex
    REMOTE = 2
    COARSE = 3
    PATHMAP = 4


def phase1_state_longs(
    n_live_vertices: int,
    n_raw_local: int,
    n_coarse_local: int,
    n_held_rows: int,
    n_pathmap_entries: int,
) -> int:
    """Longs of partition state at the *start* of a Phase-1 run (Fig. 8 unit).

    ``n_raw_local`` counts undirected raw local edges (charged as two
    directed Longs each); ``n_coarse_local`` counts coarse OB-pair edges.
    """
    return (
        LONGS.VERTEX * n_live_vertices
        + 2 * LONGS.LOCAL_DIRECTED * n_raw_local
        + LONGS.COARSE * n_coarse_local
        + LONGS.REMOTE * n_held_rows
        + LONGS.PATHMAP * n_pathmap_entries
    )


def empty_coarse() -> np.ndarray:
    """A zero-row CoarseTable."""
    return np.empty((0, 4), dtype=np.int64)


@dataclass
class PartitionState:
    """In-memory state of one live (possibly merged) partition.

    Attributes
    ----------
    pid:
        Current partition id (a parent keeps its id across merges).
    level:
        The level whose Phase 1 most recently ran on this state.
    coarse:
        CoarseTable of the OB-pair edges produced by that run — rows
        ``(src, dst, fid, n_edges)``; they are the only unconsumed local
        objects. The ``n_edges`` column travels with the state so an
        out-of-process Phase-1 run can weigh coarse items without reaching
        back into the parent's fragment store.
    held:
        Remote half-edge rows ``(src, dst, eid, dst_pid)`` resident in this
        partition's memory (strategy-dependent subset of the true cut).
    remote_deg:
        *True* remote half-edge degree per vertex as a sorted ``(b, 2)``
        table of ``(vertex, degree > 0)`` rows (storage-independent; what
        OB/EB classification needs). Vertices with degree 0 are absent.
    n_pathmap_entries:
        PathMap entries retained (for the Longs metric).
    member_leaves:
        Original leaf partition ids merged into this state (deferred
        shipments are keyed on them).
    """

    pid: int
    level: int
    coarse: np.ndarray = field(default_factory=empty_coarse)
    held: np.ndarray = field(
        default_factory=lambda: np.empty((0, 4), dtype=np.int64)
    )
    remote_deg: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    n_pathmap_entries: int = 0
    member_leaves: tuple[int, ...] = ()

    def known_coarse_edges(self) -> dict[int, int]:
        """``fid -> n_edges`` for the coarse edges (Phase-1 batch metadata)."""
        return dict(
            zip(self.coarse[:, 2].tolist(), self.coarse[:, 3].tolist())
        )

    def state_longs(self) -> int:
        """Longs of retained state (Fig. 8's unit), per :class:`LONGS`."""
        return (
            LONGS.BOUNDARY * int(self.remote_deg.shape[0])
            + LONGS.REMOTE * int(self.held.shape[0])
            + LONGS.COARSE * int(self.coarse.shape[0])
            + LONGS.PATHMAP * self.n_pathmap_entries
        )

    def census(self) -> dict[str, int]:
        """Live-object counts for Fig. 9 (post-Phase-1 snapshot)."""
        return {
            "n_boundary": int(self.remote_deg.shape[0]),
            "n_remote_half_edges": int(self.held.shape[0]),
            "n_coarse_edges": int(self.coarse.shape[0]),
        }


def local_edges_level0(local_eids, edge_u, edge_v) -> np.ndarray:
    """The raw local edges of a level-0 partition as an EdgeTable.

    ``local_eids`` is the partition's ``L_i`` eid array (a
    :class:`~repro.graph.partition.PartitionView` is also accepted).
    """
    eids = getattr(local_eids, "local_eids", local_eids)
    out = np.empty((eids.size, 4), dtype=np.int64)
    out[:, 0] = edge_u[eids]
    out[:, 1] = edge_v[eids]
    out[:, 2] = EDGE_RAW
    out[:, 3] = eids
    return out


def _concat_rows(parts: list[np.ndarray]) -> np.ndarray:
    """Row-concatenate ``(k, 4)`` tables without copying a lone part."""
    if not parts:
        return np.empty((0, 4), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def merge_states(
    parent: PartitionState,
    child: PartitionState,
    in_group: set[int],
    extra_rows: np.ndarray | None = None,
) -> tuple[PartitionState, np.ndarray, np.ndarray]:
    """Absorb ``child`` into ``parent`` (one merge-tree edge).

    Parameters
    ----------
    parent, child:
        Post-Phase-1 states of the two partitions being merged.
    in_group:
        The set of *original leaf* partition ids in the merged group; held
        rows whose destination leaf lies inside become local edges.
    extra_rows:
        Additional half-edge rows shipped in by the deferred strategy (they
        are all internal to the group by construction).

    Returns
    -------
    (state, local_edges, remote_degree):
        The merged state (Phase 1 not yet run: its ``coarse`` is empty and
        ``level`` advanced) plus the Phase-1 inputs: an EdgeTable of both
        sides' coarse OB-pairs + newly-localized raw edges, and the merged
        remote-degree table reflecting the consumed cut.
    """
    # Split each side's held rows on its own (parent, child, then the
    # deferred extras): the concatenated order is kept without ever
    # building a combined copy of every held row.
    internal_parts, external_parts = [], []
    for rows in (parent.held, child.held, extra_rows):
        if rows is None or not rows.size:
            continue
        # in_group is a handful of leaf pids; an OR of equality scans beats
        # sort-based np.isin on the (large) row count.
        dst_leaf = rows[:, 3]
        internal_mask = np.zeros(rows.shape[0], dtype=bool)
        for member in in_group:
            internal_mask |= dst_leaf == member
        internal_parts.append(rows[internal_mask])
        external_parts.append(rows[~internal_mask])
    internal = _concat_rows(internal_parts)
    external = _concat_rows(external_parts)

    # One local edge per unique eid, in ascending-eid order (under eager
    # placement both directed copies of a cut edge meet here; under dedup
    # exactly one exists).
    _, first = np.unique(internal[:, 2], return_index=True)
    localized = internal[first]
    del internal, internal_parts
    drops = np.concatenate((localized[:, 0], localized[:, 1]))

    # Merged remote degrees: sum both sides, subtract one per endpoint of
    # every localized edge, keep positive rows (all vectorized).
    all_v = np.concatenate(
        (parent.remote_deg[:, 0], child.remote_deg[:, 0], drops)
    )
    all_d = np.concatenate(
        (
            parent.remote_deg[:, 1],
            child.remote_deg[:, 1],
            np.full(drops.size, -1, dtype=np.int64),
        )
    )
    if all_v.size:
        max_v = int(all_v.max())
        if 0 <= int(all_v.min()) and max_v <= max(1 << 16, 8 * all_v.size):
            # Dense vertex-id space (the pipeline's case): one bincount
            # beats the sort inside np.unique.
            deg = np.bincount(all_v, weights=all_d, minlength=max_v + 1)
            verts = np.flatnonzero(deg > 0)
            remote_deg = np.stack(
                (verts, deg[verts].astype(np.int64)), axis=1
            )
        else:
            verts, inverse = np.unique(all_v, return_inverse=True)
            deg = np.bincount(inverse, weights=all_d).astype(np.int64)
            keep = deg > 0
            remote_deg = np.stack((verts[keep], deg[keep]), axis=1)
    else:
        remote_deg = np.empty((0, 2), dtype=np.int64)

    # The Phase-1 EdgeTable, written in place: the newly-localized raw
    # edges, then both sides' coarse OB-pairs as (src, dst, COARSE, fid).
    n_raw = localized.shape[0]
    coarse = np.concatenate((parent.coarse, child.coarse))
    local_edges = np.empty((n_raw + coarse.shape[0], 4), dtype=np.int64)
    local_edges[:n_raw, :2] = localized[:, :2]
    local_edges[:n_raw, 2] = EDGE_RAW
    local_edges[:n_raw, 3] = localized[:, 2]
    local_edges[n_raw:, :2] = coarse[:, :2]
    local_edges[n_raw:, 2] = EDGE_COARSE
    local_edges[n_raw:, 3] = coarse[:, 2]

    state = PartitionState(
        pid=parent.pid,
        level=parent.level + 1,
        coarse=empty_coarse(),
        held=external,
        remote_deg=remote_deg,
        n_pathmap_entries=parent.n_pathmap_entries + child.n_pathmap_entries,
        member_leaves=tuple(sorted(set(parent.member_leaves) | set(child.member_leaves))),
    )
    return state, local_edges, remote_deg
