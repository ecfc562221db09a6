"""Phase 3: single-pass reconstruction of the full Euler circuit.

The paper describes Phase 3 (§3.2) but defers its implementation; we build
it in full. Inputs are the fragment store (the per-level book-keeping that
Phase 1 "persisted to disk") and the pathMaps, from which two things follow:

* a **base cycle** — a cycle fragment created at the root level (after the
  last merge there are no remote edges, so the root's Phase 1 yields only
  cycles; with a connected graph every other root cycle merges into the
  first via ``mergeInto``);
* a **pending index** — every *anchored* cycle fragment (EB cycles and
  unmerged internal cycles from all levels) indexed by each of its junction
  vertices. Those are the paper's *pivot vertices*: whenever the unrolling
  emits a vertex with pending cycles, it switches to unrolling the pending
  cycle (rotated to start there) and resumes afterwards — "recursively
  unrolling edges of a different path or cycle passing through this pivot
  vertex and created at a lower level". The base cycle is not indexed: the
  unroll starts on it, so no splice could push it, and on R-MAT inputs it
  passes through nearly every junction.

The unroll consumes ItemArrays (packed ``int64 (n, 4)`` bodies, see
:mod:`repro.core.pathmap`), each a row slice of its Phase-1 run's block
read with :meth:`~repro.core.pathmap.FragmentStore.body` — no fragment
object is built. Fragment reversal and rotation are pure array
ops (:func:`_reverse_items` / :func:`_rotate_to`), and each pushed body is
read through a zero-copy flat int64 ``memoryview``. The emit loop stays
scalar — the pending-splice check is inherently per emitted vertex, and
pending junctions can be dense (torus grids: ~40% of the vertices, base
excluded), so a bulk-slice scheme would degenerate into single-row
array appends — but it writes by index into the circuit's own int64
arrays, allocated once at their exact size: the anchored cycles' raw-edge
counts sum to the circuit's length, so nothing grows or is copied, and
the circuit costs 8 bytes per entry. :func:`_expand_plain`, which
faces no pending checks, *is* segment-vectorized: contiguous raw-edge runs
between fragment references are bulk-copied as slices. Each coarse item
expands exactly once, so the pass is linear in the number of edges either
way.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..errors import InvariantViolation
from .circuit import EulerCircuit
from .pathmap import ITEM_EDGE, ITEM_FRAG, KIND_CYCLE, FragmentStore

__all__ = ["reconstruct_circuit", "build_pending_index"]


def build_pending_index(
    store: FragmentStore, anchored_fids
) -> dict[int, list[int]]:
    """Index all anchored cycles by every junction vertex they pass through.

    Returns ``vertex -> [fid, ...]`` in deterministic (fid) order. Indexing
    *all* junctions — not just the anchor — is what makes splicing work even
    when a cycle's anchor vertex is only reachable deep inside another
    fragment's expansion (the multi-component generalization in DESIGN.md).
    """
    index: dict[int, list[int]] = defaultdict(list)
    fids = sorted(set(int(f) for f in anchored_fids))
    for fid in fids:
        if store.kind_of(fid) != KIND_CYCLE:
            raise InvariantViolation(f"anchored fragment {fid} is not a cycle")
        items, src = store.body(fid)
        verts = np.unique(np.append(items[:, 2], src))
        for v in verts.tolist():
            index[v].append(fid)
    return dict(index)


def _reverse_items(items: np.ndarray, src: int) -> np.ndarray:
    """ItemArray for traversing a fragment backwards (dst -> src).

    Row ``i`` of the result is row ``n-1-i`` of the input with its ``dst``
    replaced by the *preceding* junction and its direction flag flipped
    (the flip only matters for ``ITEM_FRAG`` rows; edge rows keep a
    consistent traversal direction for free).
    """
    n = items.shape[0]
    out = items[::-1].copy()
    junctions = np.empty(n, dtype=np.int64)
    if n:
        junctions[0] = src
        junctions[1:] = items[:-1, 2]
    out[:, 2] = junctions[::-1]
    out[:, 3] = 1 - out[:, 3]
    return out


def _rotate_to(items: np.ndarray, src: int, pivot: int) -> np.ndarray:
    """Rotate a cycle's items so its junction walk starts/ends at ``pivot``."""
    if pivot == src:
        return items
    hits = np.flatnonzero(items[:, 2] == pivot)
    if hits.size == 0:
        raise InvariantViolation(f"pivot {pivot} not on cycle anchored at {src}")
    i = int(hits[0])
    return np.concatenate((items[i + 1:], items[:i + 1]))


def reconstruct_circuit(
    store: FragmentStore,
    anchored_fids,
    base_fid: int,
) -> EulerCircuit:
    """Unroll the fragment hierarchy into the final Euler circuit.

    Parameters
    ----------
    store:
        The fragment registry, read through its column views (a spilled
        block is memory-mapped once, on its first read).
    anchored_fids:
        Fragment ids of every anchored cycle produced across all levels
        (every ``KIND_CYCLE`` fragment; path fragments are consumed by
        reference instead). ``base_fid`` may be included; it is skipped.
    base_fid:
        The root-level cycle to start from (the driver passes the root
        partition's first anchored cycle).

    Raises
    ------
    InvariantViolation
        If any anchored cycle is never reached — with a connected Eulerian
        input this cannot happen; it indicates a bug or a disconnected graph
        that slipped past validation — or if the circuit's length differs
        from the anchored cycles' ``n_edges`` sum (a miscounted store).
    """
    if store.kind_of(base_fid) != KIND_CYCLE:
        raise InvariantViolation(f"base fragment {base_fid} is not a cycle")
    consumed: set[int] = set()
    base_items, base_src = store.body(base_fid)
    consumed.add(base_fid)

    # Every raw edge lies in exactly one anchored cycle's expansion, so the
    # cycles' n_edges sum is the circuit's length: its int64 arrays are
    # allocated once, at that size, and written by index.
    cycles = np.unique(np.append(np.asarray(anchored_fids, np.int64), base_fid))
    k = int(store.edge_counts(cycles).sum())
    pending = build_pending_index(store, cycles[cycles != base_fid])
    vertices = np.empty(k + 1, dtype=np.int64)
    eids = np.empty(k, dtype=np.int64)
    vertices[0] = base_src
    stack: list = []  # frames: [flat row-major int64 view of a body, pos]

    def push(items: np.ndarray) -> None:
        # A zero-copy flat view: row ``i`` is ``body[4*i : 4*i + 4]``.
        if items.shape[0]:
            body = np.ascontiguousarray(items, dtype=np.int64)
            stack.append([memoryview(body).cast("B").cast("q"), 0])

    def splice_at(v: int) -> None:
        fids = pending.pop(v, None)
        if not fids:
            return
        fresh = [f for f in fids if f not in consumed]
        for fid in reversed(fresh):
            consumed.add(fid)
            items, src = store.body(fid)
            push(_rotate_to(items, src, v))

    vout, eout = memoryview(vertices), memoryview(eids)
    n = 0  # edges emitted; vertices[n] is the current walk position
    pending_get = pending.get
    push(base_items)
    splice_at(base_src)
    try:
        while stack:
            frame = stack[-1]
            body, pos = frame
            if pos >= len(body):
                stack.pop()
                continue
            frame[1] = pos + 4
            dst = body[pos + 2]
            if body[pos] == ITEM_EDGE:
                eout[n] = body[pos + 1]
                n += 1
                vout[n] = dst
                if pending_get(dst) is not None:
                    splice_at(dst)
            else:
                sub, src = store.body(body[pos + 1])
                if not body[pos + 3]:
                    sub = _reverse_items(sub, src)
                push(sub)
                # The entry vertex was already emitted (it equals the
                # current walk position); the fragment's own items emit
                # the rest.
    except IndexError:
        if n < k:
            raise
        raise InvariantViolation(
            f"Phase 3 emitted more than {k} edges, the anchored cycles' "
            "n_edges sum: the fragment store is miscounted"
        ) from None

    leftovers = sorted(
        {f for fids in pending.values() for f in fids if f not in consumed}
    )
    if leftovers:
        # Completeness fallback: a pending cycle can strand when its only
        # contact vertices with the emitted walk are *interior* to its coarse
        # items (so no junction-level splice point exists). Expand each
        # stranded cycle to raw edges and splice it at any shared vertex;
        # repeat to a fixpoint (a stranded cycle may only touch another
        # stranded cycle's region).
        vertices, eids, leftovers = _splice_stranded(
            store, vertices[:n + 1], eids[:n], leftovers
        )
        n = eids.size
    if leftovers:
        raise InvariantViolation(
            f"{len(leftovers)} anchored cycles were never spliced "
            f"(e.g. fragment ids {leftovers[:8]}); the input graph is "
            "disconnected or an invariant was violated"
        )
    if n != k:
        raise InvariantViolation(
            f"Phase 3 emitted {n} edges but the anchored cycles' n_edges "
            f"sum to {k}: the fragment store is miscounted"
        )
    return EulerCircuit(vertices=vertices, edge_ids=eids)


def _expand_plain(
    store: FragmentStore, fid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fully expand one fragment to raw vertices/edges, with no splicing."""
    items, src = store.body(fid)
    v_parts: list[np.ndarray] = [np.array([src], dtype=np.int64)]
    e_parts: list[np.ndarray] = []
    stack: list = []  # frames: [items, frag_rows, cursor, pos]

    def push(items: np.ndarray) -> None:
        frag_rows = np.flatnonzero(items[:, 0] == ITEM_FRAG).tolist()
        stack.append([items, frag_rows, 0, 0])

    push(items)
    while stack:
        frame = stack[-1]
        items, frag_rows, fi, pos = frame
        if fi >= len(frag_rows):
            if pos < items.shape[0]:
                e_parts.append(items[pos:, 1])
                v_parts.append(items[pos:, 2])
            stack.pop()
            continue
        h = frag_rows[fi]
        frame[2] = fi + 1
        frame[3] = h + 1
        if h > pos:
            e_parts.append(items[pos:h, 1])
            v_parts.append(items[pos:h, 2])
        _, ref, _dst, forward = items[h].tolist()
        sub, src = store.body(ref)
        if not forward:
            sub = _reverse_items(sub, src)
        push(sub)
    verts = np.concatenate(v_parts)
    eids = (
        np.concatenate(e_parts) if e_parts else np.empty(0, dtype=np.int64)
    )
    return verts, eids


def _splice_stranded(
    store: FragmentStore,
    out_vertices: np.ndarray,
    out_eids: np.ndarray,
    leftovers: list[int],
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Splice stranded cycles into the walk at any shared raw vertex.

    The walk is held as a *rope*: the original arrays stay untouched and
    each splice just records "insert cycle-node N at offset i of node P",
    so a splice is O(cycle) instead of O(walk) and the final walk is
    materialized once (the old list-concatenation rebuild made this
    quadratic in the walk length). Returns the possibly-shorter leftover
    list (non-empty only for disconnected inputs).
    """
    remaining = sorted(leftovers, key=lambda f: (-store.level_of(f), f))
    # Rope nodes: nid -> [verts, eids, inserts {offset -> [child nid, ...]}].
    # Node 0 is the base walk; every other node is a rotated stranded cycle
    # whose verts start and end at its splice vertex.
    nodes: dict[int, list] = {0: [out_vertices, out_eids, {}]}
    next_nid = 1
    # First occurrence of each vertex in *materialization order*:
    # vertex -> (order_key, nid, offset). The hierarchical key makes rope
    # positions comparable — a vertex inside a spliced cycle sits at its
    # insert position (plus a suffix), so it precedes anything after that
    # point in the parent, exactly like the repeated first-occurrence scan
    # this rope replaces. Children at one offset emit latest-added first,
    # hence the negated per-offset rank component.
    first: dict[int, tuple[tuple, int, int]] = {}
    for i, v in enumerate(out_vertices.tolist()):
        if v not in first:
            first[v] = ((i,), 0, i)
    expanded: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    while remaining:
        spliced_fid = None
        for fid in remaining:
            if fid not in expanded:
                expanded[fid] = _expand_plain(store, fid)
            verts, eids = expanded[fid]
            vlist = verts.tolist()
            anchor = next((i for i, v in enumerate(vlist) if v in first), None)
            if anchor is None:
                continue
            v = vlist[anchor]
            # Rotate the closed raw walk to start and end at v.
            rot_v = np.concatenate((verts[anchor:-1], verts[: anchor + 1]))
            rot_e = np.concatenate((eids[anchor:], eids[:anchor]))
            nid = next_nid
            next_nid += 1
            nodes[nid] = [rot_v, rot_e, {}]
            anchor_key, seg, off = first[v]
            siblings = nodes[seg][2].setdefault(off, [])
            siblings.append(nid)
            base_key = anchor_key + (-len(siblings),)
            for j, w in enumerate(rot_v.tolist()):
                key = base_key + (j,)
                known = first.get(w)
                if known is None or key < known[0]:
                    first[w] = (key, nid, j)
            spliced_fid = fid
            break
        if spliced_fid is None:
            break  # fixpoint: nothing left touches the walk
        remaining = [f for f in remaining if f != spliced_fid]

    out_vertices, out_eids = _materialize_rope(nodes)
    return out_vertices, out_eids, remaining


def _materialize_rope(nodes: dict[int, list]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the splice rope into contiguous vertex/edge arrays.

    An insert at offset ``i`` replaces the parent's vertex at ``i`` with the
    child's full closed walk (which starts and ends at that vertex); with
    several children at one offset, the latest-added emits first and each
    subsequent child drops its (duplicate) leading vertex — exactly the
    sequence repeated first-occurrence splicing used to build by list
    surgery.
    """
    v_parts: list[np.ndarray] = []
    e_parts: list[np.ndarray] = []

    def frame(nid: int, drop_first: bool) -> list:
        verts, eids, inserts = nodes[nid]
        # [verts, eids, inserts, sorted offsets, offset cursor, epos, vpos]
        return [verts, eids, inserts, sorted(inserts), 0, 0, 1 if drop_first else 0]

    stack = [frame(0, False)]
    while stack:
        fr = stack[-1]
        verts, eids, inserts, offs, oi, epos, vpos = fr
        if oi >= len(offs):
            e_parts.append(eids[epos:])
            v_parts.append(verts[vpos:])
            stack.pop()
            continue
        off = offs[oi]
        # Vertex index ``off`` is the replaced vertex; both cursors are
        # absolute node indices (``vpos`` may lead ``epos`` by one after a
        # dropped leading vertex or a consumed insert).
        e_parts.append(eids[epos:off])
        v_parts.append(verts[vpos:off])
        fr[4] = oi + 1
        fr[5] = off
        fr[6] = off + 1  # skip the replaced vertex
        children = inserts[off]
        # LIFO: push in add order so the latest-added child emits first and
        # keeps its leading vertex; the rest drop theirs.
        for i, child in enumerate(children):
            stack.append(frame(child, drop_first=i != len(children) - 1))
    return np.concatenate(v_parts), np.concatenate(e_parts)
