"""Phase 1 (Alg. 1): edge-disjoint maximal local paths and cycles.

Given a partition's *live local graph* at some merge level — whose edges are
raw graph edges and/or coarse OB-pair edges produced at lower levels — this
module finds:

1. maximal local paths between odd-degree boundary vertices (Lemma 1), each
   registered as a ``path`` fragment and handed to the next level as a coarse
   OB-pair edge;
2. maximal local cycles from every even-degree boundary vertex (Lemma 2),
   registered as anchored ``cycle`` fragments for Phase-3 splicing;
3. cycles from remaining internal vertices, merged (``mergeInto``) into a
   same-run fragment at a shared *pivot* vertex (Lemma 3); cycles with no
   same-run pivot — possible only when the live local graph is disconnected,
   our generalization beyond the paper's connected-partition assumption —
   are kept as anchored cycles instead.

The traversal uses the classic next-unvisited-edge pointer so the whole run
is ``O(|B| + |I| + |L|)`` per partition, the complexity the paper claims in
§3.5 and that the Fig. 7 benchmark verifies empirically.

Data plane: the live local edges arrive as an **EdgeTable** — one packed
``int64 (m, 4)`` array with columns ``(u, v, kind, ref)`` — and the remote
degrees as an ``int64 (r, 2)`` table of ``(vertex, degree)`` rows, sorted
by vertex, degrees positive. Every producer (level-0 loading, the merges)
builds exactly these, so a run takes them as given: no conversion and no
copy. ``validate=True`` checks that contract with the lemmas.
The adjacency build is fully vectorized into walk tables (CSR half-edge
offsets, per-slot packed edge and next vertex) stored at the narrowest
index width the live graph allows (:func:`~repro.graph.graph.index_dtype`:
``int32`` whenever its ids and slot codes fit). The walk itself —
all three stages, mergeInto's pivot lookup, the splice of merged cycles
into their roots and the ItemArray decode — runs in a small C kernel
(``walk.c``, loaded by :mod:`repro.kernels` with the GIL released, one
entry point per width), writing every fragment body into one
preallocated ``int64 (m, 2)`` ItemArray, which the run registers as its
:class:`~repro.core.pathmap.FragmentBlock` beside per-root columns.
:func:`_walk_reference` is the same walk in Python: the reference the
kernel is tested against, and the path taken when no C compiler works.
No per-edge Python object exists on the kernel path.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import InvariantViolation
from ..graph.graph import index_dtype
from ..kernels import WALK_ANCHORED, WALK_EB, WALK_MERGED, WALK_PATH
from ..obs import ambient
from .pathmap import (
    FID_MIN,
    FORWARD_SHIFT,
    REF_MASK,
    FragmentBlock,
    FragmentStore,
    PathMap,
)

__all__ = [
    "Phase1Stats",
    "run_phase1",
    "EDGE_RAW",
    "EDGE_COARSE",
]

#: Edge kind: a raw graph edge; ``ref`` is the graph edge id (below
#: :data:`~repro.core.pathmap.FID_MIN`).
EDGE_RAW = 0
#: Edge kind: a coarse OB-pair edge; ``ref`` is the fragment id (at least
#: ``FID_MIN``) and the row's ``u`` is the fragment's ``src`` (so
#: ``u -> v`` is *forward*). The ref alone tells the two kinds apart, so
#: an ItemArray row needs no kind column.
EDGE_COARSE = 1


class _WalkTables:
    """Immutable walk tables for one live-local-graph topology.

    Everything the walk reads — CSR offsets, per-slot transition tables,
    boundary classification — is a pure function of the EdgeTable's
    ``(u, v)`` columns and the remote-degree table, so it can be shared
    across runs. The walk keeps its cursors and visited flags in per-run
    buffers; these tables are never written after construction. Every
    index table (``offsets``, ``slot_enc``, ``slot_next``, ``eu_loc``,
    ``ob``, ``eb`` and ``vert_ids``) has one width, which picks the walk
    kernel's entry point; ``bnd_ids`` is a view of the int64 remote-degree
    table.
    """

    __slots__ = (
        "m", "size", "vert_ids", "offsets", "slot_enc", "slot_next",
        "eu_loc", "bnd_ids", "ob", "eb", "n_local", "n_internal",
    )

    @property
    def nbytes(self) -> int:
        """Bytes held by the tables' arrays (the cache's budget unit)."""
        return sum(
            a.nbytes for a in (
                self.vert_ids, self.offsets, self.slot_enc, self.slot_next,
                self.eu_loc, self.bnd_ids, self.ob, self.eb,
            ) if a is not None
        )


def _build_walk_tables(edges: np.ndarray, rdeg: np.ndarray) -> _WalkTables:
    """Build the flat-array CSR walk tables for one live local graph.

    CSR half-edge layout: slots ``offsets[i]:offsets[i+1]`` list the
    incident half-edges of local vertex ``i`` in input order (a self loop
    contributes two consecutive slots, so degree math holds).

    Vertex indexing has two modes. *Dense* (the pipeline's case: vertex
    ids are graph ids, bounded by |V|): local index = global id, no remap
    at all (``vert_ids`` is None). *Sparse* (arbitrary ids, e.g. hand-built
    tests): a sorted unique id table ``vert_ids`` with searchsorted
    compaction. Both produce identical walks — local indices ascend in
    global-id order either way.

    The tables are stored at :func:`~repro.graph.graph.index_dtype` of this
    graph's own id space and edge count (int64 only for negative ids).
    """
    m = int(edges.shape[0])
    eu = edges[:, 0]
    ev = edges[:, 1]
    bnd_ids = rdeg[:, 0]
    id_space = 1 + int(
        max(
            eu.max() if m else -1,
            ev.max() if m else -1,
            bnd_ids.max() if bnd_ids.size else -1,
        )
    )
    min_id = int(
        min(
            eu.min() if m else id_space,
            ev.min() if m else id_space,
            bnd_ids.min() if bnd_ids.size else id_space,
        )
    ) if id_space else 0
    # Dense when the id space is proportionate to the live size (or trivially
    # small); the 2^16 floor covers small graphs without letting a tiny
    # partition of a multi-million-id graph pay O(id_space) allocations.
    dense = min_id >= 0 and id_space <= max(
        1 << 16, 8 * (2 * m + int(bnd_ids.size)) + 1024
    )
    width = index_dtype(id_space, m) if min_id >= 0 else np.int64

    half_vertex = np.empty(2 * m, dtype=width)
    if dense:
        vert_ids = None
        size = id_space
        half_vertex[0::2] = eu
        half_vertex[1::2] = ev
        bnd_loc = bnd_ids
    else:
        vert_ids = np.unique(np.concatenate((eu, ev, bnd_ids))).astype(width)
        size = int(vert_ids.size)
        half_vertex[0::2] = np.searchsorted(vert_ids, eu)
        half_vertex[1::2] = np.searchsorted(vert_ids, ev)
        bnd_loc = np.searchsorted(vert_ids, bnd_ids)

    # Stable sort groups half-edges by vertex while preserving edge order
    # (radix sort on int keys, O(m)).
    order = np.argsort(half_vertex, kind="stable")
    local_deg = np.bincount(half_vertex, minlength=size)
    offsets = np.zeros(size + 1, dtype=width)
    np.cumsum(local_deg, out=offsets[1:])

    # Per-slot walk tables, fully precomputed: consuming sorted half-edge
    # slot ``p`` appends ``slot_enc[p]`` (packed ``edge << 1 | forward``,
    # which doubles as the visited key: edge index = enc >> 1) and moves to
    # local vertex ``slot_next[p]``, which is also the emitted junction.
    # Half-edge ``2e + side`` leaves through its partner ``(2e + side) ^ 1``,
    # and that partner's index *is* the packed code (forward iff the slot is
    # the u side), so both tables are one xor and one gather of ``order``.
    t = _WalkTables()
    t.m = m
    t.size = size
    t.vert_ids = vert_ids
    t.offsets = offsets
    t.slot_enc = np.bitwise_xor(order, 1, out=np.empty(2 * m, dtype=width))
    del order
    t.slot_next = half_vertex[t.slot_enc]
    t.eu_loc = half_vertex[0::2].copy()  # per-edge local start vertex
    t.bnd_ids = bnd_ids

    is_boundary = np.zeros(size, dtype=bool)
    is_boundary[bnd_loc] = True
    odd_deg = (local_deg & 1).astype(bool)
    # Local indices, ascending — which is global-id order in both modes.
    t.ob = np.flatnonzero(is_boundary & odd_deg).astype(width)
    t.eb = np.flatnonzero(is_boundary & ~odd_deg).astype(width)
    t.n_local = (
        int(np.count_nonzero((local_deg > 0) | is_boundary)) if dense else size
    )
    t.n_internal = t.n_local - t.ob.size - t.eb.size
    return t


#: Walk-table cache: a serving workload replays identical partition
#: topologies across jobs on the same cataloged graph (within one run every
#: (partition, level) topology is walked once). Tables are content-keyed
#: (sha256 of the topology columns) in one LRU per process, shared by every
#: thread (tables are immutable) and LRU-evicted to stay within this many
#: bytes of table arrays — dense tables are O(id space), not O(edges), so
#: the bound is on bytes. A table is admitted on its *second* sighting
#: only: a one-shot topology (a distinct graph, a mutation's dirty
#: partitions) never takes a slot from the tables that are read again.
#: One table may take at most a sixteenth of the budget: a repeat run hits
#: only if the tables of all its Phase-1 runs (15 at 8 partitions) are
#: still held when it gets there, so a bigger table would be evicted
#: before its next reader and only pin memory while its own run goes on.
_TABLE_CACHE_BYTES = 16 << 20
#: Digests the admission filter remembers (16-byte prefixes, oldest out).
_SEEN_CAP = 4096


class _TableCache:
    """The process's walk tables and the admission filter's sightings.

    ``lock`` guards dict operations only; tables are built outside it.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.tables: OrderedDict[bytes, _WalkTables] = OrderedDict()
        self.seen: OrderedDict[bytes, None] = OrderedDict()
        self.held = 0


_cache = _TableCache()


def _reset_cache() -> None:
    """Start an empty cache with a fresh lock.

    Runs in every forked child: a fork may land while another thread
    holds the lock, which would never be released in the child.
    """
    global _cache
    _cache = _TableCache()


os.register_at_fork(after_in_child=_reset_cache)


def _walk_tables(edges: np.ndarray, rdeg: np.ndarray) -> _WalkTables:
    """Cached :func:`_build_walk_tables` (content-addressed, per-process)."""
    m = int(edges.shape[0])
    entry_cap = _TABLE_CACHE_BYTES // 16
    # The two slot tables alone take 2m entries each, at no less than the
    # width m alone allows (larger ids can only widen it).
    if 4 * np.dtype(index_dtype(0, m)).itemsize * m > entry_cap:
        return _build_walk_tables(edges, rdeg)
    digest = hashlib.sha256()
    digest.update(np.int64(m).tobytes())
    digest.update(np.ascontiguousarray(edges[:, :2]).tobytes())
    digest.update(np.ascontiguousarray(rdeg).tobytes())
    key = digest.digest()
    tag = key[:16]
    cache = _cache
    with cache.lock:
        tables = cache.tables.get(key)
        if tables is not None:
            cache.tables.move_to_end(key)
        else:
            admit = tag in cache.seen
            if admit:
                del cache.seen[tag]
            else:
                cache.seen[tag] = None
                if len(cache.seen) > _SEEN_CAP:
                    cache.seen.popitem(last=False)
    if tables is not None:
        _cache_counter("hit").inc()
        return tables
    tables = _build_walk_tables(edges, rdeg)
    _cache_counter("miss").inc()
    if admit and tables.nbytes <= entry_cap:
        with cache.lock:
            # A racing thread may have admitted the same topology first.
            kept = cache.tables.setdefault(key, tables)
            if kept is tables:
                cache.held += tables.nbytes
                while cache.held > _TABLE_CACHE_BYTES:
                    cache.held -= cache.tables.popitem(last=False)[1].nbytes
            held = cache.held
        ambient().gauge(
            "repro_walk_cache_bytes",
            "Bytes of Phase-1 walk tables held in this process's cache",
        ).set(held)
        return kept
    return tables


def _cache_counter(result: str):
    """Ambient-registry walk-table cache counter (hit/miss by label)."""
    return ambient().counter(
        "repro_walk_cache_events_total",
        "Phase-1 walk-table cache lookups by result",
        labelnames=("result",),
    ).labels(result=result)


@dataclass
class Phase1Stats:
    """Input census + outcome counts of one Phase-1 run (Figs. 7 and 9)."""

    n_live_vertices: int = 0
    n_internal: int = 0
    n_ob: int = 0
    n_eb: int = 0
    n_local_edges: int = 0
    n_paths: int = 0
    n_eb_cycles: int = 0
    n_iv_cycles_merged: int = 0
    n_iv_cycles_anchored: int = 0
    n_trivial: int = 0

    @property
    def phase1_cost(self) -> int:
        """The paper's per-partition cost term ``|B| + |I| + |L|``."""
        return self.n_ob + self.n_eb + self.n_internal + self.n_local_edges


def run_phase1(
    pid: int,
    level: int,
    local_edges: np.ndarray,
    remote_degree: np.ndarray,
    store: FragmentStore,
    validate: bool = False,
) -> tuple[PathMap, Phase1Stats]:
    """Run Alg. 1 on one partition's live local graph.

    Parameters
    ----------
    pid, level:
        Identity of the partition and merge level (recorded on fragments).
    local_edges:
        The live local edges as an ``int64 (m, 4)`` EdgeTable; every one is
        consumed.
    remote_degree:
        Remote half-edge degrees as an ``int64 (r, 2)`` table of
        ``(vertex, degree)`` rows with strictly ascending vertices and
        positive degrees; its vertices are the *boundary* vertices.
        Vertices appearing neither here nor on any local edge do not exist
        at this level.
    store:
        Fragment sink (a :class:`~repro.core.pathmap.FragmentStore` or a
        run's :class:`~repro.core.pathmap.FragmentBatch`) that receives the
        run's fragments as one block and knows the raw-edge counts of the
        coarse edges' fragments.
    validate:
        When True, check the two tables' layout above and Lemmas 1–2 on
        every walk, and raise :class:`~repro.errors.InvariantViolation` on
        failure (used by tests; costs a few percent). Without it nothing
        is checked or copied.

    Returns
    -------
    (pathmap, stats):
        The partition's :class:`~repro.core.pathmap.PathMap` for this level
        and the census/outcome counters.
    """
    if validate:
        _check_tables(local_edges, remote_degree)

    # See _build_walk_tables for the layout; _walk_tables reuses the tables
    # once this topology has been walked twice (same graph across served
    # jobs).
    t = _walk_tables(local_edges, remote_degree)
    n_ob, n_eb = int(t.ob.size), int(t.eb.size)
    if validate and n_ob % 2 != 0:
        raise InvariantViolation(
            f"partition {pid} level {level}: odd number of OB vertices ({n_ob})"
        )
    native = kernels.load()
    items, recs = (native.walk(t, local_edges) if native
                   else _walk_reference(t, local_edges))
    if validate:
        _check_lemmas(t, recs)

    counts = np.bincount(recs[:, 2], minlength=4).tolist()
    stats = Phase1Stats(
        n_live_vertices=t.n_local,
        n_internal=t.n_internal,
        n_ob=n_ob,
        n_eb=n_eb,
        n_local_edges=t.m,
        n_paths=counts[WALK_PATH],
        n_eb_cycles=counts[WALK_EB],
        n_iv_cycles_merged=counts[WALK_MERGED],
        n_iv_cycles_anchored=counts[WALK_ANCHORED],
        n_trivial=n_eb - counts[WALK_EB],
    )

    # ---- register the run as one block ------------------------------------
    # ``items`` holds every root's spliced body back to back (roots in walk
    # order), each row the EdgeTable's ref with the traversal direction in
    # bit 62, and the junction reached. The block stores it as is, beside
    # one column per root attribute, so the NumPy fixed cost is per *run*,
    # not per fragment — partitions routinely produce tens of thousands of
    # tiny path fragments.
    roots = recs[recs[:, 2] != WALK_MERGED]
    n_roots = roots.shape[0]
    is_path = roots[:, 2] == WALK_PATH
    srcs = roots[:, 0]
    dsts = np.where(is_path, roots[:, 1], srcs)  # a cycle ends where it began
    if t.vert_ids is not None:
        srcs, dsts = t.vert_ids[srcs], t.vert_ids[dsts]
    # The block's root columns are int64 whatever the tables' width.
    srcs, dsts = srcs.astype(np.int64), dsts.astype(np.int64)
    bounds = np.zeros(n_roots + 1, dtype=np.int64)
    np.cumsum(roots[:, 3], out=bounds[1:])
    # Raw-edge weights: every root is non-empty, so reduceat is safe; coarse
    # items add their fragments' recorded counts.
    is_frag = items[:, 0] & REF_MASK >= FID_MIN
    n_edges = bounds[1:] - bounds[:-1]
    frag_positions = np.flatnonzero(is_frag)
    if frag_positions.size:
        n_edges -= np.add.reduceat(is_frag.astype(np.int64), bounds[:-1])
        owners = np.searchsorted(bounds[1:], frag_positions, side="right")
        np.add.at(n_edges, owners,
                  store.edge_counts(items[frag_positions, 0] & REF_MASK))
    del is_frag, frag_positions
    kind = (~is_path).astype(np.int8)  # KIND_PATH = 0, KIND_CYCLE = 1
    base = store.add_block(
        FragmentBlock(level, pid, items, kind, srcs, dsts, n_edges, bounds)
    )
    fids = base + np.arange(n_roots, dtype=np.int64)
    pathmap = PathMap(pid=pid, level=level)
    pathmap.ob_paths = np.column_stack(
        (srcs[is_path], dsts[is_path], fids[is_path])
    )
    pathmap.ob_path_edges = n_edges[is_path]
    pathmap.anchored_cycles = fids[~is_path]
    pathmap.n_merged_cycles = stats.n_iv_cycles_merged
    pathmap.n_trivial = stats.n_trivial
    return pathmap, stats


def _check_tables(edges, rdeg) -> None:
    """The input layout :func:`run_phase1` assumes, raising if it fails."""
    for name, table, width in (("local_edges", edges, 4),
                               ("remote_degree", rdeg, 2)):
        if not (isinstance(table, np.ndarray) and table.dtype == np.int64
                and table.ndim == 2 and table.shape[1] == width):
            got = (f"{table.dtype} {table.shape}" if isinstance(table, np.ndarray)
                   else type(table).__name__)
            raise InvariantViolation(
                f"{name} must be an int64 (n, {width}) array; got {got}"
            )
    verts = rdeg[:, 0]
    if np.any(rdeg[:, 1] <= 0) or np.any(verts[1:] <= verts[:-1]):
        raise InvariantViolation(
            "remote_degree rows must have strictly ascending vertices and "
            "positive degrees"
        )
    # The ItemArray tells edges from fragments by ref alone.
    kind, ref = edges[:, 2], edges[:, 3]
    coarse = kind == EDGE_COARSE
    if (np.any((kind != EDGE_RAW) & ~coarse)
            or np.any(coarse & ((ref < FID_MIN) | (ref > REF_MASK)))
            or np.any(~coarse & ((ref < 0) | (ref >= FID_MIN)))):
        raise InvariantViolation(
            "local_edges rows must be raw edges with refs in [0, 2**52) or "
            "coarse edges with fragment ids in [2**52, 2**62)"
        )


def _check_lemmas(t: _WalkTables, recs: np.ndarray) -> None:
    """Lemmas 1–2 on every walk record, raising on the first violation."""

    def gid(i: int) -> int:
        return i if t.vert_ids is None else int(t.vert_ids[i])

    for start, end, kind, _ in recs.tolist():
        v, w = gid(start), gid(end)
        if kind == WALK_PATH:
            odd = (t.offsets[end + 1] - t.offsets[end]) % 2 == 1
            if not odd or w not in t.bnd_ids:
                raise InvariantViolation(
                    f"Lemma 1 violated: path from OB {v} ended at non-OB {w}"
                )
            if end == start:
                raise InvariantViolation(
                    f"Lemma 1 violated: path from OB {v} returned to its start"
                )
        elif end != start:
            what = "cycle from EB" if kind == WALK_EB else "internal cycle from"
            raise InvariantViolation(f"Lemma 2 violated: {what} {v} ended at {w}")


def _walk_reference(
    t: _WalkTables, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Phase-1 walk in pure Python: the reference ``walk.c`` must match.

    Returns ``(items, recs)``. ``recs`` has one ``(start, end, kind,
    flat_len)`` row per non-empty walk in discovery order (local vertex
    indices; ``kind`` is a ``WALK_*`` code; ``flat_len`` is a root's
    spliced length, 0 for merged cycles), at the tables' width. ``items``
    is the int64 ``(m, 2)`` ItemArray of every root's spliced body, roots
    in walk order.
    """
    slot_enc = t.slot_enc.tolist()
    slot_next = t.slot_next.tolist()
    offsets = t.offsets.tolist()
    ptr = offsets[:-1]
    visited = bytearray(t.m)
    enc: list[int] = []  # every walk's packed edges, back to back
    loc: list[int] = []  # ... and the vertex each step arrives at
    woff: list[int] = []  # walk -> offset into enc/loc
    rot: list[int] = []  # walk -> steps skipped by its rotation
    recs: list[list[int]] = []
    # Junction ownership for mergeInto: local vertex -> first root walk
    # through it; merged cycles wait under their pivot, oldest first.
    owner = [-1] * t.size
    attached: dict[int, list[int]] = {}

    def walk(cur: int) -> int:
        """Maximal traversal along unvisited edges; returns the end vertex."""
        while True:
            end = offsets[cur + 1]
            p = ptr[cur]
            while p < end and visited[slot_enc[p] >> 1]:
                p += 1
            ptr[cur] = p
            if p == end:
                return cur
            e = slot_enc[p]
            visited[e >> 1] = 1
            enc.append(e)
            cur = slot_next[p]
            loc.append(cur)

    def claim(root: int, v: int, n0: int) -> None:
        for x in [v, *loc[n0:]]:
            if owner[x] < 0:
                owner[x] = root

    def add(start: int, end: int, kind: int, n0: int, skip: int = 0) -> None:
        woff.append(n0)
        rot.append(skip)
        recs.append([start, end, kind, 0])

    # 1) OB -> OB maximal paths (Alg. 1 lines 7-8) and 2) EB cycles (lines
    # 9-10). Each OB initiates exactly one walk (the paper's v.visited
    # flag): an OB that already served as the *endpoint* of an earlier path
    # has no unvisited edges left and yields an empty walk; an OB that
    # *initiated* may retain an even number of unvisited edges, which the
    # internal-cycle stage consumes. An empty EB walk is a trivial tour.
    for kind, starts in ((WALK_PATH, t.ob), (WALK_EB, t.eb)):
        for v in starts.tolist():
            n0 = len(enc)
            end = walk(v)
            if len(enc) > n0:
                claim(len(recs), v, n0)
                add(v, end, kind, n0)

    # 3) internal-vertex cycles (lines 11-13); ``bytearray.find(0, k)``
    # skips visited runs at C speed.
    eu_loc = t.eu_loc
    k = visited.find(0)
    while k != -1:
        u = int(eu_loc[k])
        n0 = len(enc)
        end = walk(u)
        # mergeInto: the start, else the first junction, owned by a root.
        pivot = u if owner[u] >= 0 else next(
            (x for x in loc[n0:] if owner[x] >= 0), -1
        )
        if pivot < 0:
            # Disconnected live local graph (generalization beyond the
            # paper's Lemma 3 assumption): keep as an anchored cycle.
            claim(len(recs), u, n0)
            add(u, end, WALK_ANCHORED, n0)
        else:
            attached.setdefault(pivot, []).append(len(recs))
            # Rotate to restart just past the pivot's first visit.
            add(u, end, WALK_MERGED, n0,
                0 if pivot == u else loc.index(pivot, n0) - n0 + 1)
            claim(owner[pivot], pivot, n0)
        k = visited.find(0, k)
    woff.append(len(enc))

    # Splice: depth-first over each root, entering a vertex's attached
    # cycles (oldest first) right after the walk arrives there.
    flat_enc: list[int] = []
    flat_loc: list[int] = []
    for w, rec in enumerate(recs):
        if rec[2] == WALK_MERGED:
            continue
        n0 = len(flat_enc)
        stack = [[w, 0]]  # frames: [walk, steps emitted]
        v = rec[0]
        while True:
            if v >= 0 and owner[v] == w and v in attached:
                stack.extend([c, 0] for c in reversed(attached.pop(v)))
            if not stack:
                break
            frame = stack[-1]
            c, step = frame
            length = woff[c + 1] - woff[c]
            if step == length:
                stack.pop()
                v = -1
                continue
            frame[1] = step + 1
            at = woff[c] + (rot[c] + step) % length
            flat_enc.append(enc[at])
            v = loc[at]
            flat_loc.append(v)
        rec[3] = len(flat_enc) - n0
    if attached:
        raise InvariantViolation(
            f"unspliced attachments remain at vertices {sorted(attached)[:8]}"
        )

    seq = np.array(flat_enc, dtype=np.int64)
    dst = np.array(flat_loc, dtype=np.int64)
    items = np.empty((seq.size, 2), dtype=np.int64)
    items[:, 0] = edges[seq >> 1, 3] | (seq & 1) << FORWARD_SHIFT
    items[:, 1] = dst if t.vert_ids is None else t.vert_ids[dst]
    return items, np.array(recs, dtype=t.offsets.dtype).reshape(-1, 4)
