"""Fragments, the pathMap, and the (spillable) columnar fragment store.

Phase 1 (Alg. 1) replaces runs of local edges with coarse objects the paper
calls *paths* (between two odd boundary vertices — the "OB-pair" that acts as
a single coarse edge at the next level) and *cycles* (anchored at an even
boundary vertex or an internal vertex). We call both **fragments**.

A fragment's body is a sequence of *items*, each either a raw graph edge or a
reference to a lower-level fragment traversed forward or backward. This is
exactly the paper's book-keeping "persisted to disk" in Phase 1 and consumed
by Phase 3's recursive unrolling; :class:`FragmentStore` keeps it in memory
by default and can spill bodies to disk (``spill_dir``), mirroring the
paper's design that only the pathMap *metadata* stays resident.

Item encoding — the **ItemArray**, packed ``int64 (n, 4)`` rows, columns
``(tag, ref, dst, forward)``:

``(ITEM_EDGE, eid, dst, fwd)``
    Raw undirected edge ``eid`` traversed so that it *ends* at vertex ``dst``
    (``fwd`` records the traversal direction; nothing downstream reads it
    for edges, but keeping the row uniform lets every body share one dtype).
``(ITEM_FRAG, fid, dst, forward)``
    Lower-level path fragment ``fid`` traversed toward ``dst``; ``forward``
    is 1 when traversed from its ``src`` to its ``dst``.

The implied junction sequence of a fragment is ``src`` followed by the
``dst`` column; for cycles the last ``dst`` equals ``src``.

Storage unit — the **FragmentBlock**: one Phase-1 run's output, kept as the
walk kernel wrote it. Its ItemArray holds every root's body back to back,
and per-root columns (``kind``, ``src``, ``dst``, ``n_edges`` and row
``bounds``) describe them. Fragment ids are structured
(:func:`make_fid`), so ``fid >> 32`` names the block — the run's (level,
pid) — and ``fid & 0xFFFFFFFF`` is the fragment's row: a lookup needs no
per-fragment index and no per-fragment object. :class:`Fragment` records
exist only as read views, built on demand by :meth:`FragmentStore.get`.
A batch crosses the process and remote executor boundaries as its block
(a few raw buffers), the store adopts it with one dict insert, and a
spill writes it as one ``.npy``. :func:`as_items` normalizes the legacy
tuple form (3-tuples for edges, 4-tuples for fragment refs) at the API
boundary, so hand-built test bodies keep working.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ITEM_EDGE",
    "ITEM_FRAG",
    "KIND_PATH",
    "KIND_CYCLE",
    "as_items",
    "empty_items",
    "Fragment",
    "FragmentBatch",
    "FragmentBlock",
    "FragmentStore",
    "PathMap",
    "make_fid",
]

ITEM_EDGE = 0
ITEM_FRAG = 1

KIND_PATH = "path"
KIND_CYCLE = "cycle"

_KINDS = (KIND_PATH, KIND_CYCLE)  # index = the block's ``kind`` column code
_CYCLE = _KINDS.index(KIND_CYCLE)


def empty_items() -> np.ndarray:
    """A zero-row ItemArray."""
    return np.empty((0, 4), dtype=np.int64)


def as_items(items) -> np.ndarray:
    """Normalize a fragment body to the packed ``(n, 4) int64`` ItemArray.

    Accepts an ItemArray (returned as-is, re-typed if needed) or the legacy
    list of item tuples — ``(ITEM_EDGE, eid, dst)`` /
    ``(ITEM_FRAG, fid, dst, forward)``; edge tuples get ``forward = 1``.
    """
    if isinstance(items, np.ndarray):
        if items.ndim != 2 or items.shape[1] != 4:
            raise ValueError(f"ItemArray must be (n, 4); got {items.shape}")
        return items.astype(np.int64, copy=False)
    out = np.empty((len(items), 4), dtype=np.int64)
    for i, it in enumerate(items):
        out[i, 0] = it[0]
        out[i, 1] = it[1]
        out[i, 2] = it[2]
        out[i, 3] = int(it[3]) if len(it) > 3 else 1
    return out


# Structured fragment-id packing: fid = ((level+1) << 52) | (pid << 32) | seq.
# A partition runs Phase 1 at most once per merge level, so (level, pid, seq)
# — with seq counting that run's fragments — is globally unique *without any
# shared counter*. Every executor backend (serial, thread, process) therefore
# mints bit-identical fids, which is what makes circuits reproducible across
# backends and lets out-of-process Phase-1 runs allocate ids independently.
_FID_LEVEL_SHIFT = 52
_FID_PID_SHIFT = 32
_SEQ_MASK = (1 << _FID_PID_SHIFT) - 1


def make_fid(level: int, pid: int, seq: int) -> int:
    """Deterministic, coordination-free fragment id for (level, pid, seq)."""
    if not (0 <= pid < (1 << (_FID_LEVEL_SHIFT - _FID_PID_SHIFT))):
        raise ValueError(f"pid {pid} out of fid range")
    if not (0 <= seq < (1 << _FID_PID_SHIFT)):
        raise ValueError(f"fragment seq {seq} out of fid range")
    return ((level + 1) << _FID_LEVEL_SHIFT) | (pid << _FID_PID_SHIFT) | seq


@dataclass
class Fragment:
    """One local path or cycle: a read view of one block row.

    Attributes
    ----------
    fid:
        Globally unique fragment id.
    kind:
        ``"path"`` (OB→OB; becomes a coarse edge) or ``"cycle"``.
    level:
        Merge-tree level at which Phase 1 created it.
    pid:
        Partition that created it.
    src, dst:
        Endpoints; equal for cycles.
    items:
        The body as an ItemArray (see module docstring), a view into its
        block. ``None`` when the block has been spilled to disk — fetch
        through the store, not directly.
    n_edges:
        Number of *raw* edges the fragment expands to (kept in a column so
        memory accounting and sanity checks never force a load from disk).
    """

    fid: int
    kind: str
    level: int
    pid: int
    src: int
    dst: int
    items: np.ndarray | None
    n_edges: int

    def junctions(self) -> list[int]:
        """The vertex sequence at this fragment's own level (src first)."""
        if self.items is None:
            raise ValueError(f"fragment {self.fid} body is spilled; use the store")
        return [self.src] + self.items[:, 2].tolist()


class FragmentBlock:
    """One Phase-1 run's fragments: an ItemArray plus per-root columns.

    Row ``seq`` is the fragment with fid ``make_fid(level, pid, seq)``; its
    body is ``items[bounds[seq]:bounds[seq + 1]]``. ``kind`` holds
    ``_KINDS`` codes (int8); ``src``, ``dst`` and ``n_edges`` are int64.
    ``items`` is ``None`` once the store has spilled the block.

    ``level`` and ``pid`` are the run's, except in the store's hand-built
    block (fragments registered one at a time by
    :meth:`FragmentStore.new_fragment`), where they are per-row int64
    columns.
    """

    __slots__ = ("level", "pid", "items", "kind", "src", "dst", "n_edges",
                 "bounds")

    def __init__(self, level, pid, items, kind, src, dst, n_edges, bounds):
        self.level = level
        self.pid = pid
        self.items = items
        self.kind = kind
        self.src = src
        self.dst = dst
        self.n_edges = n_edges
        self.bounds = bounds

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def level_at(self, seq: int) -> int:
        level = self.level
        return int(level[seq] if isinstance(level, np.ndarray) else level)

    def pid_at(self, seq: int) -> int:
        pid = self.pid
        return int(pid[seq] if isinstance(pid, np.ndarray) else pid)

    def copy(self) -> "FragmentBlock":
        """A deep copy (the repair cache remaps its own in place)."""
        return FragmentBlock(
            self.level, self.pid,
            None if self.items is None else self.items.copy(),
            self.kind.copy(), self.src.copy(), self.dst.copy(),
            self.n_edges.copy(), self.bounds.copy(),
        )

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])


def _hand_built_block() -> FragmentBlock:
    """The empty block :meth:`FragmentStore.new_fragment` appends rows to."""
    col = np.empty(0, dtype=np.int64)
    return FragmentBlock(col, col, empty_items(), np.empty(0, dtype=np.int8),
                         col, col, col, np.zeros(1, dtype=np.int64))


class FragmentBatch:
    """Picklable sink for one Phase-1 run: the run's :class:`FragmentBlock`.

    Duck-types the two :class:`FragmentStore` calls Phase 1 makes —
    :meth:`add_block` and :meth:`edge_counts` — so the run can execute in a
    worker process and travel back through a pickle. The engine's commit
    hook then :meth:`adopts <FragmentStore.adopt>` the batch into the global
    store in pid order — the only store mutation point.

    The batch pickles as its block: the walk kernel's ItemArray and the
    root columns, a few raw buffers regardless of how many fragments the
    run produced.

    ``known_edges`` maps previously-registered fragment ids (the coarse
    OB-pair edges entering this level) to their raw-edge counts, the one
    piece of store metadata Phase 1 reads for fragments it did not create.
    It is an input of the run and does not travel with the batch.
    """

    def __init__(self, pid: int, level: int, known_edges: dict[int, int] | None = None):
        self.pid = pid
        self.level = level
        self._known = dict(known_edges or {})
        self.block: FragmentBlock | None = None
        # Range-checks (level, pid) once; the block's fids are base + seq.
        self._fid_base = make_fid(level, pid, 0)

    def add_block(self, block: FragmentBlock) -> int:
        """Take the run's block; returns the fid of its row 0."""
        if self.block is not None:
            raise ValueError(f"batch ({self.level}, {self.pid}) already holds a block")
        self.block = block
        return self._fid_base

    def edge_counts(self, fids: np.ndarray) -> np.ndarray:
        """Raw-edge counts of prior fragments (the coarse edges' weights)."""
        known = self._known
        return np.fromiter((known[f] for f in fids.tolist()), dtype=np.int64,
                           count=len(fids))

    def __getstate__(self) -> dict:
        return {"pid": self.pid, "level": self.level, "block": self.block}

    def __setstate__(self, state: dict) -> None:
        self.pid = state["pid"]
        self.level = state["level"]
        self.block = state["block"]
        self._known = {}
        self._fid_base = make_fid(self.level, self.pid, 0)


class FragmentStore:
    """Registry of fragment blocks with optional disk spill of their bodies.

    Blocks are keyed by ``fid >> 32``: one per Phase-1 run (adopted from a
    :class:`FragmentBatch`), plus key 0 for fragments registered one at a
    time with :meth:`new_fragment`, whose sequential fids are
    ``make_fid(-1, 0, seq)``, i.e. ``0, 1, 2, ...``.

    With ``spill_dir`` set, :meth:`spill` writes a block's ItemArray to
    ``<spill_dir>/block_<key>.npy`` — a raw ``.npy`` buffer dump, no
    per-element encoding — and drops it from memory: the paper's "persist
    the mapping to disk ... allows the sets L and I to be removed to
    conserve memory". The root columns stay resident. :meth:`items_of`
    reads a spilled block through one memory map, opened on first use.
    """

    def __init__(self, spill_dir: str | os.PathLike | None = None):
        self._blocks: dict[int, FragmentBlock] = {}
        #: Spilled blocks' bodies, memory-mapped once each.
        self._mapped: dict[int, np.ndarray] = {}
        self.spill_dir = os.fspath(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
        #: Total raw edges across registered fragments (diagnostics). Note
        #: fragments nest, so this exceeds the graph's edge count; the sum
        #: over *cycle* fragments alone equals it.
        self.total_edges = 0
        # Per-level keys of adopted blocks whose bodies may still be in
        # memory — spill_level() drains from here instead of scanning every
        # block ever registered.
        self._unspilled_by_level: dict[int, list[int]] = {}
        # The store is shared by all partition threads of a run (in a real
        # cluster each machine has its own disk; here one registry stands in
        # for all of them), so registration/spill must be thread-safe.
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # A lock is not picklable and memory maps re-open on demand; the
        # store otherwise is (blocks are raw arrays). Needed so a full
        # RunContext can travel back from a scenario fan-out worker process.
        state = self.__dict__.copy()
        del state["_lock"]
        state["_mapped"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    def __contains__(self, fid: int) -> bool:
        block = self._blocks.get(fid >> _FID_PID_SHIFT)
        return block is not None and (fid & _SEQ_MASK) < len(block)

    @property
    def n_blocks(self) -> int:
        """Registered blocks: one per adopted Phase-1 run (+1 if hand-built)."""
        return len(self._blocks)

    # ---- registration -----------------------------------------------------
    def add_block(self, block: FragmentBlock) -> int:
        """Register one Phase-1 run's block; returns the fid of its row 0."""
        base = make_fid(block.level, block.pid, 0)
        key = base >> _FID_PID_SHIFT
        with self._lock:
            if key in self._blocks:
                raise ValueError(
                    f"block (level {block.level}, pid {block.pid}) already registered"
                )
            self._blocks[key] = block
            self.total_edges += int(block.n_edges.sum())
            if block.items is not None:
                self._unspilled_by_level.setdefault(block.level, []).append(key)
        return base

    def adopt(self, batch: FragmentBatch) -> None:
        """Register a batch's block: one dict insert per Phase-1 run.

        The fragments keep their structured fids; ids minted by
        :func:`make_fid` cannot collide with each other or with the
        hand-built block (key 0).
        """
        if batch.block is not None:
            self.add_block(batch.block)

    def new_fragment(
        self, kind: str, level: int, pid: int, src: int, dst: int, items,
        n_edges: int,
    ) -> Fragment:
        """Append one fragment to the hand-built block; next sequential fid."""
        if kind not in _KINDS:
            raise ValueError(f"bad fragment kind {kind!r}")
        if kind == KIND_CYCLE and src != dst:
            raise ValueError("cycle fragments must have src == dst")
        items = as_items(items)
        with self._lock:
            block = self._blocks.get(0)
            if block is None:
                block = self._blocks[0] = _hand_built_block()
            elif block.items is None:
                # Appending to a spilled block: bring its body back first.
                block.items = np.load(self._spill_path(0))
                self._mapped.pop(0, None)
            seq = len(block)
            if seq > _SEQ_MASK:
                raise ValueError(f"fragment seq {seq} out of fid range")
            block.items = np.concatenate((block.items, items))
            block.kind = np.append(block.kind, np.int8(_KINDS.index(kind)))
            block.level = np.append(block.level, level)
            block.pid = np.append(block.pid, pid)
            block.src = np.append(block.src, src)
            block.dst = np.append(block.dst, dst)
            block.n_edges = np.append(block.n_edges, n_edges)
            block.bounds = np.append(block.bounds, block.items.shape[0])
            self.total_edges += n_edges
        return self.get(seq)

    # ---- read views -------------------------------------------------------
    def _locate(self, fid: int) -> tuple[FragmentBlock, int]:
        block = self._blocks.get(fid >> _FID_PID_SHIFT)
        seq = fid & _SEQ_MASK
        if block is None or seq >= len(block):
            raise KeyError(fid)
        return block, seq

    def _body(self, key: int, block: FragmentBlock) -> np.ndarray:
        """A block's ItemArray, memory-mapping it back if spilled."""
        items = block.items
        if items is not None:
            return items
        mapped = self._mapped.get(key)
        if mapped is None:
            mapped = self._mapped[key] = np.load(self._spill_path(key),
                                                 mmap_mode="r")
        return mapped

    def get(self, fid: int) -> Fragment:
        """A :class:`Fragment` view of ``fid`` (``items`` None if spilled)."""
        fid = int(fid)
        block, seq = self._locate(fid)
        items = block.items
        if items is not None:
            items = items[block.bounds[seq]:block.bounds[seq + 1]]
        return Fragment(
            fid, _KINDS[block.kind[seq]], block.level_at(seq),
            block.pid_at(seq), int(block.src[seq]), int(block.dst[seq]),
            items, int(block.n_edges[seq]),
        )

    def body(self, fid: int) -> tuple[np.ndarray, int]:
        """``(items_of(fid), src)`` with one lookup: what unrolling reads."""
        block, seq = self._locate(fid)
        body = self._body(fid >> _FID_PID_SHIFT, block)
        return body[block.bounds[seq]:block.bounds[seq + 1]], int(block.src[seq])

    def items_of(self, fid: int) -> np.ndarray:
        """Fragment body (an ItemArray view), read from disk if spilled."""
        return self.body(fid)[0]

    def kind_of(self, fid: int) -> str:
        block, seq = self._locate(fid)
        return _KINDS[block.kind[seq]]

    def level_of(self, fid: int) -> int:
        block, seq = self._locate(fid)
        return block.level_at(seq)

    def edge_counts(self, fids: np.ndarray) -> np.ndarray:
        """Raw-edge counts of the given fragments (``int64``, aligned)."""
        out = np.empty(len(fids), dtype=np.int64)
        for i, fid in enumerate(np.asarray(fids).tolist()):
            block, seq = self._locate(fid)
            out[i] = block.n_edges[seq]
        return out

    def cycles(self) -> tuple[np.ndarray, np.ndarray]:
        """``(fids, levels)`` of every cycle fragment, fid-ascending."""
        fids, levels = [], []
        for key in sorted(self._blocks):
            block = self._blocks[key]
            seqs = np.flatnonzero(block.kind == _CYCLE)
            fids.append((key << _FID_PID_SHIFT) + seqs)
            level = block.level
            levels.append(level[seqs] if isinstance(level, np.ndarray)
                          else np.full(seqs.size, level, dtype=np.int64))
        if not fids:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(fids), np.concatenate(levels)

    def all_fragments(self) -> list[Fragment]:
        """Every registered fragment as a :class:`Fragment` view, fid order."""
        return [
            self.get((key << _FID_PID_SHIFT) | seq)
            for key in sorted(self._blocks)
            for seq in range(len(self._blocks[key]))
        ]

    def census(self) -> dict:
        """Fragment counts by kind plus the packed ItemArray rows still in
        memory (spilled blocks excluded) — the data-plane analogue of the
        paper's "persist ... to conserve memory" bookkeeping."""
        blocks = list(self._blocks.values())
        n_fragments = sum(len(b) for b in blocks)
        n_cycles = sum(int(np.count_nonzero(b.kind == _CYCLE)) for b in blocks)
        return {
            "n_fragments": n_fragments,
            "n_paths": n_fragments - n_cycles,
            "n_cycles": n_cycles,
            "n_item_rows": sum(
                int(b.items.shape[0]) for b in blocks if b.items is not None
            ),
        }

    # ---- spill --------------------------------------------------------------
    def spill(self, fid: int) -> None:
        """Persist the body of the block holding ``fid`` and free it.

        Thread-safe: concurrent spills of the same block write once.
        """
        self._locate(fid)
        self._spill_block(fid >> _FID_PID_SHIFT)

    def _spill_block(self, key: int) -> bool:
        if self.spill_dir is None:
            raise ValueError("store was created without a spill_dir")
        with self._lock:
            block = self._blocks[key]
            items = block.items
        if items is None:
            return False
        # Write first, clear after: a concurrent spill writes identical
        # bytes (benign), and items_of never sees a cleared body without a
        # complete file behind it.
        np.save(self._spill_path(key), items, allow_pickle=False)
        with self._lock:
            block.items = None
        return True

    def spill_level(self, level: int) -> int:
        """Spill every in-memory block adopted at ``level``; returns count.

        Drains the per-level unspilled index, so repeated calls (the commit
        hook spills after every batch) cost O(new blocks at that level).
        Hand-built fragments (key 0) spill only through :meth:`spill`.
        """
        with self._lock:
            keys = self._unspilled_by_level.pop(level, [])
        return sum(self._spill_block(key) for key in keys)

    def _spill_path(self, key: int) -> str:
        assert self.spill_dir is not None
        return os.path.join(self.spill_dir, f"block_{key}.npy")


def _empty_ob_paths() -> np.ndarray:
    return np.empty((0, 3), dtype=np.int64)


def _empty_fids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass
class PathMap:
    """Per-partition output of one Phase-1 run (Alg. 1's ``pathMap``).

    ``ob_paths`` are the coarse OB-pair edges handed to the next level;
    ``anchored_cycles`` are cycle fragments waiting to be spliced into the
    final circuit by Phase 3 (EB cycles, plus internal-vertex cycles that
    found no same-level pivot — the multi-component generalization noted in
    DESIGN.md).
    """

    pid: int
    level: int
    #: Path fragments as coarse edges: ``int64 (k, 3)`` rows ``(src, dst, fid)``.
    ob_paths: np.ndarray = field(default_factory=_empty_ob_paths)
    #: Raw-edge weight of each ``ob_paths`` row (``int64 (k,)``), aligned by
    #: index — together they form the next level's CoarseTable.
    ob_path_edges: np.ndarray = field(default_factory=_empty_fids)
    #: Cycle fragment ids pending Phase-3 splicing (``int64 (c,)``).
    anchored_cycles: np.ndarray = field(default_factory=_empty_fids)
    #: Count of internal-vertex cycles merged into other fragments (stats).
    n_merged_cycles: int = 0
    #: Count of trivial (zero-edge) EB tours skipped (stats).
    n_trivial: int = 0
