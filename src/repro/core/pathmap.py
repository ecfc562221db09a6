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

Item encoding — the **ItemArray**, packed ``int64 (n, 2)`` rows, columns
``(ref | forward << 62, dst)``, 16 bytes a row:

``ref < 2**52``: a raw edge
    Undirected edge ``ref`` (an eid) traversed so that it *ends* at vertex
    ``dst``; ``forward`` records the traversal direction (nothing
    downstream reads it for edges, but delta repair keeps it).
``ref >= 2**52``: a fragment
    Lower-level path fragment ``ref`` (a fid, which :func:`make_fid` keeps
    in ``[2**52, 2**62)``) traversed toward ``dst``; ``forward`` is 1 when
    traversed from its ``src`` to its ``dst``.

``REF_MASK`` strips the direction bit (``FORWARD``), and ``FID_MIN``
splits edges from fragments, so no row needs a tag column. The implied
junction sequence of a fragment is ``src`` followed by the ``dst``
column; for cycles the last ``dst`` equals ``src``.

Storage unit — the **FragmentBlock**: one Phase-1 run's output, kept as the
walk kernel wrote it. Its ItemArray holds every root's body back to back,
and per-root columns (``kind``, ``src``, ``dst``, ``n_edges`` and row
``bounds``) describe them. Fragment ids are structured
(:func:`make_fid`), so ``fid >> 32`` names the block — the run's (level,
pid) — and ``fid & 0xFFFFFFFF`` is the fragment's row: a lookup needs no
per-fragment index and no per-fragment object. A batch crosses the
process and remote executor boundaries as its block (a few raw buffers),
the store adopts it with one dict insert, and a spill writes it as one
``.npy``. A block is the only way into the store; reads go through the
root columns (:meth:`FragmentStore.columns`) and the body slices
(:meth:`FragmentStore.body`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FID_MIN",
    "FORWARD",
    "FORWARD_SHIFT",
    "REF_MASK",
    "KIND_PATH",
    "KIND_CYCLE",
    "FragmentBatch",
    "FragmentBlock",
    "FragmentStore",
    "PathMap",
    "make_fid",
]

#: ItemArray column 0 is ``ref | forward << FORWARD_SHIFT``.
FORWARD_SHIFT = 62
FORWARD = 1 << FORWARD_SHIFT
REF_MASK = FORWARD - 1

KIND_PATH = "path"
KIND_CYCLE = "cycle"

_KINDS = (KIND_PATH, KIND_CYCLE)  # index = the block's ``kind`` column code
_CYCLE = _KINDS.index(KIND_CYCLE)
#: What :meth:`FragmentStore.columns` returns, in its order.
_COLUMNS = ("fid", "kind", "level", "pid", "src", "dst", "n_edges")


# Structured fragment-id packing: fid = ((level+1) << 52) | (pid << 32) | seq.
# A partition runs Phase 1 at most once per merge level, so (level, pid, seq)
# — with seq counting that run's fragments — is globally unique *without any
# shared counter*. Every executor backend (serial, thread, process) therefore
# mints bit-identical fids, which is what makes circuits reproducible across
# backends and lets out-of-process Phase-1 runs allocate ids independently.
# With level in [0, 1023) every fid lies in [2**52, 2**62): above any edge
# id and clear of the ItemArray's direction bit.
_FID_LEVEL_SHIFT = 52
_FID_PID_SHIFT = 32
_SEQ_MASK = (1 << _FID_PID_SHIFT) - 1
_MAX_LEVELS = (1 << (FORWARD_SHIFT - _FID_LEVEL_SHIFT)) - 1
#: The smallest fragment id; an ItemArray ref below it is a graph edge id.
FID_MIN = 1 << _FID_LEVEL_SHIFT


def make_fid(level: int, pid: int, seq: int) -> int:
    """Deterministic, coordination-free fragment id for (level, pid, seq)."""
    if not (0 <= level < _MAX_LEVELS):
        raise ValueError(f"level {level} out of fid range [0, {_MAX_LEVELS})")
    if not (0 <= pid < (1 << (_FID_LEVEL_SHIFT - _FID_PID_SHIFT))):
        raise ValueError(f"pid {pid} out of fid range")
    if not (0 <= seq < (1 << _FID_PID_SHIFT)):
        raise ValueError(f"fragment seq {seq} out of fid range")
    return ((level + 1) << _FID_LEVEL_SHIFT) | (pid << _FID_PID_SHIFT) | seq


class FragmentBlock:
    """One Phase-1 run's fragments: an ItemArray plus per-root columns.

    Row ``seq`` is the fragment with fid ``make_fid(level, pid, seq)``; its
    body is ``items[bounds[seq]:bounds[seq + 1]]``, rows of the ``(n, 2)``
    ItemArray. ``kind`` holds
    ``_KINDS`` codes (int8); ``src``, ``dst`` and ``n_edges`` are int64.
    ``items`` is ``None`` once the store has spilled the block. ``level``
    and ``pid`` are the run's (plain ints).
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

    Blocks are keyed by ``fid >> 32``, one per Phase-1 run, registered by
    :meth:`add_block` or adopted from the run's :class:`FragmentBatch`.

    With ``spill_dir`` set, :meth:`spill_level` writes each block's
    ItemArray to ``<spill_dir>/block_<key>.npy`` — a raw ``.npy`` buffer
    dump, no per-element encoding — and drops it from memory: the paper's
    "persist the mapping to disk ... allows the sets L and I to be removed
    to conserve memory". The root columns stay resident. :meth:`body`
    reads a spilled block through one memory map, opened on first use.
    """

    def __init__(self, spill_dir: str | os.PathLike | None = None):
        self._blocks: dict[int, FragmentBlock] = {}
        #: Spilled blocks' bodies, memory-mapped once each.
        self._mapped: dict[int, np.ndarray] = {}
        self.spill_dir = os.fspath(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
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

    @property
    def n_blocks(self) -> int:
        """Registered blocks: one per adopted Phase-1 run."""
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
            if block.items is not None:
                self._unspilled_by_level.setdefault(block.level, []).append(key)
        return base

    def adopt(self, batch: FragmentBatch) -> None:
        """Register a batch's block: one dict insert per Phase-1 run.

        The fragments keep their structured fids; ids minted by
        :func:`make_fid` cannot collide with each other.
        """
        if batch.block is not None:
            self.add_block(batch.block)

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

    def body(self, fid: int) -> tuple[np.ndarray, int]:
        """``(items, src)`` of ``fid`` with one lookup: what unrolling reads.

        ``items`` is a row slice of the block's ItemArray (of its memory
        map once spilled), never a copy.
        """
        block, seq = self._locate(fid)
        body = self._body(fid >> _FID_PID_SHIFT, block)
        return body[block.bounds[seq]:block.bounds[seq + 1]], int(block.src[seq])

    def kind_of(self, fid: int) -> str:
        block, seq = self._locate(fid)
        return _KINDS[block.kind[seq]]

    def level_of(self, fid: int) -> int:
        return self._locate(fid)[0].level

    def edge_counts(self, fids: np.ndarray) -> np.ndarray:
        """Raw-edge counts of the given fragments (``int64``, aligned)."""
        out = np.empty(len(fids), dtype=np.int64)
        for i, fid in enumerate(np.asarray(fids).tolist()):
            block, seq = self._locate(fid)
            out[i] = block.n_edges[seq]
        return out

    def columns(self) -> dict[str, np.ndarray]:
        """Every fragment's root columns, concatenated in fid order.

        Keys ``fid``, ``kind`` (int8 codes: 0 path, 1 cycle), ``level``,
        ``pid``, ``src``, ``dst`` and ``n_edges`` (int64). Only resident
        columns are read: a spilled block's body stays on disk.
        """
        cols = {name: [np.empty(0, dtype=np.int8 if name == "kind" else np.int64)]
                for name in _COLUMNS}
        for key in sorted(self._blocks):
            block = self._blocks[key]
            n = len(block)
            cols["fid"].append((key << _FID_PID_SHIFT) + np.arange(n, dtype=np.int64))
            cols["level"].append(np.full(n, block.level, dtype=np.int64))
            cols["pid"].append(np.full(n, block.pid, dtype=np.int64))
            for name in ("kind", "src", "dst", "n_edges"):
                cols[name].append(getattr(block, name))
        return {name: np.concatenate(parts) for name, parts in cols.items()}

    def cycles(self) -> tuple[np.ndarray, np.ndarray]:
        """``(fids, levels)`` of every cycle fragment, fid-ascending."""
        cols = self.columns()
        is_cycle = cols["kind"] == _CYCLE
        return cols["fid"][is_cycle], cols["level"][is_cycle]

    def census(self) -> dict:
        """Fragment counts by kind plus the packed ItemArray rows still in
        memory (spilled blocks excluded) — the data-plane analogue of the
        paper's "persist ... to conserve memory" bookkeeping."""
        kind = self.columns()["kind"]
        n_cycles = int(np.count_nonzero(kind == _CYCLE))
        return {
            "n_fragments": int(kind.size),
            "n_paths": int(kind.size) - n_cycles,
            "n_cycles": n_cycles,
            "n_item_rows": sum(
                int(b.items.shape[0]) for b in self._blocks.values()
                if b.items is not None
            ),
        }

    # ---- spill --------------------------------------------------------------
    def spill_level(self, level: int) -> int:
        """Spill every in-memory block adopted at ``level``; returns count.

        Drains the per-level unspilled index under the lock, so each block
        is written once, and repeated calls (the commit hook spills after
        every batch) cost O(new blocks at that level).
        """
        if self.spill_dir is None:
            raise ValueError("store was created without a spill_dir")
        with self._lock:
            keys = self._unspilled_by_level.pop(level, [])
        for key in keys:
            block = self._blocks[key]
            # Write first, clear after: body() never sees a cleared body
            # without a complete file behind it.
            np.save(self._spill_path(key), block.items, allow_pickle=False)
            block.items = None
        return len(keys)

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
    found no same-level pivot — the multi-component generalization that
    ARCHITECTURE.md's "Phase 3" section describes).
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
