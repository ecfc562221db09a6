"""Incremental circuit repair: replay Phase 1 where the delta didn't land.

The correctness foundation is that
:func:`repro.core.phase1.run_phase1` is a **deterministic pure function**
of its inputs: the packed EdgeTable, the remote-degree table, and the
fragment batch's known coarse-edge weights. A :class:`RepairSession`
caches those inputs (and the outputs) per ``(pid, level)`` merge-tree
node from a prior run; on the next run its :class:`RepairProgram`
intercepts the pipeline's Phase-1 hook, compares the node's actual
inputs against the cache, and — when they are identical — installs a copy
of the cached fragment block instead of walking the partition again.

Why replay is bit-exact rather than merely close:

* Fragment ids are structured (:func:`repro.core.pathmap.make_fid` over
  ``(level, pid, seq)``) and ``seq`` is the row in the run's block, so a
  copy of the cached block installed into a fresh batch carries the
  *same* fids by construction — pathmaps, coarse tables and the Phase-3
  splice all reference fragments by fid and cannot tell a replayed run
  apart.
* A graph delta re-keys surviving edges; :meth:`GraphDelta.eid_map` is
  monotonic over survivors, so remapping a cached EdgeTable's
  ``EDGE_RAW`` refs (and the cached block's edge refs, direction bit
  kept) lands them exactly where a cold run on the mutated graph would
  put them. A node whose remapped inputs differ from the actuals — a dirty
  partition, or any merge ancestor of one — simply misses the cache and
  runs fresh, which *is* the cold computation for that node.

There is deliberately no dirty-propagation bookkeeping: the dirty set is
only a cheap upper bound used for the repair-vs-recompute decision;
correctness rests entirely on input comparison.

The session rides :attr:`RunConfig.repair` (process-local, stripped
before fan-out and wire crossings) and also carries the canonical
partition map forward across deltas via the shared
:func:`~repro.deltas.delta.extend_part_of` rule, so a repaired run and a
catalog-served full recompute of the child hash see the same
partitioning — the precondition for comparing their circuits at all.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np

from ..core.pathmap import FID_MIN, FORWARD, REF_MASK
from ..core.phase1 import EDGE_RAW
from ..graph.partition import PartitionedGraph
from ..pipeline.program import SuperstepProgram
from .delta import GraphDelta, extend_part_of

__all__ = ["RepairSession", "RepairProgram"]


class _NodeCache:
    """Cached Phase-1 inputs + outputs for one (pid, level) node."""

    __slots__ = ("local_edges", "remote_deg", "known", "pathmap", "stats",
                 "block")

    def __init__(self, local_edges, remote_deg, known, pathmap, stats,
                 block):
        self.local_edges = local_edges
        self.remote_deg = remote_deg
        self.known = known
        self.pathmap = pathmap
        self.stats = stats
        #: The session's own copy of the run's fragment block; a replay
        #: installs a copy of it, so its fids are the cached ones.
        self.block = block


class RepairProgram(SuperstepProgram):
    """A superstep program that consults a repair session at Phase 1."""

    def __init__(self, session: "RepairSession", **kwargs):
        super().__init__(**kwargs)
        self.session = session

    def _phase1(self, pid, level, local_edges, remote_deg, batch):
        return self.session.phase1(
            self, pid, level, local_edges, remote_deg, batch
        )


class RepairSession:
    """Cross-run Phase-1 cache + partition map for one evolving graph.

    Lifecycle::

        session = RepairSession()
        cold = run_scenario(g0, "circuit", replace(cfg, repair=session))
        session.advance(delta)            # g0 -> g1
        warm = run_scenario(g1, "circuit", replace(cfg, repair=session))

    The first run *captures* (every node misses and is recorded);
    ``advance`` re-keys the cache through the delta's eid map, extends
    the partition map, classifies dirty partitions, and decides repair
    vs full recompute against ``threshold``; the next run replays every
    node the delta provably didn't touch. ``last_report`` carries the
    decision, dirty set and hit/miss counters for the artifact pass
    history.

    Sessions are process-local accelerators: they pickle (for the
    process *executor*, whose workers replay from the shipped cache) but
    are stripped by every fan-out/wire path, and worker-side captures
    are discarded — capture runs should use the serial or thread
    backend.
    """

    def __init__(self, threshold: float = 0.5):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold
        self.part_of: np.ndarray | None = None
        self.n_parts: int | None = None
        self.cache: dict[tuple[int, int], _NodeCache] = {}
        self.mode = "capture"
        self.hits = 0
        self.misses = 0
        self.replayed_fragments = 0
        self.last_report: dict = {"decision": "capture"}
        self._lock = threading.Lock()

    # -- Setup integration ---------------------------------------------------

    def partitioned(self, graph, n_parts: int) -> PartitionedGraph | None:
        """The session's canonical partitioning of ``graph`` (or ``None``).

        ``None`` when the session has not captured yet or the request
        does not match what it captured — Setup then partitions cold and
        :meth:`build_program` adopts the result.
        """
        if (self.part_of is None
                or self.part_of.shape[0] != graph.n_vertices
                or self.n_parts != n_parts):
            return None
        return PartitionedGraph(graph, self.part_of, n_parts)

    def build_program(self, pg: PartitionedGraph, **kwargs) -> RepairProgram:
        """Setup's program factory; adopts the partition map on first use."""
        if self.part_of is None:
            self.part_of = np.array(pg.part_of, copy=True)
            self.n_parts = int(pg.n_parts)
        return RepairProgram(session=self, **kwargs)

    def derived_entry(self, graph, config) -> dict | None:
        """A ``config.derived`` mapping pinning a run to this session's map.

        Hand this to a *cold* run of the mutated graph to compare it
        bit-for-bit against a repaired run (both must partition
        identically for the comparison to be meaningful).
        """
        if self.part_of is None:
            return None
        n_eff = max(1, min(int(config.n_parts), graph.n_vertices))
        if (n_eff != self.n_parts
                or self.part_of.shape[0] != graph.n_vertices):
            return None
        return {
            "partition_map": {
                "part_of": self.part_of.copy(),
                "n_parts": n_eff,
                "partitioner": config.partitioner,
                "seed": int(config.seed),
                "n_vertices": graph.n_vertices,
                "n_edges": graph.n_edges,
            }
        }

    # -- the mutation boundary ----------------------------------------------

    def advance(self, delta: GraphDelta) -> dict:
        """Roll the session across one mutation; the repair decision dict.

        Re-keys every cached node through the delta's eid map (dropping
        nodes that reference deleted edges), extends the partition map
        over new vertices, and classifies the partitions the delta
        touches. Past ``threshold`` dirty fraction the cache is cleared
        — the next run is a clean capture (full recompute).
        """
        with self._lock:
            self.hits = self.misses = self.replayed_fragments = 0
            if (self.part_of is None
                    or self.part_of.shape[0] != delta.n_vertices_before):
                self.cache.clear()
                self.part_of = None
                self.n_parts = None
                self.mode = "capture"
                self.last_report = {
                    "decision": "recompute",
                    "reason": "no capture to repair from",
                    "delta": delta.summary(),
                }
                return dict(self.last_report)
            self.part_of = extend_part_of(self.part_of, delta)
            touched = delta.touched_vertices()
            dirty = np.unique(self.part_of[touched]) if touched.size else (
                np.empty(0, dtype=np.int64))
            dirty_fraction = (float(dirty.size) / self.n_parts
                              if self.n_parts else 0.0)
            if dirty_fraction > self.threshold:
                self.cache.clear()
                self.mode = "recompute"
            else:
                self.mode = "repair"
                self._remap_cache(delta.eid_map())
            self.last_report = {
                "decision": self.mode,
                "dirty_parts": [int(p) for p in dirty],
                "dirty_fraction": dirty_fraction,
                "threshold": self.threshold,
                "n_parts": self.n_parts,
                "cached_nodes": len(self.cache),
                "delta": delta.summary(),
            }
            return dict(self.last_report)

    def _remap_cache(self, emap: np.ndarray) -> None:
        """Re-key cached EdgeTables and fragment blocks into the new eid
        space; drop any node that references a deleted edge."""
        for key in list(self.cache):
            entry = self.cache[key]
            table = entry.local_edges
            raw = table[:, 2] == EDGE_RAW
            refs = emap[table[raw, 3]]
            if np.any(refs < 0):
                del self.cache[key]
                continue
            table[raw, 3] = refs
            code = entry.block.items[:, 0]
            rows = np.flatnonzero(code & REF_MASK < FID_MIN)
            code[rows] = emap[code[rows] & REF_MASK] | code[rows] & FORWARD

    # -- the Phase-1 hook ----------------------------------------------------

    def phase1(self, program, pid, level, local_edges, remote_deg, batch):
        """Replay the cached node when its inputs match; run fresh else."""
        key = (pid, level)
        entry = self.cache.get(key)
        if (entry is not None
                and np.array_equal(entry.local_edges, local_edges)
                and np.array_equal(entry.remote_deg, remote_deg)
                and entry.known == batch._known):
            # Copy: the adopted block outlives this session's next
            # advance(), which remaps the cached items in place.
            batch.add_block(entry.block.copy())
            with self._lock:
                self.hits += 1
                self.replayed_fragments += len(entry.block)
            return entry.pathmap, entry.stats
        pathmap, stats = SuperstepProgram._phase1(
            program, pid, level, local_edges, remote_deg, batch
        )
        self.cache[key] = _NodeCache(
            local_edges=np.array(local_edges, dtype=np.int64, copy=True),
            remote_deg=np.array(remote_deg, dtype=np.int64, copy=True),
            known=dict(batch._known),
            pathmap=pathmap,
            stats=stats,
            block=batch.block.copy(),
        )
        with self._lock:
            self.misses += 1
        return pathmap, stats

    # -- reporting / convenience --------------------------------------------

    def report(self) -> dict:
        """The last decision plus live hit/miss counters (pass history)."""
        out = dict(self.last_report)
        out.update(hits=self.hits, misses=self.misses,
                   replayed_fragments=self.replayed_fragments)
        return out

    def run(self, graph, scenario="circuit", config=None):
        """Run a scenario with this session attached; stamps timing into
        :attr:`last_report` (``repair_seconds``)."""
        from ..pipeline.context import RunConfig
        from ..scenarios.base import run_scenario

        if config is None:
            config = RunConfig()
        t0 = time.perf_counter()
        result = run_scenario(graph, scenario, replace(config, repair=self))
        self.last_report["repair_seconds"] = time.perf_counter() - t0
        return result

    # -- pickling (process-executor workers replay from a copied cache) ------

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
