"""Pipeline stage 2 — SuperstepProgram: the BSP compute function as a class.

One instance runs Phase 1 + the child→parent state transfer (Phase 2) for
every partition at every merge level. The instance is a plain picklable
value — plan data only, one copy of each level-0 table, every entry dropped
once its last reader has run — so the ``process`` executor can install it
once per worker and run partitions out of process with real serialization
boundaries, exactly like the paper's one-machine-per-partition deployment:

* a child partition's state crosses to its parent as one pickle
  (:meth:`SuperstepProgram._ship_state`) inside the result's outgoing
  messages, whatever the executor;
* a run's fragments go into a :class:`FragmentBatch` as one block with
  structured, coordination-free ids (:func:`repro.core.pathmap.make_fid`)
  and travel back in ``ComputeResult.payload``;
* the engine's commit hook (:meth:`SuperstepProgram.make_commit`) adopts
  each batch's block into the parent-side :class:`FragmentStore` in pid
  order, the single mutation point for shared state — so serial, thread
  and process backends produce bit-identical fragment stores and circuits.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from ..bsp.accounting import (
    CAT_COPY_SINK,
    CAT_COPY_SRC,
    CAT_CREATE,
    CAT_PHASE1,
    PartitionStepRecord,
)
from ..bsp.engine import ComputeResult
from ..core.merging import (
    PartitionState,
    local_edges_level0,
    merge_states,
    phase1_state_longs,
)
from ..core.pathmap import FragmentBatch, FragmentStore
from ..core.phase1 import EDGE_RAW, run_phase1
from ..graph.graph import Graph

__all__ = ["SuperstepProgram"]


class SuperstepProgram:
    """Per-partition compute for one superstep (= one merge level).

    Parameters
    ----------
    graph:
        The input graph; level-0 runs read their local edges' endpoints
        from it (each worker's copy stands in for the graph a machine
        loads once).
    local0, rdeg0, held0:
        The level-0 tables, one entry per partition: its local edge ids
        ``L_i``, its remote-degree table, and the remote half-edge rows it
        holds (strategy placement). Each entry is dropped after its last
        reader, so a run never keeps a table the rest of the run cannot
        read: ``local0``/``rdeg0`` at the partition's level-0 run,
        ``held0`` at the merge that consumes the rows (until then a
        by-reference ship resolves against it), ``extras`` at the merge
        they were planned for.
    send_plan:
        ``child -> (parent, superstep)`` shipping plan from the static tree.
    extras:
        Deferred-strategy shipments keyed ``(parent, superstep)`` — the rows
        the leaves release into that parent's merge (empty unless deferred).
    validate:
        Lemma-checking flag, as in the driver.
    """

    def __init__(
        self,
        graph: Graph,
        local0: dict[int, np.ndarray],
        rdeg0: dict[int, np.ndarray],
        held0: dict[int, np.ndarray],
        send_plan: dict[int, tuple[int, int]],
        extras: dict[tuple[int, int], np.ndarray],
        validate: bool,
    ):
        self.graph = graph
        self.local0 = local0
        self.rdeg0 = rdeg0
        self.held0 = held0
        self.send_plan = send_plan
        self.extras = extras
        self.validate = validate

    # ---- state wire format -------------------------------------------------

    #: Placeholder held table while a by-reference state is on the wire.
    _HELD_SENTINEL = np.empty((0, 4), dtype=np.int64)

    def _ship_state(self, state: PartitionState):
        """Encode one child state for the executor boundary: pickle bytes.

        When the state's held table is (identically) the program's own
        ``held0[pid]`` — a leaf that never merged — the table ships as a
        by-reference token and zero bytes of it move: every worker already
        holds ``held0`` as program static data, the paper's
        graph-loaded-on-every-machine dedup.
        """
        held = state.held
        ref = state.pid if held is self.held0.get(state.pid) else None
        if ref is not None:
            state.held = self._HELD_SENTINEL
        try:
            return pickle.dumps((ref, state), protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            if ref is not None:
                state.held = held

    def _load_state(self, blob: bytes) -> PartitionState:
        """Decode one shipped child state."""
        ref, state = pickle.loads(blob)
        if ref is not None:
            state.held = self.held0[ref]
        return state

    # ---- the compute function (runs on any executor backend) --------------
    def __call__(
        self,
        pid: int,
        state: PartitionState | None,
        messages: list,
        rec: PartitionStepRecord,
        superstep: int,
    ) -> ComputeResult:
        level = superstep
        if superstep == 0:
            t0 = time.perf_counter()
            local_edges = local_edges_level0(
                self.local0.pop(pid), self.graph.edge_u, self.graph.edge_v
            )
            remote_deg = self.rdeg0.pop(pid)
            state = PartitionState(
                pid=pid, level=0, held=self.held0[pid], remote_deg=remote_deg,
                member_leaves=(pid,),
            )
            rec.add_time(CAT_CREATE, time.perf_counter() - t0)
        elif messages:
            t0 = time.perf_counter()
            children = [self._load_state(blob) for blob in messages]
            rec.add_time(CAT_COPY_SINK, time.perf_counter() - t0)
            t0 = time.perf_counter()
            # All rows the leaves release for this merge arrive with the
            # first child; merge_states re-examines retained rows as the
            # group grows, so this is equivalent to per-child shipping.
            extra = self.extras.pop((pid, superstep), None)
            edge_parts = []
            # The CoarseTables consumed by the merges carry the fid ->
            # n_edges weights the Phase-1 batch needs for prior fragments;
            # collect them before merge_states folds the tables into the
            # level's EdgeTable.
            known_coarse = state.known_coarse_edges()
            for child in children:
                known_coarse.update(child.known_coarse_edges())
                group = set(state.member_leaves) | set(child.member_leaves)
                state, le, _ = merge_states(state, child, group, extra_rows=extra)
                extra = None
                edge_parts.append(le)
            local_edges = (
                edge_parts[0] if len(edge_parts) == 1 else np.concatenate(edge_parts)
            )
            remote_deg = state.remote_deg
            # The children are merged in, and the merged leaves' level-0
            # rows have had their last reader.
            del children
            for leaf in state.member_leaves:
                self.held0.pop(leaf, None)
            rec.add_time(CAT_CREATE, time.perf_counter() - t0)
        else:
            # Idle partition carrying state (skipped this level, or waiting
            # to ship at a later level). Record its resident state so the
            # Fig. 8 cumulative series counts it.
            rec.state_longs = state.state_longs() if state else 0
            target = self.send_plan.get(pid)
            if target is not None and target[1] == level:
                t0 = time.perf_counter()
                blob = self._ship_state(state)
                rec.add_time(CAT_COPY_SRC, time.perf_counter() - t0)
                rec.sent_longs = state.state_longs()
                return ComputeResult(state=None, outgoing={target[0]: [blob]})
            still_waiting = target is not None and target[1] > level
            return ComputeResult(state=state, halt=not still_waiting)

        if superstep == 0:
            known_coarse = None  # level 0 consumes only raw edges
        pre_entries = state.n_pathmap_entries
        batch = FragmentBatch(pid, level, known_edges=known_coarse)
        t0 = time.perf_counter()
        pathmap, stats = self._phase1(pid, level, local_edges, remote_deg, batch)
        rec.add_time(CAT_PHASE1, time.perf_counter() - t0)
        state.level = level
        # CoarseTable rows (src, dst, fid, n_edges) for the just-produced
        # OB-pair paths: ob_paths plus its aligned weight column (which
        # replaces the old side-band ``coarse_meta`` dict).
        state.coarse = np.concatenate(
            (pathmap.ob_paths, pathmap.ob_path_edges[:, None]), axis=1
        )
        state.n_pathmap_entries = pre_entries + len(pathmap.ob_paths) + len(
            pathmap.anchored_cycles
        )

        # Fig. 8 unit: state as loaded for this Phase-1 run (vertices + local
        # edges + held remote edges + carried pathMap metadata).
        n_raw_local = int(np.count_nonzero(local_edges[:, 2] == EDGE_RAW))
        rec.state_longs = phase1_state_longs(
            stats.n_live_vertices,
            n_raw_local,
            int(local_edges.shape[0]) - n_raw_local,
            int(state.held.shape[0]),
            pre_entries,
        )
        rec.census = {
            "n_internal": stats.n_internal,
            "n_ob": stats.n_ob,
            "n_eb": stats.n_eb,
            "n_local_edges": stats.n_local_edges,
            "n_remote_half_edges": int(state.held.shape[0]),
            "phase1_cost": stats.phase1_cost,
            "n_paths": stats.n_paths,
            "n_anchored_cycles": len(pathmap.anchored_cycles),
        }

        target = self.send_plan.get(pid)
        if target is not None and target[1] == level:
            t0 = time.perf_counter()
            blob = self._ship_state(state)
            rec.add_time(CAT_COPY_SRC, time.perf_counter() - t0)
            rec.sent_longs = state.state_longs()
            return ComputeResult(
                state=None, outgoing={target[0]: [blob]}, payload=batch
            )
        still_waiting = target is not None
        return ComputeResult(state=state, halt=not still_waiting, payload=batch)

    # ---- Phase-1 entry (the incremental-repair override point) ------------
    def _phase1(self, pid, level, local_edges, remote_deg, batch):
        """Run Phase 1 for one (partition, level) node.

        ``run_phase1`` is a deterministic pure function of exactly these
        arguments (plus the batch's known-edge weights), which is what the
        dynamic-graph repair engine exploits: its program subclass
        intercepts this call, compares the inputs against a cached prior
        run, and replays the cached block when nothing changed.
        """
        return run_phase1(
            pid, level, local_edges, remote_deg, batch, validate=self.validate
        )

    def installed_remotely(self) -> None:
        """Drop every level-0 table and deferred shipment from this copy.

        The remote executor calls this once every worker host has
        acknowledged the install: the coordinator never calls its
        program, so these tables have no reader left in its process, and
        releasing them before the first superstep leaves their memory to
        the blocks the hosts send back.
        """
        for table in (self.local0, self.rdeg0, self.held0, self.extras):
            table.clear()

    # ---- parent-side commit (the single shared-state mutation point) ------
    def make_commit(self, store: FragmentStore):
        """Commit hook adopting each superstep's fragment blocks in pid order.

        It also drops each level-0 table from this process's program once
        the superstep that read it has committed, so a coordinator whose
        partitions run elsewhere keeps none past its last reader either
        (in process the compute has already popped them). A child shipping
        at superstep ``s`` merges into its parent at ``s + 1``; that merge
        absorbs the held rows of the parent's leaf and of a child that
        never merged (any other leaf was absorbed by an earlier merge).
        """
        merges: dict[tuple[int, int], list[int]] = {}
        for child, (parent, step) in self.send_plan.items():
            merges.setdefault((parent, step + 1), [parent]).append(child)

        def on_commit(pid, rec, res, superstep) -> None:
            if superstep == 0:
                self.local0.pop(pid, None)
                self.rdeg0.pop(pid, None)
            self.extras.pop((pid, superstep), None)
            for leaf in merges.pop((pid, superstep), ()):
                self.held0.pop(leaf, None)
            batch = res.payload
            if batch is None:
                return
            store.adopt(batch)
            if store.spill_dir is not None:
                store.spill_level(batch.level)

        return on_commit
