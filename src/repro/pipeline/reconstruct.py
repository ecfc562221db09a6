"""Pipeline stage 3 — Reconstruct: unroll the fragment hierarchy (Phase 3).

The part the paper left to future work: splice every anchored cycle into the
top-level cycle and expand coarse items recursively into the final Euler
circuit, then (optionally) verify it against the input graph.
"""

from __future__ import annotations

import time

from ..core.circuit import verify_circuit
from ..core.phase3 import reconstruct_circuit
from ..errors import NotEulerianError
from ..graph.graph import Graph
from .context import RunContext

__all__ = ["Reconstruct"]


class Reconstruct:
    """Produce (and optionally verify) the circuit from the fragment store."""

    def run(self, graph: Graph, ctx: RunContext) -> None:
        t3 = time.perf_counter()
        store = ctx.store
        fids, levels = store.cycles()
        if not fids.size:
            raise NotEulerianError(
                "no cycle fragments produced (empty partition run?)"
            )
        # Base = the highest-level cycle (the root partition's unified cycle).
        # Note the *partition id* running the final Phase 1 with real content
        # may differ from tree.root when empty partitions pad the tree, so we
        # key on level (and fid for determinism), not pid. ``fids`` ascend.
        base_fid = int(fids[levels == levels.max()][0])
        ctx.circuit = reconstruct_circuit(store, fids, base_fid)
        ctx.phase3_seconds = time.perf_counter() - t3

        if ctx.config.verify:
            verify_circuit(graph, ctx.circuit)
            ctx.verified = True
