"""Orchestrate the staged pipeline: Setup → BSP run → Reconstruct.

:func:`run_pipeline` is the engine-room behind
:func:`repro.core.driver.find_euler_circuit`; it returns the full
:class:`~repro.pipeline.context.RunContext` so benchmarks and tools can
audit every stage product, not just the circuit.
"""

from __future__ import annotations

import numpy as np

from ..bsp.accounting import CAT_COPY_SINK, CAT_COPY_SRC, CAT_CREATE, CAT_PHASE1
from ..bsp.engine import BSPEngine
from ..core.circuit import EulerCircuit
from ..core.pathmap import FragmentStore
from ..graph.graph import Graph
from ..graph.partition import PartitionedGraph
from ..graph.properties import check_eulerian
from ..obs import Span, record_stage
from .context import RunConfig, RunContext
from .reconstruct import Reconstruct
from .setup import Setup

__all__ = ["run_pipeline"]

#: Superstep stage names derived from the Fig. 6 timing categories: the
#: BSP engine already times every partition-step category, so the runner
#: reports phase splits from :class:`~repro.bsp.accounting.RunStats`
#: instead of re-instrumenting the inner loop.
_STAGE_CATEGORIES = (
    ("phase1", (CAT_PHASE1,)),
    ("merge", (CAT_COPY_SINK, CAT_CREATE)),
    ("placement", (CAT_COPY_SRC,)),
)


def _record_superstep_stages(run_stats) -> None:
    """Report per-superstep phase1/merge/placement splits as stage spans."""
    for s, step in enumerate(run_stats.records):
        totals: dict[str, float] = {}
        for rec in step:
            for cat, sec in rec.timings.items():
                totals[cat] = totals.get(cat, 0.0) + sec
        for stage, cats in _STAGE_CATEGORIES:
            wall = sum(totals.get(cat, 0.0) for cat in cats)
            if wall > 0.0:
                record_stage(stage, wall, superstep=s)


def _make_checkpoint(token, faults):
    """The superstep-boundary hook: cancel check + fault injection.

    Both ride the same safe points so an injected fault interrupts a run
    exactly where a real failure (cancel, deadline, worker death) would —
    never mid-superstep, never with shared structures inconsistent.
    """
    if token is None and not faults:
        return None

    def check() -> None:
        if token is not None:
            token.check("superstep boundary")
        if faults:
            faults.superstep()

    return check


def run_pipeline(graph: Graph, config: RunConfig) -> RunContext:
    """Run the full partition-centric pipeline; returns the run artifact.

    When ``config.cancel`` carries a
    :class:`~repro.pipeline.cancel.CancelToken`, the run checks it at the
    start, at every superstep boundary and before Phase 3, raising
    :class:`~repro.errors.RunCancelledError` at the first tripped check.
    """
    token = config.cancel
    faults = config.faults
    if token is not None:
        token.check("pipeline start")
    ctx = RunContext.for_graph(graph, config)
    ctx.store = FragmentStore(spill_dir=config.spill_dir)

    if graph.n_edges == 0:
        if config.check_input:
            check_eulerian(graph)
        ctx.circuit = EulerCircuit(
            vertices=np.empty(0, dtype=np.int64),
            edge_ids=np.empty(0, dtype=np.int64),
        )
        ctx.partitioned = PartitionedGraph(
            graph, np.zeros(graph.n_vertices, dtype=np.int64), 1
        )
        return ctx

    with Span("setup"):
        program = Setup().run(graph, ctx)

    n_levels = len(ctx.tree.levels) + 1
    # A shared pool (job engine) supersedes the per-run backend: the engine
    # gets a session whose close() is a no-op, so pool lifecycle stays with
    # the pool's owner while this run still goes through the normal barrier
    # and commit machinery.
    executor = config.pool.session() if config.pool is not None else config.executor
    engine = BSPEngine(max_workers=config.workers, executor=executor,
                       hosts=config.hosts)
    states = {pid: None for pid in range(ctx.n_parts)}
    ctx.final_states, ctx.run_stats = engine.run(
        states,
        program,
        max_supersteps=n_levels + 2,
        on_commit=program.make_commit(ctx.store),
        check_abort=_make_checkpoint(token, faults),
    )

    _record_superstep_stages(ctx.run_stats)
    if token is not None:
        token.check("before reconstruct")
    with Span("phase3"):
        Reconstruct().run(graph, ctx)
    return ctx
