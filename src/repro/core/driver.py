"""The end-to-end driver — a thin façade over :mod:`repro.pipeline`.

:func:`find_euler_circuit` is the library's main entry point. The actual
work lives in the staged pipeline (``Setup`` → ``SuperstepProgram`` →
``Reconstruct``, see ARCHITECTURE.md); this module keeps the stable
call-signature, the :class:`EulerResult` return type, and re-exports
:class:`ExecutionReport` for existing imports.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.graph import Graph
from ..graph.partition import PartitionedGraph
from ..pipeline import RunConfig, RunContext, run_pipeline
from ..pipeline.context import ExecutionReport  # noqa: F401  (re-export)
from .circuit import EulerCircuit
from .pathmap import FragmentStore

__all__ = ["ExecutionReport", "EulerResult", "find_euler_circuit"]


@dataclass
class EulerResult:
    """Return value of :func:`find_euler_circuit`."""

    circuit: EulerCircuit
    report: ExecutionReport
    partitioned: PartitionedGraph
    store: FragmentStore
    #: The full staged-pipeline artifact (every stage product; see
    #: :class:`repro.pipeline.RunContext`).
    context: RunContext | None = None


def find_euler_circuit(
    graph: Graph,
    n_parts: int = 4,
    partitioner: str = "ldg",
    strategy: str = "eager",
    matching: str = "greedy",
    seed: int = 0,
    spill_dir=None,
    validate: bool = False,
    verify: bool = False,
    check_input: bool = True,
    engine_workers: int = 1,
    executor: str | None = None,
    hosts=None,
) -> EulerResult:
    """Find an Euler circuit with the partition-centric distributed algorithm.

    Parameters mirror the paper's pipeline: ``n_parts`` initial partitions
    ("machines", clamped to the vertex count) are partitioned with
    ``partitioner`` (``"ldg"`` | ``"bfs"`` | ``"hash"`` | ``"random"``),
    merged up a static tree built with ``matching`` (``"greedy"`` |
    ``"random"``) under the §5 remote-edge ``strategy`` (``"eager"`` |
    ``"dedup"`` | ``"deferred"`` | ``"proposed"``). ``spill_dir`` spills
    fragment bodies to disk; ``validate`` checks Lemmas 1–3 during Phase 1;
    ``verify`` checks the final circuit; ``check_input`` pre-checks the
    graph is Eulerian + connected.

    ``executor`` selects the BSP backend: ``"serial"`` (deterministic
    timings), ``"thread"``, ``"process"`` (one OS process per worker with
    real pickle round-trips — the truthful analogue of the paper's
    distributed machines), or ``"remote"`` (partitions on
    :class:`~repro.jobs.remote.WorkerHost` processes reached over sockets;
    requires ``hosts="host:port,..."``). ``engine_workers`` sets the pool
    width; the default ``executor=None`` keeps the historical behavior
    (serial when ``engine_workers == 1``, threads otherwise). Every backend
    produces an identical circuit and fragment store.

    Raises
    ------
    NotEulerianError / DisconnectedGraphError
        If the input has odd-degree vertices or disconnected edges.
    InvalidCircuitError
        If ``verify=True`` and the produced circuit is invalid (a bug).
    """
    config = RunConfig(
        n_parts=n_parts,
        partitioner=partitioner,
        strategy=strategy,
        matching=matching,
        seed=seed,
        executor=executor,
        hosts=hosts,
        workers=engine_workers,
        spill_dir=spill_dir,
        validate=validate,
        verify=verify,
        check_input=check_input,
    )
    ctx = run_pipeline(graph, config)
    return EulerResult(ctx.circuit, ctx.report, ctx.partitioned, ctx.store, ctx)
