"""Partition-centric BSP engine (the Spark/Giraph substitute).

Executes a user compute function over every *active* partition each
superstep, delivers messages in bulk after a global barrier, and repeats
until every partition has voted to halt and no messages are in flight —
Pregel's termination rule lifted to partitions (§2.1 of the paper).

*Where* the per-partition compute runs is delegated to a pluggable executor
backend (:mod:`repro.bsp.executors`): ``serial`` (deterministic timings),
``thread`` (shared-memory pool) or ``process`` (real pickle round-trips, the
paper's distributed-machines analogue). Results are committed in pid order
under every backend, so the *outcome* of a run is backend-independent; only
the wall-clock interleaving changes.

Every superstep is timed barrier-to-barrier and per-partition compute time
is recorded separately, giving the Fig. 5 "total vs compute" split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

from ..errors import BSPError
from .accounting import PartitionStepRecord, RunStats
from .executors import make_executor
from .messages import MailRouter

__all__ = ["ComputeResult", "BSPEngine"]


@dataclass
class ComputeResult:
    """What a partition's compute function returns each superstep.

    Attributes
    ----------
    state:
        The partition's new state (``None`` retires the partition for good —
        its pid no longer participates, messages to it raise).
    outgoing:
        Messages keyed by destination pid, delivered next superstep.
    halt:
        Vote to halt. A halted partition is re-activated when a message
        arrives for it; the run ends when all votes are halt and no message
        is in flight.
    payload:
        Program-defined side-band data (e.g. a fragment batch produced out
        of process) handed to the engine's ``on_commit`` hook; the engine
        itself never interprets it.
    """

    state: Any
    outgoing: Mapping[Hashable, list] = field(default_factory=dict)
    halt: bool = True
    payload: Any = None


#: Signature of the per-partition compute function:
#: ``compute(pid, state, messages, record, superstep) -> ComputeResult``.
ComputeFn = Callable[[Hashable, Any, list, PartitionStepRecord, int], ComputeResult]

#: Signature of the optional commit hook, called in pid order inside the
#: barrier: ``on_commit(pid, record, result, superstep)``.
CommitFn = Callable[[Hashable, PartitionStepRecord, ComputeResult, int], None]


class BSPEngine:
    """Superstep loop with barrier-synchronized bulk messaging."""

    def __init__(self, max_workers: int = 1, executor: str | Any | None = None,
                 hosts=None):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.executor = executor
        #: ``host:port`` specs for the ``remote`` backend; ignored otherwise.
        self.hosts = hosts

    def run(
        self,
        initial_states: Mapping[Hashable, Any],
        compute: ComputeFn,
        max_supersteps: int = 1000,
        on_commit: CommitFn | None = None,
        check_abort: Callable[[], None] | None = None,
    ) -> tuple[dict[Hashable, Any], RunStats]:
        """Run to quiescence; returns final states and :class:`RunStats`.

        ``on_commit`` runs in the engine (parent) process, in pid order,
        after each superstep's results are gathered — the single mutation
        point for shared structures (fragment stores, spill directories)
        that out-of-process compute cannot touch directly.

        ``check_abort`` (optional) runs in the engine process at the top of
        every superstep — the cooperative-cancellation checkpoint. It stops
        the run by raising; a superstep that has started always completes,
        so shared state stays consistent. Backend-independent: the loop
        lives here, not on the workers.

        Raises
        ------
        BSPError
            If ``max_supersteps`` elapses without quiescence (a guard against
            non-terminating algorithms) or a message targets a retired or
            unknown pid.
        """
        states: dict[Hashable, Any] = dict(initial_states)
        retired: set[Hashable] = set()
        router = MailRouter()
        stats = RunStats()
        active: set[Hashable] = set(states)
        backend = make_executor(self.executor, self.max_workers,
                                hosts=self.hosts)
        backend.start(compute)

        try:
            for superstep in range(max_supersteps):
                if check_abort is not None:
                    check_abort()
                runnable = sorted(active | set(router.destinations()))
                if not runnable:
                    return states, stats
                t_step = time.perf_counter()
                tasks = [
                    (pid, states.get(pid), router.receive(pid), superstep)
                    for pid in runnable
                ]
                triples = backend.run_superstep(tasks)

                # Commit in pid order for determinism regardless of backend.
                step_records: list[PartitionStepRecord] = []
                for pid, rec, res in sorted(triples, key=lambda t: str(t[0])):
                    if not isinstance(res, ComputeResult):
                        raise BSPError(
                            f"compute for pid {pid} returned {type(res).__name__}, "
                            "expected ComputeResult"
                        )
                    step_records.append(rec)
                    if res.state is None:
                        states.pop(pid, None)
                        retired.add(pid)
                        active.discard(pid)
                    else:
                        states[pid] = res.state
                        if res.halt:
                            active.discard(pid)
                        else:
                            active.add(pid)
                    for dst, msgs in res.outgoing.items():
                        if dst in retired:
                            raise BSPError(f"message sent to retired partition {dst}")
                        if dst not in states and dst not in initial_states:
                            raise BSPError(f"message sent to unknown partition {dst}")
                        router.send_many(dst, msgs)
                    if on_commit is not None:
                        on_commit(pid, rec, res, superstep)

                router.barrier()
                stats.records.append(step_records)
                wall = time.perf_counter() - t_step
                stats.superstep_wall.append(wall)
                stats.platform_overhead += max(
                    0.0, wall - sum(r.compute_seconds for r in step_records)
                )
                if not active and not router.has_current:
                    return states, stats
            raise BSPError(f"no quiescence after {max_supersteps} supersteps")
        finally:
            backend.close()
