"""Pluggable superstep executors: serial, thread and process backends.

The BSP engine is parameterized by *where* each partition's compute runs
within a superstep; the barrier/commit logic stays in the engine. Three
interchangeable backends model increasingly truthful deployments of the
paper's Spark cluster:

``serial``
    Every partition runs on the calling thread in ascending pid order —
    fully deterministic, no GIL noise in timings. The default.
``thread``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`. Partitions
    share one address space (states and messages cross by reference), the
    single-machine concurrency the seed shipped with.
``process``
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor` — the
    truthful analogue of the paper's one-executor-per-partition machines.
    The compute program is installed once per worker (the "static graph
    loaded on every machine" cost); each task round-trips ``(state,
    messages)`` through real pickling, so nothing can leak between
    partitions except through messages and the returned results. What
    crosses that boundary is columnar: partition states are packed int64
    arrays (held rows, CoarseTable, remote-degree table) and a returned
    :class:`~repro.core.pathmap.FragmentBatch` pickles as its block: the
    walk kernel's ItemArray plus the per-root columns — a few raw buffers
    per task instead of per-element tuple encoding.

``remote``
    Partitions run on :class:`~repro.jobs.remote.WorkerHost` processes
    reached over TCP sockets — the paper's actual deployment shape. Tasks
    and result triples cross as length-prefixed binary frames
    (:mod:`repro.bsp.transport`) whose packed int64 columns ship raw,
    out-of-band of the meta pickle; the superstep program installs once
    per host as one frame whose tables ship the same way, and partitions
    pin to hosts via :class:`~repro.bsp.transport.StaticPlacement`. Replies
    are read on the calling thread, the one that runs Setup and Phase 3,
    so the blocks they carry land in the memory that thread already holds;
    one long-lived sender thread per host writes the task frames.

Each backend has exactly one wire: serial and thread pass tasks and
result triples by reference, the process pool pickles them through its
pipe, and the remote backend speaks the frame protocol.

All backends produce ``(pid, record, result)`` triples that the engine
commits in pid order, so the *outcome* of a run is identical under every
backend; only wall-clock interleaving (and serialization cost) changes.
The executor-parity test in ``tests/bsp/test_executor_parity.py`` enforces
this end-to-end.
"""

from __future__ import annotations

import pickle
import queue
import selectors
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable

from ..errors import BSPError, TransientJobError, UnknownExecutorError
from . import transport as transport_mod

from .accounting import PartitionStepRecord

__all__ = [
    "EXECUTORS",
    "SuperstepTask",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "RemoteExecutor",
    "SharedPool",
    "make_executor",
    "resolve_executor_name",
]

#: One partition's work item for a superstep: ``(pid, state, messages,
#: superstep)``.
SuperstepTask = tuple

# The compute program installed in each worker process by
# :class:`ProcessExecutor`'s initializer (one pickle per worker, not per
# task — the analogue of a machine loading its partition of the graph once).
_WORKER_PROGRAM: Callable | None = None


def run_task(compute: Callable, task: SuperstepTask):
    """Execute one partition-superstep and return ``(pid, record, result)``.

    Creates the :class:`PartitionStepRecord` next to the compute call so the
    triple is self-contained (and picklable) regardless of backend. Any
    compute time the program did not categorize is still recorded, so the
    Fig. 5 compute line never under-counts.
    """
    pid, state, messages, superstep = task
    rec = PartitionStepRecord(pid=pid, superstep=superstep)
    t0 = time.perf_counter()
    res = compute(pid, state, messages, rec, superstep)
    unaccounted = (time.perf_counter() - t0) - rec.compute_seconds
    if unaccounted > 0:
        rec.add_time("other", unaccounted)
    return pid, rec, res


def _process_init(program: Callable) -> None:
    global _WORKER_PROGRAM
    _WORKER_PROGRAM = program


def _process_task(task: SuperstepTask):
    return run_task(_WORKER_PROGRAM, task)


class _Closable:
    """Context-manager protocol shared by every executor backend.

    A long-lived service must be able to scope worker pools with ``with``;
    ``close()`` is idempotent under every backend, so exiting the block is
    always safe even after an explicit close.
    """

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(_Closable):
    """Run every partition inline, in the order given (ascending pid)."""

    name = "serial"

    def __init__(self, max_workers: int = 1):
        self.max_workers = 1

    def start(self, compute: Callable) -> None:
        self._compute = compute

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        return [run_task(self._compute, t) for t in tasks]

    def close(self) -> None:
        pass


class ThreadExecutor(_Closable):
    """Run partitions on a persistent thread pool (shared address space)."""

    name = "thread"

    def __init__(self, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def start(self, compute: Callable) -> None:
        self._compute = compute
        self._pool = ThreadPoolExecutor(max_workers=self.max_workers)

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        assert self._pool is not None, "start() must be called before supersteps"
        return list(self._pool.map(lambda t: run_task(self._compute, t), tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessExecutor(_Closable):
    """Run partitions on a process pool with real pickle round-trips.

    Requires the compute program and everything flowing through it (states,
    messages, records, results) to be picklable — which is exactly what the
    paper's distributed setting requires of partition state, making this
    backend an honest single-machine stand-in for the cluster.
    """

    name = "process"

    def __init__(self, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None

    def start(self, compute: Callable) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_process_init,
            initargs=(compute,),
        )

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        assert self._pool is not None, "start() must be called before supersteps"
        return list(self._pool.map(_process_task, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class RemoteExecutor(_Closable):
    """Run partitions on remote :class:`~repro.jobs.remote.WorkerHost`\\ s.

    The paper's deployment made real: each superstep's tasks are pinned to
    hosts by :class:`~repro.bsp.transport.StaticPlacement` (a partition's
    state always lands on the same host), pipelined down one framed socket
    per host, and the ``(pid, record, result)`` triples come back as frames
    whose packed columns were never re-encoded.

    :meth:`start` sends each host one ``install`` frame carrying the
    program object, whose tables the frame pickler ships out of band
    straight from its arrays: the coordinator keeps no serialized copy of
    a program it never calls. A host keeps the program only as long as
    this executor's connection; a task on a connection without one fails
    with :class:`~repro.errors.BSPError`.

    Replies are received on the thread that calls :meth:`run_superstep`
    (the one that ran Setup and will run Phase 3): one selector loop over
    the host sockets reads whole frames in the order they arrive, so the
    returned blocks are allocated where the rest of the run allocates and
    reuse the memory Setup freed. Tasks are encoded on that thread too and
    go out through one long-lived sender thread per host, started by
    :meth:`start`; sending and receiving overlap, so frames larger than
    the socket buffers cannot deadlock the host against the coordinator.
    :meth:`close` shuts the sockets down, which wakes a sender blocked
    mid-frame, and joins the senders.

    A host that disconnects mid-superstep raises
    :class:`~repro.errors.TransientJobError`: partition state for its shard
    is lost, so the *run* cannot be salvaged — but the job level can and
    does retry on the surviving hosts (the coordinator's re-dispatch path).
    """

    name = "remote"

    def __init__(self, hosts, max_workers: int | None = None,
                 connect_timeout: float = 10.0):
        addrs = transport_mod.parse_hosts(hosts)
        if not addrs:
            raise ValueError(
                "remote executor requires at least one worker host "
                "(hosts='host:port,...')"
            )
        self.hosts = addrs
        self.max_workers = len(addrs)
        self.connect_timeout = connect_timeout
        self.placement = transport_mod.StaticPlacement(len(addrs))
        self._conns: list[transport_mod.FrameConnection] = []
        #: Per host slot: the sender thread and its queue of
        #: ``(connection, encoded frame)`` pairs (``None`` stops it).
        self._senders: list[threading.Thread] = []
        self._outboxes: list[queue.SimpleQueue] = []
        #: Scoped wire accounting for this executor's task frames.
        self.wire = transport_mod.WireStats(scope="remote_executor")

    def start(self, compute: Callable) -> None:
        try:
            for addr in self.hosts:
                try:
                    conn = transport_mod.FrameConnection.open(
                        addr, self.connect_timeout, stats=self.wire)
                except OSError as exc:
                    raise TransientJobError(
                        f"cannot reach worker host {addr[0]}:{addr[1]}: {exc}"
                    ) from exc
                self._conns.append(conn)
            for conn in self._conns:
                reply = self._request(
                    conn, {"op": "install", "program": compute})
                if not reply.get("ok"):
                    raise TransientJobError(
                        f"worker host {conn.addr} rejected program install: "
                        f"{reply.get('error')}"
                    )
        except BaseException:
            self.close()
            raise
        for slot in range(len(self._conns)):
            outbox: queue.SimpleQueue = queue.SimpleQueue()
            sender = threading.Thread(
                target=_send_loop, args=(outbox,),
                name=f"remote-send-{slot}", daemon=True)
            sender.start()
            self._outboxes.append(outbox)
            self._senders.append(sender)

    def _request(self, conn: "transport_mod.FrameConnection", msg: dict) -> dict:
        try:
            return conn.request(msg)
        except (EOFError, OSError) as exc:
            raise TransientJobError(
                f"worker host {conn.addr} disconnected: {exc}"
            ) from exc

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        assert self._senders, "start() must be called before supersteps"
        groups = self.placement.group(tasks)
        # Every frame is encoded before any is sent, so a task that cannot
        # be pickled, or whose frame would exceed the cap, fails the
        # superstep with no host left owing a reply.
        frames = {slot: [transport_mod.encode_frame({"op": "task", "task": t})
                         for t in group]
                  for slot, group in groups.items()}
        replies: dict[int, list] = {slot: [] for slot in groups}
        with selectors.DefaultSelector() as ready:
            for slot, encoded in frames.items():
                conn = self._conns[slot]
                ready.register(conn.sock, selectors.EVENT_READ, (slot, conn))
                for frame in encoded:
                    self._outboxes[slot].put((conn, frame))
            while ready.get_map():
                for key, _ in ready.select():
                    slot, conn = key.data
                    try:
                        replies[slot].append(conn.recv())
                    except (EOFError, OSError) as exc:
                        raise TransientJobError(
                            f"worker host {conn.addr} disconnected "
                            f"mid-superstep: {exc}"
                        ) from exc
                    if len(replies[slot]) == len(groups[slot]):
                        ready.unregister(conn.sock)
        return [self._unpack(self._conns[slot], task, reply)
                for slot in sorted(groups)
                for task, reply in zip(groups[slot], replies[slot])]

    def _unpack(self, conn, task: SuperstepTask, reply: dict):
        if reply.get("ok"):
            pid, rec, res = reply["triple"]
            return pid, rec, res
        exc_bytes = reply.get("exc")
        if exc_bytes is not None:
            try:
                exc = pickle.loads(exc_bytes)
            except Exception:
                exc = None
            if isinstance(exc, BaseException):
                raise exc
        raise BSPError(
            f"remote task pid={task[0]} failed on {conn.addr}: "
            f"{reply.get('error')}"
        )

    def close(self) -> None:
        for conn in self._conns:
            conn.shutdown()
        for outbox in self._outboxes:
            outbox.put(None)
        for sender in self._senders:
            sender.join()
        for conn in self._conns:
            conn.close()
        self._conns, self._senders, self._outboxes = [], [], []


def _send_loop(outbox: "queue.SimpleQueue") -> None:
    """A remote sender thread: write each queued frame until ``None``.

    A failed write shuts its connection down, so the receiving loop reads
    end-of-stream from that host instead of waiting for replies to tasks
    that never left.
    """
    for conn, frame in iter(outbox.get, None):
        try:
            conn.write(frame)
        except OSError:
            conn.shutdown()
        # The frame's buffers are the task's own arrays: an idle sender
        # must not keep the last state it sent alive.
        del frame


# ---------------------------------------------------------------------------
# The shared, persistent pool (job-orchestration substrate)
# ---------------------------------------------------------------------------


class _ThreadSession(_Closable):
    """One run's executor view over a shared thread pool (close is a no-op)."""

    def __init__(self, pool: "SharedPool"):
        self._pool = pool
        self.name = pool.name
        self.max_workers = pool.max_workers

    def start(self, compute: Callable) -> None:
        self._compute = compute

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        return self._pool._map(self._compute, tasks)

    def close(self) -> None:  # the pool outlives the run; the owner closes it
        pass


class SharedPool(_Closable):
    """A persistent thread pool multiplexed across many pipeline runs.

    The per-request execution path builds and tears down a pool inside every
    :func:`~repro.pipeline.run_pipeline` call; a long-lived service instead
    owns **one** ``SharedPool`` and hands each run a *session*
    (:meth:`session`) — an object satisfying the executor protocol whose
    ``close()`` leaves the pool running, so the engine's own lifecycle
    management cannot kill the shared workers. Only the owner's
    :meth:`close` (or the context manager) shuts the pool down. Sessions
    may be used concurrently from multiple dispatcher threads; the stdlib
    thread pool is thread-safe.
    """

    name = "shared-thread"

    def __init__(self, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=max_workers)

    @property
    def closed(self) -> bool:
        return self._pool is None

    def session(self):
        """A fresh executor-protocol adapter bound to this pool."""
        if self._pool is None:
            raise RuntimeError("SharedPool is closed")
        return _ThreadSession(self)

    def _map(self, compute: Callable, tasks: list[SuperstepTask]) -> list:
        if self._pool is None:
            raise RuntimeError("SharedPool is closed")
        return list(self._pool.map(lambda t: run_task(compute, t), tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Registry of executor backends selectable by name from
#: :func:`repro.core.driver.find_euler_circuit`, the CLI and the bench
#: harness.
EXECUTORS: dict[str, type] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "remote": RemoteExecutor,
}


def resolve_executor_name(executor: str | Any | None,
                          max_workers: int = 1) -> str:
    """The backend name an executor spec resolves to.

    ``None`` keeps the historical default: serial when ``max_workers == 1``,
    a thread pool otherwise. The single source of truth for that rule —
    run artifacts report executors through this resolution too. An unknown
    string raises :class:`~repro.errors.UnknownExecutorError` (a
    ``ValueError``) listing the valid backends instead of flowing through
    to a confusing downstream ``KeyError``; an executor *instance* resolves
    to its ``name`` attribute.
    """
    if executor is None:
        return "serial" if max_workers <= 1 else "thread"
    if not isinstance(executor, str):
        return getattr(executor, "name", type(executor).__name__)
    if executor not in EXECUTORS:
        raise UnknownExecutorError(executor, EXECUTORS)
    return executor


def make_executor(executor: str | Any | None, max_workers: int = 1,
                  hosts=None):
    """Resolve an executor spec into a backend instance.

    A string (or ``None``, via :func:`resolve_executor_name`) selects from
    :data:`EXECUTORS`; an object with ``start``/``run_superstep``/``close``
    is used as-is. ``hosts`` is required by — and only meaningful for — the
    ``remote`` backend.
    """
    if executor is None or isinstance(executor, str):
        name = resolve_executor_name(executor, max_workers)
        if name == "remote":
            return RemoteExecutor(hosts)
        return EXECUTORS[name](max_workers=max_workers)
    if all(hasattr(executor, a) for a in ("start", "run_superstep", "close")):
        return executor
    raise TypeError(f"not an executor: {executor!r}")
