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
    :class:`~repro.core.pathmap.FragmentBatch` pickles all its fragment
    bodies as one concatenated ItemArray buffer plus a metadata table —
    a few raw buffers per task instead of per-element tuple encoding.

``remote``
    Partitions run on :class:`~repro.jobs.remote.WorkerHost` processes
    reached over TCP sockets — the paper's actual deployment shape. Tasks
    and result triples cross as length-prefixed binary frames
    (:mod:`repro.bsp.transport`) whose packed int64 columns ship raw,
    out-of-band of the meta pickle; the superstep program installs once
    per host as one frame whose tables ship the same way, and partitions
    pin to hosts via :class:`~repro.bsp.transport.StaticPlacement`.

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

import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Hashable

from ..errors import BSPError, TransientJobError, UnknownExecutorError
from . import shm
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
        self._pool: ThreadPoolExecutor | None = None
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
        self._pool = ThreadPoolExecutor(max_workers=len(self._conns))

    def _request(self, conn: "transport_mod.FrameConnection", msg: dict) -> dict:
        try:
            return conn.request(msg)
        except (EOFError, OSError) as exc:
            raise TransientJobError(
                f"worker host {conn.addr} disconnected: {exc}"
            ) from exc

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        assert self._pool is not None, "start() must be called before supersteps"
        groups = self.placement.group(tasks)
        futures = {slot: self._pool.submit(self._run_host, slot, group)
                   for slot, group in groups.items()}
        out: list = []
        first_error: BaseException | None = None
        for slot in sorted(futures):
            try:
                out.extend(futures[slot].result())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return out

    def _run_host(self, slot: int, tasks: list[SuperstepTask]) -> list:
        conn = self._conns[slot]
        # The task burst is pumped from a helper thread while this thread
        # drains replies. Sending everything first and only then receiving
        # deadlocks once frames outgrow the socket buffers: the host blocks
        # sending reply 1 to a peer that is itself blocked sending task 2.
        # Draining concurrently means the host's replies always have a
        # reader, so its recv loop always makes progress.
        send_err: list[BaseException] = []

        def pump():
            try:
                for t in tasks:
                    conn.send({"op": "task", "task": t})
            except BaseException as exc:
                send_err.append(exc)

        sender = threading.Thread(
            target=pump, name=f"remote-send-{slot}", daemon=True)
        sender.start()
        try:
            replies = [conn.recv() for _ in tasks]
        except (EOFError, OSError) as exc:
            # The sender may still be blocked mid-frame; closing the
            # connection (the caller's error path) unblocks it.
            raise TransientJobError(
                f"worker host {conn.addr} disconnected mid-superstep: {exc}"
            ) from exc
        # All replies arrived, so the host consumed every task frame and
        # the sender is finished (or completing its final buffered write).
        sender.join()
        if send_err:
            exc = send_err[0]
            if isinstance(exc, (EOFError, OSError)):
                raise TransientJobError(
                    f"worker host {conn.addr} disconnected mid-superstep: "
                    f"{exc}"
                ) from exc
            raise exc
        return [self._unpack(conn, t, r) for t, r in zip(tasks, replies)]

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

    def wire_stats(self) -> dict:
        return {
            "hosts": len(self.hosts),
            "frames_sent": sum(c.frames_sent for c in self._conns),
            "frames_received": sum(c.frames_received for c in self._conns),
            "bytes_sent": sum(c.bytes_sent for c in self._conns),
        }

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for conn in self._conns:
            conn.close()
        self._conns = []


# ---------------------------------------------------------------------------
# Shared, persistent pools (job-orchestration substrate)
# ---------------------------------------------------------------------------

# Worker-side cache of superstep programs keyed by session: a shared process
# pool serves many runs, so each worker unpickles a run's program at most
# once and reuses it for every later task of that run. Keys are minted per
# session and never repeat, so a run never sees another run's program (whose
# level-0 tables that run's own tasks have already popped). Bounded so a
# very long-lived worker cannot accumulate graphs forever.
_SHARED_PROGRAMS: dict[str, Callable] = {}
_SHARED_PROGRAM_CAP = 8


class ProgramSegmentGone(RuntimeError):
    """A worker found its program's shared segment already unlinked.

    Raised across the pool boundary so the parent can replay the superstep
    with the raw pickled payload — the portable fallback is always correct,
    the descriptor path is only an optimization.
    """


def _shared_process_task(arg):
    key, wire, task = arg
    prog = _SHARED_PROGRAMS.get(key)
    if prog is None:
        kind, body = wire
        if kind == "seg":
            try:
                views = shm.attach_arrays(body)
            except FileNotFoundError:
                raise ProgramSegmentGone(key) from None
            prog = pickle.loads(views["payload"])
            del views  # drops the adopted mapping with the last view
        else:
            prog = pickle.loads(body)
        while len(_SHARED_PROGRAMS) >= _SHARED_PROGRAM_CAP:
            _SHARED_PROGRAMS.pop(next(iter(_SHARED_PROGRAMS)))
        _SHARED_PROGRAMS[key] = prog
    return run_task(prog, task)


class _ThreadSession(_Closable):
    """One run's executor view over a shared thread pool (close is a no-op)."""

    def __init__(self, pool: "SharedPool"):
        self._pool = pool
        self.name = pool.name
        self.max_workers = pool.max_workers

    def start(self, compute: Callable) -> None:
        self._compute = compute

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        return self._pool._map_thread(self._compute, tasks)

    def close(self) -> None:  # the pool outlives the run; the owner closes it
        pass


class _ProcessSession(_Closable):
    """One run's executor view over a shared process pool.

    ``start`` pickles the superstep program once and mints a fresh key for
    this session; every task ships ``(key, payload)`` and workers cache the
    unpickled program under that key, so a warm worker pays one dict lookup
    per task instead of a per-run pool spawn plus per-worker initializer
    pickle. The key is random, not a content hash: a program is stateful
    (it drops each level-0 table after its last reader), so two identical
    runs must never share a cached copy. ``close`` unpublishes the
    program's segment, which no later run would look up.
    """

    def __init__(self, pool: "SharedPool"):
        self._pool = pool
        self.name = pool.name
        self.max_workers = pool.max_workers
        self._key = ""

    def start(self, compute: Callable) -> None:
        self._payload = pickle.dumps(compute, protocol=pickle.HIGHEST_PROTOCOL)
        self._key = os.urandom(8).hex()
        self._pool._register_program(self._key, self._payload)

    def run_superstep(self, tasks: list[SuperstepTask]) -> list:
        return self._pool._map_process(self._key, self._payload, tasks)

    def close(self) -> None:  # the pool outlives the run; the owner closes it
        self._pool._unregister_program(self._key)


class SharedPool(_Closable):
    """A persistent worker pool multiplexed across many pipeline runs.

    The per-request execution path builds and tears down a pool inside every
    :func:`~repro.pipeline.run_pipeline` call; a long-lived service instead
    owns **one** ``SharedPool`` and hands each run a *session*
    (:meth:`session`) — an object satisfying the executor protocol whose
    ``close()`` leaves the pool running, so the engine's own lifecycle
    management cannot kill the shared workers. Only the owner's
    :meth:`close` (or the context manager) shuts the pool down. Sessions
    may be used concurrently from multiple dispatcher threads; both
    stdlib pools are thread-safe.
    """

    def __init__(self, kind: str = "thread", max_workers: int = 4):
        if kind not in ("thread", "process"):
            raise ValueError(f"unknown pool kind {kind!r}; use 'thread' or 'process'")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.kind = kind
        self.max_workers = max_workers
        self.name = f"shared-{kind}"
        # Program payloads published once into shared memory so each task
        # ships a tiny (segment, offset, shape, dtype) descriptor instead of
        # the full pickled program. Lazily created on first registration;
        # bounded LRU — an evicted program transparently falls back to the
        # raw-payload wire (see ProgramSegmentGone).
        self._segstore: shm.SharedSegmentStore | None = None
        self._prog_order: list[str] = []
        self._seg_lock = threading.Lock()
        if kind == "thread":
            self._pool: Any = ThreadPoolExecutor(max_workers=max_workers)
        else:
            self._pool = ProcessPoolExecutor(max_workers=max_workers)

    @property
    def closed(self) -> bool:
        return self._pool is None

    def session(self):
        """A fresh executor-protocol adapter bound to this pool."""
        if self._pool is None:
            raise RuntimeError("SharedPool is closed")
        return _ThreadSession(self) if self.kind == "thread" else _ProcessSession(self)

    def _map_thread(self, compute: Callable, tasks: list[SuperstepTask]) -> list:
        if self._pool is None:
            raise RuntimeError("SharedPool is closed")
        return list(self._pool.map(lambda t: run_task(compute, t), tasks))

    def _register_program(self, key: str, payload: bytes) -> None:
        """Publish a program payload to shared memory (LRU, cap 8).

        No-op for thread pools or when POSIX shared memory is unavailable —
        the raw-payload wire stays fully functional without it.
        """
        if self.kind != "process" or not shm.shm_available():
            return
        with self._seg_lock:
            if self._segstore is None:
                self._segstore = shm.SharedSegmentStore(tag="prog")
            if key in self._segstore:
                self._prog_order.remove(key)
                self._prog_order.append(key)
                return
            self._segstore.publish_bytes(key, payload)
            self._prog_order.append(key)
            while len(self._prog_order) > _SHARED_PROGRAM_CAP:
                self._segstore.unpublish(self._prog_order.pop(0))

    def _unregister_program(self, key: str) -> None:
        """Unpublish a finished run's program segment (no-op if evicted)."""
        with self._seg_lock:
            if key in self._prog_order:
                self._prog_order.remove(key)
                self._segstore.unpublish(key)

    def _program_wire(self, key: str, payload: bytes):
        """Per-superstep wire for a program: segment descriptor or raw bytes.

        Resolved fresh each superstep so a program evicted mid-job degrades
        to the raw payload instead of a dead descriptor.
        """
        with self._seg_lock:
            if self._segstore is not None and key in self._segstore:
                return ("seg", self._segstore.descriptor(key))
        return ("raw", payload)

    def _map_process(self, key: str, payload: bytes, tasks: list[SuperstepTask]) -> list:
        if self._pool is None:
            raise RuntimeError("SharedPool is closed")
        wire = self._program_wire(key, payload)
        futures = [self._pool.submit(_shared_process_task, (key, wire, t))
                   for t in tasks]
        try:
            results = []
            for fut, task in zip(futures, tasks):
                try:
                    results.append(fut.result())
                except ProgramSegmentGone:
                    # Evicted between resolve and attach: replay this task
                    # alone on the raw wire. Tasks that did run must not run
                    # twice — a program drops each level-0 table after its
                    # last reader.
                    replay = self._pool.submit(
                        _shared_process_task, (key, ("raw", payload), task))
                    results.append(replay.result())
            return results
        finally:
            for pending in futures:  # no-op for finished ones
                pending.cancel()

    def segment_stats(self) -> dict:
        """Program segment-store stats (zeros when the store is idle)."""
        with self._seg_lock:
            if self._segstore is None:
                return {"segments": 0, "bytes": 0, "attaches": 0}
            return self._segstore.stats()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        with self._seg_lock:
            if self._segstore is not None:
                self._segstore.close()
                self._segstore = None
                self._prog_order.clear()


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
