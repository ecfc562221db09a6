"""Remote worker hosts: the paper's one-machine-per-partition tier, real.

Two halves, speaking the length-prefixed frame protocol of
:mod:`repro.bsp.transport` over TCP:

:class:`WorkerHost`
    A server process (``repro-euler worker``) owning its own
    :class:`~repro.jobs.catalog.GraphCatalog` root — its partition-local
    NPZ shard. It serves two granularities of work on the same protocol:

    * ``task`` — one partition-superstep for the ``remote`` BSP backend
      (:class:`~repro.bsp.executors.RemoteExecutor`): the already-packed
      int64 columns cross as raw out-of-band frame buffers, and the
      superstep program arrives as one ``install`` frame that lives as
      long as its connection;
    * ``run_job`` — one whole job spec, executed by
      :func:`repro.jobs.dispatch._run_spec`, the runner every dispatcher
      uses, over the host's own catalog, so derived-artifact reuse, cancel
      semantics, failure classification and the pass history are
      identical to single-machine serving.

    Control operations (``cancel``, ``ping``, ``ensure_graph``,
    ``put_graph``) arrive on separate connections served by their own
    threads, so a host mid-job stays steerable.

:class:`RemoteHostPool`
    The coordinator side: one of :class:`~repro.jobs.engine.JobEngine`'s
    three dispatchers (``run_job(job, spec, slot)`` → spec-out, see
    :mod:`repro.jobs.dispatch`), used in ``dispatcher="remote"`` mode:
    jobs prefer their graph's home host (content-hash sharding via
    :func:`~repro.jobs.catalog.shard_of`) with work-stealing when the home
    is busy, missing graphs are provisioned host-side as raw NPZ bytes
    (re-keyed on arrival, so transfer corruption cannot poison a shard),
    and a host that drops its socket or stops heartbeating mid-job is
    marked down for a cooldown while the job surfaces as a
    :class:`~repro.errors.TransientJobError` — the engine's retry/backoff
    then re-dispatches it to a surviving host.

Failure semantics: a host death loses only the jobs running on it, never
acknowledged state (the journal lives with the coordinator). It leaves
nothing to clean up either: a host's catalog is plain files, and its
cancel flag and heartbeat live in its own anonymous mapping, which dies
with the process.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from pathlib import Path

from ..bsp import shm
from ..bsp import transport as frame
from ..bsp.executors import run_task
from ..errors import FrameTooLargeError, TransientJobError
from .catalog import GraphCatalog, shard_of
from .dispatch import _describe, _serve_spec
from .supervise import SupervisedPool

__all__ = ["WorkerHost", "RemoteHostPool", "worker_serve"]

#: Remembered cancels for jobs not yet (or no longer) running (bounded).
_PENDING_CANCEL_CAP = 64


def _pickle_exc(exc: BaseException) -> bytes | None:
    """Round-trippable pickle of an exception, or ``None``.

    The coordinator re-raises the original type when it can (fault
    injection and cancellation tests depend on the type surviving the
    wire); anything that cannot round-trip degrades to a text reply.
    """
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return None


class WorkerHost:
    """One worker host process: framed protocol server over a local catalog.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction. The host is usable in-process (tests bind it on a
    background thread via :meth:`start`) or as a dedicated process
    (:func:`worker_serve`); only the dedicated entry opts into real
    ``host_kill`` SIGKILLs — in-process hosts degrade injected kills to a
    transient raise, so a test process never shoots itself.
    """

    def __init__(self, catalog_root, host: str = "127.0.0.1", port: int = 0):
        self.catalog = GraphCatalog(catalog_root)
        #: Scoped wire accounting: this host's reply frames count here (and
        #: in its own registry), never in the coordinator's accumulator.
        self.wire = frame.WireStats(scope="worker_host")
        # One cancel flag + heartbeat slot for the running job: the control
        # thread raises the flag, the job's token polls and stamps it.
        self._slots = shm.WorkerSlots(1)
        self._lock = threading.Lock()
        self._active_job: str | None = None
        self._pending_cancels: list[str] = []
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerHost":
        """Serve on a background thread (in-process deployments/tests)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="worker-host-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept-loop: one thread per connection, until :meth:`close`."""
        self._listener.settimeout(0.5)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass
            t = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="worker-host-conn", daemon=True,
            )
            t.start()
            self._threads.append(t)
            self._threads = [x for x in self._threads if x.is_alive()]

    def close(self) -> None:
        """Stop serving: close the listener and join the connection
        threads."""
        if self._stop.is_set():
            return
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=1.0)

    def __enter__(self) -> "WorkerHost":
        if self._accept_thread is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection loop ----------------------------------------------------

    def _serve_conn(self, sock: socket.socket) -> None:
        # Scoped to the connection: a coordinator that closes (or loses)
        # its socket leaves no program behind on the host.
        program = None
        try:
            while not self._stop.is_set():
                try:
                    msg = frame.recv_frame(sock)
                except (EOFError, OSError, ValueError):
                    return
                op = msg.get("op")
                try:
                    if op == "install":
                        program = msg["program"]
                        reply = {"ok": True}
                    elif op == "task":
                        reply = self._op_task(program, msg)
                    else:
                        reply = self._dispatch(msg)
                except Exception as exc:  # must never kill the connection
                    reply = {"ok": False, "error": _describe(exc)}
                try:
                    encoded = frame.encode_frame(reply)
                except FrameTooLargeError as exc:
                    # Refused before a byte is written: the coordinator
                    # gets the reason instead of a dropped connection.
                    encoded = frame.encode_frame(
                        {"ok": False, "error": _describe(exc)})
                try:
                    frame.write_frame(sock, encoded, stats=self.wire)
                except OSError:
                    return
                if op == "shutdown":
                    self._stop.set()
                    try:
                        self._listener.close()
                    except OSError:  # pragma: no cover
                        pass
                    return
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "hello":
            return {"ok": True, "pid": os.getpid(),
                    "graphs": len(self.catalog.keys())}
        if op == "run_job":
            return self._op_run_job(msg)
        if op == "ensure_graph":
            self.catalog.refresh()
            return {"ok": True, "have": msg["key"] in self.catalog}
        if op == "put_graph":
            key = self.catalog.put_bytes(msg["data"], name=msg.get("name", ""))
            return {"ok": True, "key": key}
        if op == "put_delta":
            # Delta provisioning: re-applied against the locally-held
            # parent and re-keyed from the actual arrays (an unknown
            # parent or corrupt delta raises → generic error reply → the
            # coordinator falls back to full put_graph).
            key = self.catalog.put_delta_bytes(
                msg["parent"], msg["data"], name=msg.get("name", "")
            )
            return {"ok": True, "key": key}
        if op == "cancel":
            return self._op_cancel(msg)
        if op == "ping":
            age = self._slots.age_seconds(0)
            with self._lock:
                busy = self._active_job
            return {"ok": True, "busy": busy, "beat_age": age}
        if op == "shutdown":
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- BSP task serving (the remote executor's host side) ------------------

    def _op_task(self, prog, msg: dict) -> dict:
        if prog is None:
            return {"ok": False,
                    "error": "no superstep program installed on this connection"}
        try:
            triple = run_task(prog, tuple(msg["task"]))
        except BaseException as exc:
            return {"ok": False, "error": _describe(exc),
                    "exc": _pickle_exc(exc)}
        return {"ok": True, "triple": triple}

    # -- whole-job serving (the remote dispatcher's host side) ---------------

    def _op_run_job(self, msg: dict) -> dict:
        spec = msg["spec"]
        job_id = spec.get("job_id", "")
        with self._lock:
            if job_id and job_id in self._pending_cancels:
                # Cancelled before it ever started here: honor it without
                # running a single superstep.
                self._pending_cancels.remove(job_id)
                return {"ok": True, "out": {"state": "CANCELLED",
                                            "error": None, "passes": []}}
            self._slots.clear(0)
            self._active_job = job_id
        try:
            out = _serve_spec(spec, self._slots, 0, self.catalog)
        finally:
            with self._lock:
                self._active_job = None
                self._slots.clear(0)
        return {"ok": True, "out": out}

    def _op_cancel(self, msg: dict) -> dict:
        job_id = msg["job_id"]
        with self._lock:
            if self._active_job == job_id:
                self._slots.set(0)
                return {"ok": True, "state": "signalled"}
            if job_id not in self._pending_cancels:
                self._pending_cancels.append(job_id)
                while len(self._pending_cancels) > _PENDING_CANCEL_CAP:
                    self._pending_cancels.pop(0)
        return {"ok": True, "state": "pending"}


class RemoteHostPool(SupervisedPool):
    """Coordinator-side scheduling and supervision over N worker hosts.

    The dispatcher protocol lifted over sockets: :meth:`run_job` blocks a
    dispatcher thread until a host finishes (or dies under) the job,
    ``cancel`` steers a running job, ``circuit_open`` reports whether
    every host is in its down cooldown (the engine then degrades to
    in-process dispatch), ``supervisor_stats`` feeds ``/healthz``. Unlike
    the forked pool, hosts are *not* owned processes: a dead host is
    marked down and retried after ``host_cooldown`` seconds rather than
    respawned.

    Placement prefers the job graph's home shard
    (:func:`~repro.jobs.catalog.shard_of` over the host list) so each
    host's partition-local NPZ catalog stays hot, stealing any free host
    when the home is busy or down — locality is a preference, liveness is
    a guarantee.
    """

    failure_pass = "host_failure"
    degrade_reason = "remote host circuit open"
    stats_key = "hosts"

    def __init__(self, hosts, catalog, hang_timeout: float | None = None,
                 connect_timeout: float = 10.0, host_cooldown: float = 5.0,
                 metrics=None):
        addrs = frame.parse_hosts(hosts)
        if not addrs:
            raise ValueError(
                "remote dispatcher requires at least one worker host "
                "(hosts='host:port,...')"
            )
        self.catalog = catalog
        self.connect_timeout = connect_timeout
        self.host_cooldown = host_cooldown
        self._init_supervision("remote", hang_timeout=hang_timeout,
                               metrics=metrics)
        #: Scoped wire accounting: every frame this pool sends (dispatch,
        #: provisioning, control pings) counts here instead of the
        #: process-wide :data:`repro.bsp.transport.WIRE`, so a coordinator
        #: and an in-process degrade path no longer double-count.
        self.wire = frame.WireStats(registry=metrics, scope="remote_pool")
        self._cond = threading.Condition()
        self._hosts = [
            {"index": i, "addr": addr, "conn": None, "control": None,
             "busy": False, "down_until": 0.0, "active_job": None,
             "jobs": 0, "failures": 0}
            for i, addr in enumerate(addrs)
        ]
        self.total_dispatched = 0
        #: Provisioning telemetry: how graphs reached the hosts, and how
        #: many bytes crossed the wire each way (the delta path ships
        #: kilobytes where the full path ships the whole NPZ).
        self.graphs_shipped_full = 0
        self.graphs_shipped_delta = 0
        self.full_bytes_shipped = 0
        self.delta_bytes_shipped = 0
        self._closed = False

    # -- host bookkeeping ---------------------------------------------------

    def _acquire(self, preferred: int):
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("RemoteHostPool is closed")
                now = time.monotonic()
                up = [h for h in self._hosts if now >= h["down_until"]]
                if not up:
                    raise TransientJobError(
                        "all worker hosts are down (cooldown); "
                        "job may be retried"
                    )
                free = [h for h in up if not h["busy"]]
                if free:
                    chosen = next(
                        (h for h in free if h["index"] == preferred), free[0]
                    )
                    chosen["busy"] = True
                    return chosen
                self._cond.wait(timeout=0.25)

    def _release(self, host: dict) -> None:
        with self._cond:
            host["busy"] = False
            host["active_job"] = None
            self._cond.notify_all()

    def _mark_down(self, host: dict) -> None:
        with self._cond:
            host["failures"] += 1
            host["down_until"] = time.monotonic() + self.host_cooldown
            for attr in ("conn", "control"):
                if host[attr] is not None:
                    host[attr].close()
                    host[attr] = None
            self._cond.notify_all()
        self._m_respawns.inc()

    def _connect(self, host: dict, control: bool = False):
        attr = "control" if control else "conn"
        if host[attr] is None:
            host[attr] = frame.FrameConnection.open(
                host["addr"], self.connect_timeout, stats=self.wire)
        return host[attr]

    def _host_name(self, host: dict) -> str:
        return f"{host['addr'][0]}:{host['addr'][1]}"

    # -- the dispatcher-facing surface --------------------------------------

    def run_job(self, job, spec: dict, slot: int) -> dict:
        """Run ``job`` on some host; :class:`TransientJobError` on host
        death/hang (the host is cooled down first, so the engine's retry
        lands elsewhere). ``slot`` is unused: any dispatcher thread may
        take any host."""
        preferred = shard_of(spec["graph_key"], len(self._hosts))
        host = self._acquire(preferred)
        try:
            try:
                conn = self._connect(host)
                self._provision(host, conn, spec["graph_key"])
                host["active_job"] = spec.get("job_id")
                host["jobs"] += 1
                self.total_dispatched += 1
                conn.send({"op": "run_job", "spec": spec})
                reply = self._await_reply(host, conn, spec)
            except (EOFError, OSError) as exc:
                self._mark_down(host)
                raise TransientJobError(
                    f"worker host {self._host_name(host)} died mid-job "
                    f"({exc}); host cooled down, job may be re-dispatched"
                ) from exc
            if not reply.get("ok"):
                raise TransientJobError(
                    f"worker host {self._host_name(host)} rejected job: "
                    f"{reply.get('error')}"
                )
            return reply["out"]
        finally:
            self._release(host)

    def _provision(self, host: dict, conn, key: str) -> None:
        """Make sure the host's local catalog shard holds the job's graph.

        A graph minted by a delta chain ships as the delta NPZ whenever
        the host already holds the parent hash — kilobytes instead of the
        full graph archive — falling back to full provisioning when the
        parent is absent or the host cannot re-key the delta to the
        expected hash. Either path ends in the same verified content key:
        the host re-applies and re-keys, so transfer corruption cannot
        poison a shard regardless of how the bytes arrived.
        """
        reply = conn.request({"op": "ensure_graph", "key": key},
                             timeout=self.connect_timeout)
        if reply.get("have"):
            return
        try:
            parent, delta_data = self.catalog.export_delta_bytes(key)
        except KeyError:
            parent, delta_data = None, None
        if parent is not None:
            reply = conn.request({"op": "ensure_graph", "key": parent},
                                 timeout=self.connect_timeout)
            if reply.get("have"):
                reply = conn.request(
                    {"op": "put_delta", "parent": parent,
                     "data": delta_data, "key": key},
                    timeout=max(self.connect_timeout, 60.0))
                if reply.get("ok") and reply.get("key") == key:
                    with self._cond:
                        self.graphs_shipped_delta += 1
                        self.delta_bytes_shipped += len(delta_data)
                    return
                # A mismatched re-key or host-side apply failure falls
                # through to full provisioning rather than failing the job.
        data = self.catalog.export_bytes(key)
        reply = conn.request({"op": "put_graph", "data": data, "key": key},
                             timeout=max(self.connect_timeout, 60.0))
        got = reply.get("key")
        if not reply.get("ok") or got != key:
            raise TransientJobError(
                f"graph provisioning to {self._host_name(host)} failed: "
                f"sent {key}, host keyed {got!r} ({reply.get('error')})"
            )
        with self._cond:
            self.graphs_shipped_full += 1
            self.full_bytes_shipped += len(data)

    def _await_reply(self, host: dict, conn, spec: dict) -> dict:
        """Block for the job reply, watching host liveness via pings.

        The data connection is silent for the whole job, so liveness comes
        from a *control* connection: with ``hang_timeout`` armed, the
        host-side heartbeat age (stamped at every superstep boundary) is
        polled and a silent host is declared hung — the remote analogue of
        the forked pool's heartbeat kill, except the coordinator cannot
        SIGKILL across machines, so the host is abandoned to its cooldown
        instead.
        """
        waited = 0.0
        poll = 2.0
        while True:
            try:
                return conn.recv(timeout=poll)
            except socket.timeout:
                waited += poll
            if self.hang_timeout is None:
                continue
            try:
                pong = self._connect(host, control=True).request(
                    {"op": "ping"}, timeout=self.connect_timeout)
            except (EOFError, OSError) as exc:
                raise EOFError(f"control ping failed: {exc}") from exc
            age = pong.get("beat_age")
            if age is not None and age > self.hang_timeout:
                self._m_hung.inc()
                self._mark_down(host)
                raise TransientJobError(
                    f"worker host {self._host_name(host)} hung (no "
                    f"heartbeat for {age:.1f}s > {self.hang_timeout:g}s); "
                    "host cooled down, job may be re-dispatched"
                )

    def cancel(self, job_id: str) -> None:
        """Steer a cancel to the host running ``job_id`` (best-effort).

        Falls back to telling every reachable host: a job between dispatch
        and ``run_job`` lands in the hosts' bounded pending-cancel sets,
        closing the cancel-before-start race.
        """
        with self._cond:
            targets = [h for h in self._hosts
                       if h["active_job"] == job_id] or list(self._hosts)
        for host in targets:
            try:
                self._connect(host, control=True).request(
                    {"op": "cancel", "job_id": job_id},
                    timeout=self.connect_timeout)
            except (EOFError, OSError):
                continue

    def circuit_open(self) -> bool:
        """True while every host is in its down cooldown."""
        now = time.monotonic()
        with self._cond:
            return all(now < h["down_until"] for h in self._hosts)

    def circuit_reset_seconds(self) -> float:
        """Seconds until the *first* host leaves cooldown (0 when any is up)."""
        now = time.monotonic()
        with self._cond:
            if any(now >= h["down_until"] for h in self._hosts):
                return 0.0
            return max(0.0, min(h["down_until"] for h in self._hosts) - now)

    def supervisor_stats(self) -> dict:
        now = time.monotonic()
        with self._cond:
            stats = {
                "hosts": len(self._hosts),
                "up": sum(1 for h in self._hosts if now >= h["down_until"]),
                "busy": sum(1 for h in self._hosts if h["busy"]),
                "dispatched": self.total_dispatched,
                "host_failures": int(self._m_respawns.value),
                "provisioning": {
                    "full": self.graphs_shipped_full,
                    "delta": self.graphs_shipped_delta,
                    "full_bytes": self.full_bytes_shipped,
                    "delta_bytes": self.delta_bytes_shipped,
                },
                "per_host": [
                    {"addr": self._host_name(h), "jobs": h["jobs"],
                     "failures": h["failures"], "busy": h["busy"],
                     "down": now < h["down_until"]}
                    for h in self._hosts
                ],
            }
        # Outside the lock: the base block re-takes it via circuit_open().
        stats.update(self.supervisor_base())
        return stats

    def close(self) -> None:
        """Close every connection (the hosts themselves are not owned)."""
        with self._cond:
            self._closed = True
            for host in self._hosts:
                for attr in ("conn", "control"):
                    if host[attr] is not None:
                        host[attr].close()
                        host[attr] = None
            self._cond.notify_all()


def worker_serve(host: str, port: int, cache_root,
                 port_file: str | None = None) -> None:
    """Run a dedicated worker host until SIGTERM/SIGINT (the CLI entry).

    Marks the process with ``REPRO_FAULT_HOST`` so an armed ``host_kill``
    fault dies for real — the whole point is exercising unclean host death.
    ``port_file`` (written as ``host port pid``) lets launchers bind port 0
    and discover the ephemeral port race-free.
    """
    import signal

    os.environ["REPRO_FAULT_HOST"] = str(os.getpid())
    server = WorkerHost(cache_root, host=host, port=port)
    bound_host, bound_port = server.address
    print(f"worker listening on {bound_host}:{bound_port} pid={os.getpid()}",
          flush=True)
    if port_file:
        Path(port_file).write_text(
            f"{bound_host} {bound_port} {os.getpid()}\n")

    def _stop(signum, _frm):
        server.close()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        server.serve_forever()
    finally:
        server.close()
