"""Job runners: one spec → spec-out contract for every dispatcher.

:func:`_run_spec` is the only code that runs a job. It takes a *spec* (a
plain dict: scenario, graph key, the job's ``RunConfig`` with no
process-local state, the run-time budget, the trace id and an optional
shared-memory graph descriptor) and returns a *spec-out* (the terminal
state, the compacted result or a typed failure, and the pass history the
engine replays into the job record). :class:`~repro.jobs.engine.JobEngine`
builds the spec, hands it to its dispatcher and lands whatever comes back
in one place, so retries, unpinning and result trimming happen once for
every mode.

Three dispatchers speak that protocol (``run_job(job, spec, slot)`` →
spec-out, plus ``cancel(job_id)``, ``circuit_open()`` and ``close()``; a
pool also names the pass that records its own failures, ``failure_pass``,
and the reason the engine bypasses it while its circuit is open,
``degrade_reason``):

* :class:`InProcessDispatcher` runs the spec on the dispatcher thread —
  thread mode, and every mode's fallback while its pool's circuit is open;
* :class:`ForkedWorkerPool` (process mode) sends it down a pipe to one of N
  workers forked **at engine construction** (before any dispatcher thread
  exists, so the fork is single-threaded and safe) — true multi-core
  serving on the paper's one-machine-per-partition model, lifted to
  one-process-per-job;
* :class:`~repro.jobs.remote.RemoteHostPool` (remote mode) sends it to a
  worker host over a socket.

What crosses a pipe or socket stays small: the graph rides down as the
catalog's shared-memory *graph descriptor*
(:meth:`~repro.jobs.catalog.GraphCatalog.share`), which workers attach
zero-copy (the catalog NPZ is the fallback), and a DONE spec-out carries
the compacted result (:meth:`~repro.scenarios.base.ScenarioResult.compact`).

Cancellation crosses the fork through a :class:`~repro.bsp.shm.CancelFlags`
array with one ``int64`` flag per worker slot. The parent sets slot ``i``
to cancel the job running in worker ``i``; the worker's :class:`FlagToken`
— a :class:`~repro.pipeline.cancel.CancelToken` whose flag is that slot —
polls it (and its deadline) at every superstep and sub-run boundary. An
explicit cancel still wins over a simultaneously-expired deadline.

Supervision (the fault-tolerance layer):

* **death** — a worker that dies mid-job (SIGKILL, OOM, hard crash) is
  detected by the liveness poll in :meth:`ForkedWorkerPool.run_job`,
  respawned, and the job surfaces as a typed
  :class:`~repro.errors.TransientJobError` the engine may retry;
* **hangs** — workers stamp a shared :class:`~repro.bsp.shm.HeartbeatSlots`
  entry at every cancel-token poll (superstep/sub-run boundaries); with a
  ``hang_timeout`` armed, a stale stamp gets the worker SIGKILL'd and
  respawned — a wedged superstep can no longer pin a dispatcher forever;
* **respawn budget + circuit breaker** — respawns are counted per rolling
  window; past the budget the pool's circuit opens for a cooldown and the
  engine degrades those jobs to in-process execution instead of feeding a
  crash loop.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import replace

from ..bsp import shm
from ..errors import RunCancelledError, TransientJobError
from ..graph.graph import Graph
from ..obs import SpanRecorder, diff_state, get_registry, use_registry, use_trace
from ..pipeline.cancel import CancelToken
from .supervise import RollingBreaker, SupervisedPool

__all__ = ["FlagToken", "ForkedWorkerPool", "InProcessDispatcher"]

#: Exception class names (stdlib executor breakage) treated as transient.
_TRANSIENT_CLASS_NAMES = frozenset(
    {"BrokenProcessPool", "BrokenThreadPool", "BrokenExecutor"}
)


def _is_transient(exc: BaseException) -> bool:
    """Whether a failure is infrastructure (retryable), not the job's fault."""
    if isinstance(exc, TransientJobError):
        return True
    if isinstance(exc, (EOFError, BrokenPipeError)):
        return True
    return type(exc).__name__ in _TRANSIENT_CLASS_NAMES


def _describe(exc: BaseException) -> str:
    """``Type: message`` — how a failure reads in passes and job errors."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class FlagToken(CancelToken):
    """Worker-side cancel token over one shared-memory flag slot.

    A :class:`~repro.pipeline.cancel.CancelToken` whose cancel flag is also
    slot ``slot`` of a shared :class:`~repro.bsp.shm.CancelFlags` array, so
    the parent process can stop the job; the deadline and the rule that an
    explicit cancel beats it are inherited. Every poll also stamps the
    worker's heartbeat slot — the cancel checks run at superstep and
    sub-run boundaries, which is exactly the "still making progress"
    signal hang detection needs, for free. Pickles to an **inert** token
    (no flags, no heartbeat, no deadline): a revived flag reference would
    be meaningless in another process.
    """

    def __init__(self, flags, slot: int, timeout_seconds: float | None = None,
                 heartbeats=None):
        self._flags = flags
        self._slot = slot
        self._heartbeats = heartbeats
        super().__init__(timeout_seconds)

    def arm(self) -> None:
        super().arm()
        self.beat()

    def beat(self) -> None:
        """Stamp this worker's heartbeat slot (no-op without one)."""
        if self._heartbeats is not None:
            self._heartbeats.beat(self._slot)

    @property
    def cancelled(self) -> bool:
        self.beat()
        return super().cancelled or (
            self._flags is not None and self._flags.is_set(self._slot))

    def __getstate__(self):
        return {"timeout_seconds": self.timeout_seconds}

    def __setstate__(self, state):
        self.__init__(None, -1)
        self.timeout_seconds = state["timeout_seconds"]


def _strip_config(config):
    """A result config with no process-local state (no cancel token,
    catalog artifacts, fault plan or repair session). ``pool`` stays: it
    names the backend the job ran on."""
    return replace(config, cancel=None, derived=None, faults=None,
                   repair=None)


def _scrub_result(result) -> None:
    """Compact a finished result and strip its process-local state."""
    result.compact()
    result.config = _strip_config(result.config)
    for sub in result.sub_runs:
        sub.context.config = _strip_config(sub.context.config)


def _share_graph(catalog, job) -> dict | None:
    """Publish the job's graph to shared memory (a ``share_graph`` pass);
    the descriptor a worker attaches, ``None`` without shm."""
    t0 = time.perf_counter()
    descriptor = catalog.share(job.graph_key)
    job.record_pass("share_graph", time.perf_counter() - t0,
                    graph_key=job.graph_key, shared=descriptor is not None)
    return descriptor


def _attach_graph(descriptor: dict):
    """Descriptor → zero-copy Graph over the attached segment views."""
    views = shm.attach_arrays(descriptor)
    return Graph.from_arrays(
        descriptor["n_vertices"], views["edge_u"], views["edge_v"], check=False
    )


def _run_spec(spec: dict, token, catalog, graph_cache: dict) -> dict:
    """Execute one job spec; always returns a terminal-state spec-out.

    The only code that runs a job, on every dispatcher. ``token`` is the
    run's cancel token (``None``: uncancellable). A DONE spec-out carries
    the compacted result — the walks, metrics and reports, never the
    run's fragment store, partitioned graph or final states — so what
    crosses a pipe or socket is about the size of the walks.

    Failure spec-outs carry ``transient`` (:func:`_is_transient`): ``True``
    marks infrastructure failures (injected faults, shm trouble, broken
    pipes) the engine may retry; job errors (bad graph, bad config) stay
    permanent.

    Pass rows are :attr:`~repro.jobs.queue.Job.passes` rows already
    (``{"pass": name, "seconds": wall, **extra}``). Stage spans recorded
    during the run come back as ``stage:<name>`` rows, followed by a
    ``repair`` row when the config carries a repair session.
    """
    recorder = SpanRecorder()
    with use_trace(spec.get("trace_id") or None), recorder:
        out = _run_spec_inner(spec, token, catalog, graph_cache)
    for span in recorder.spans:
        out["passes"].append({"pass": "stage:" + span.pop("stage"),
                              "seconds": span.pop("wall"), **span})
    repair = spec["config"].repair
    if repair is not None and out["state"] == "DONE":
        # The decision plus live hit/miss counters — how much of this run
        # was replayed vs recomputed.
        out["passes"].append({"pass": "repair", "seconds": 0.0,
                              **repair.report()})
    return out


def _run_spec_inner(spec: dict, token, catalog, graph_cache: dict) -> dict:
    from ..scenarios.base import run_scenario

    passes: list[dict] = []
    started = time.perf_counter()
    try:
        if token is not None:
            token.check("dispatch")
        key = spec["graph_key"]
        if key not in catalog:
            catalog.refresh()  # cataloged after this worker forked

        config = spec["config"]
        faults = config.faults

        t0 = time.perf_counter()
        graph = graph_cache.get(key)
        source = "cache"
        if graph is None:
            descriptor = spec.get("graph_descriptor")
            if descriptor is not None:
                try:
                    if faults:
                        faults.shm_attach()
                    graph = _attach_graph(descriptor)
                    source = "segment"
                except FileNotFoundError:
                    graph = None
            if graph is None:
                graph = catalog.get(key)
                source = "npz"
            while len(graph_cache) >= 4:
                graph_cache.pop(next(iter(graph_cache)))
            graph_cache[key] = graph
        passes.append({"pass": "load_graph",
                       "seconds": time.perf_counter() - t0,
                       "graph_key": key, "source": source})

        t0 = time.perf_counter()
        # A forked job's parent persisted the partition map / plan to disk
        # before sending the spec, so this is a disk-cache hit there.
        derived = catalog.derived_for(key, config, spec["scenario"])
        passes.append({"pass": "derived_artifacts",
                       "seconds": time.perf_counter() - t0,
                       "artifacts": sorted(derived)})

        config = replace(config, derived=derived, cancel=token)
        t0 = time.perf_counter()
        result = run_scenario(graph, spec["scenario"], config)
        passes.append({
            "pass": "run_scenario", "seconds": time.perf_counter() - t0,
            "executor": config.executor_name,
            "n_sub_runs": len(result.sub_runs),
            "walk_edges": int(sum(c.n_edges for c in result.circuits)),
        })
        _scrub_result(result)
        return {"state": "DONE", "result": result, "passes": passes,
                "executor": config.executor_name}
    except RunCancelledError as exc:
        # Cooperative stop at a safe point: the passes recorded so far are
        # the partial history the artifact keeps.
        passes.append({"pass": "cancelled",
                       "seconds": time.perf_counter() - started,
                       "reason": exc.reason, "where": exc.where})
        if exc.reason == "timeout":
            return {"state": "FAILED", "error": str(exc), "passes": passes,
                    "transient": False}
        return {"state": "CANCELLED", "error": None, "passes": passes}
    except Exception as exc:  # a job failure must never kill its runner
        detail = _describe(exc)
        passes.append({"pass": "error", "seconds": 0.0, "error": detail})
        return {"state": "FAILED", "error": detail, "passes": passes,
                "transient": _is_transient(exc)}


def _serve_spec(spec: dict, flags, slot: int, catalog, graph_cache: dict,
                heartbeats=None) -> dict:
    """:func:`_run_spec` in a forked worker or on a worker host.

    The token is a :class:`FlagToken` over the slot's shared flag, and
    every counter/histogram increment this process made during the run
    rides home in ``metrics_delta`` (a :func:`~repro.obs.diff_state`
    delta) for the coordinator to fold into its registry. The worker's
    catalog counts its lookups in the catalog's own registry; that delta
    rides home as ``catalog_metrics_delta``, for the coordinator's
    catalog. The diffs live here, not in :func:`_run_spec`: in-process
    dispatcher threads share one registry, so a diff there would fold one
    job's increments into another job's spec-out.
    """
    registries = {"metrics_delta": get_registry(),
                  "catalog_metrics_delta": catalog.metrics}
    before = {key: r.state() for key, r in registries.items()}
    token = FlagToken(flags, slot, spec.get("timeout_seconds"),
                      heartbeats=heartbeats)
    out = _run_spec(spec, token, catalog, graph_cache)
    for key, registry in registries.items():
        delta = diff_state(before[key], registry.state())
        if delta:
            out[key] = delta
    return out


class InProcessDispatcher:
    """Runs a job on the dispatcher thread itself.

    Thread mode's dispatcher, and every mode's fallback while its pool's
    circuit is open. It differs from the worker pools in four ways:

    * the token is the job's own :class:`CancelToken`, armed here so the
      deadline budgets run time, not queue time;
    * the engine's shared pool is injected (unless the job names its own)
      and ``config.repair`` is kept, so watch emissions repair;
    * it computes no registry diff: increments land directly in the
      engine's registry, which every dispatcher thread shares;
    * it publishes no shm segment and keeps no graph cache beyond the
      catalog's own.
    """

    failure_pass = "error"

    def __init__(self, catalog, pool=None, metrics=None):
        self.catalog = catalog
        self.pool = pool
        self.metrics = metrics if metrics is not None else get_registry()

    def run_job(self, job, spec: dict, slot: int) -> dict:
        pool = job.config.pool if job.config.pool is not None else self.pool
        config = replace(spec["config"], pool=pool, repair=job.config.repair)
        # The backend the job actually runs on (post pool injection) —
        # what status rows and the batch report must attribute to.
        job.executor = config.executor_name
        token = job.cancel_token
        if token is not None:
            token.arm()
        with use_registry(self.metrics):
            return _run_spec(dict(spec, config=config), token, self.catalog,
                             {})

    def cancel(self, job_id: str) -> None:
        """Nothing to steer: the engine cancels the job's own token."""

    def circuit_open(self) -> bool:
        return False

    def close(self) -> None:
        """Nothing to release: the engine owns the pool."""


def _worker_main(conn, slot: int, catalog_root: str, flags_descriptor: dict,
                 heartbeat_descriptor: dict | None = None):
    """Forked worker loop: recv spec → run → send result, until sentinel."""
    from .catalog import GraphCatalog

    # Mark this process as a dispatcher worker so an injected
    # ``worker_kill`` fault dies for real (SIGKILL) instead of raising —
    # the whole point is exercising unclean worker death.
    os.environ["REPRO_FAULT_WORKER"] = str(os.getpid())
    flags = shm.CancelFlags.attach(flags_descriptor)
    heartbeats = (shm.HeartbeatSlots.attach(heartbeat_descriptor)
                  if heartbeat_descriptor is not None else None)
    catalog = GraphCatalog(catalog_root)
    graph_cache: dict = {}
    # The fork copies the parent's stack, so this process holds write ends
    # of its own (and earlier siblings') pipes — recv() would never EOF
    # after a parent kill -9. Poll the ppid instead: re-parented means the
    # engine is gone and this worker must not outlive it.
    parent = os.getppid()
    try:
        while True:
            if not conn.poll(1.0):
                if os.getppid() != parent:
                    return
                continue
            try:
                spec = conn.recv()
            except EOFError:
                return
            if spec is None:
                return
            conn.send(_serve_spec(spec, flags, slot, catalog, graph_cache,
                                  heartbeats=heartbeats))
    finally:
        flags.close()
        if heartbeats is not None:
            heartbeats.close()
        conn.close()


class ForkedWorkerPool(SupervisedPool):
    """N pre-forked job workers, one pipe, cancel flag and heartbeat each.

    Created before the engine's dispatcher threads so the initial fork is
    single-threaded. Dispatcher thread ``slot`` drives worker ``slot``.
    A worker that dies or hangs mid-job is killed (if needed), respawned,
    and reported as a :class:`TransientJobError` — the pool survives; only
    the job on that slot is interrupted. Respawns are budgeted per rolling
    window: past ``respawn_budget`` respawns in ``respawn_window`` seconds,
    :meth:`circuit_open` turns true for ``breaker_cooldown`` seconds and
    the engine degrades to in-process execution instead of feeding a crash
    loop.

    Parameters
    ----------
    catalog:
        The engine's :class:`~repro.jobs.catalog.GraphCatalog`. The parent
        persists each job's derived artifacts and shares its graph through
        it; each worker opens its own catalog over the same root.
    hang_timeout:
        Seconds of heartbeat silence (no superstep/sub-run boundary
        reached) after which a worker is declared hung and SIGKILL'd.
        ``None`` (default) disables hang detection — a legitimate
        superstep may take arbitrarily long.
    """

    failure_pass = "worker_failure"
    degrade_reason = "worker circuit breaker open"
    stats_key = "workers"

    def __init__(self, n: int, catalog,
                 hang_timeout: float | None = None,
                 respawn_budget: int = 5,
                 respawn_window: float = 60.0,
                 breaker_cooldown: float = 30.0,
                 metrics=None):
        if n < 1:
            raise ValueError("worker count must be >= 1")
        if not shm.shm_available():
            raise RuntimeError(
                "process dispatchers need POSIX shared memory for cancel flags"
            )
        self.n = n
        self.catalog = catalog
        self._ctx = multiprocessing.get_context("fork")
        self.flags = shm.CancelFlags.create(n)
        self.heartbeats = shm.HeartbeatSlots.create(n)
        self._init_supervision("forked", hang_timeout=hang_timeout,
                               metrics=metrics)
        self._breaker = RollingBreaker(respawn_budget, respawn_window,
                                       breaker_cooldown,
                                       failures=self._m_respawns)
        #: job id → worker slot for running jobs — how :meth:`cancel`
        #: finds the flag to raise.
        self._slots: dict[str, int] = {}
        self._slots_lock = threading.Lock()
        self._workers: list = [None] * n
        self._closed = False
        for slot in range(n):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        self._reap(slot)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, slot, str(self.catalog.root),
                  self.flags.descriptor, self.heartbeats.descriptor),
            name=f"job-worker-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[slot] = (proc, parent_conn)

    def _reap(self, slot: int) -> None:
        """Kill and join the process still holding ``slot``, if any, and
        close its pipe: a respawn must never orphan a live worker that
        :meth:`close` would then not know about."""
        entry = self._workers[slot]
        if entry is None:
            return
        proc, conn = entry
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        conn.close()

    def _respawn_after_failure(self, slot: int) -> None:
        """Respawn a failed slot and charge it against the breaker budget."""
        self._breaker.record()
        self._spawn(slot)

    def circuit_open(self) -> bool:
        """Whether the respawn circuit breaker is currently open."""
        return self._breaker.open()

    def circuit_reset_seconds(self) -> float:
        return self._breaker.reset_seconds()

    def supervisor_stats(self) -> dict:
        """Respawn/breaker counters for ``/healthz``."""
        stats = self._breaker.stats()
        stats["workers"] = self.n
        stats.update(self.supervisor_base())
        return stats

    def run_job(self, job, spec: dict, slot: int) -> dict:
        """Run ``job`` on worker ``slot``; raises :class:`TransientJobError`
        on worker death or hang (the slot is respawned first).

        Blocks the calling dispatcher thread (each thread owns its slot, so
        there is no cross-thread contention on the pipe).
        """
        if self._closed:
            raise RuntimeError("ForkedWorkerPool is closed")
        self.flags.clear(slot)
        with self._slots_lock:
            self._slots[job.id] = slot
        try:
            token = job.cancel_token
            if token is not None and token.cancelled:
                # A cancel that landed before the slot was registered found
                # no flag to raise; raise it now so the worker stops at its
                # first checkpoint.
                self.flags.set(slot)
            t0 = time.perf_counter()
            # Compute (and persist) the derived artifacts parent-side; the
            # worker re-reads them as a disk-cache hit instead of receiving
            # the arrays through the pipe.
            self.catalog.derived_for(job.graph_key, job.config, job.scenario)
            job.record_pass("persist_derived", time.perf_counter() - t0)
            spec["graph_descriptor"] = _share_graph(self.catalog, job)
            return self._exchange(slot, spec)
        finally:
            with self._slots_lock:
                self._slots.pop(job.id, None)
            self.flags.clear(slot)

    def _exchange(self, slot: int, spec: dict) -> dict:
        """Send ``spec`` down ``slot``'s pipe and wait for the spec-out,
        watching the worker's liveness and heartbeat."""
        proc, conn = self._workers[slot]
        # Baseline the heartbeat at dispatch: hang age counts from *now*
        # even if the worker never reaches its first token poll.
        self.heartbeats.beat(slot)
        try:
            conn.send(spec)
            while not conn.poll(0.2):
                if not proc.is_alive() and not conn.poll(0):
                    raise EOFError
                if self.hang_timeout is not None:
                    age = self.heartbeats.age_seconds(slot)
                    if age is not None and age > self.hang_timeout:
                        self._m_hung.inc()
                        self._respawn_after_failure(slot)
                        raise TransientJobError(
                            f"dispatcher worker {slot} hung (no heartbeat "
                            f"for {age:.1f}s > {self.hang_timeout:g}s); "
                            "killed and respawned"
                        )
            return conn.recv()
        except TransientJobError:
            raise
        except (EOFError, BrokenPipeError, OSError):
            self._respawn_after_failure(slot)
            raise TransientJobError(
                f"dispatcher worker {slot} died mid-job; respawned"
            ) from None

    def cancel(self, job_id: str) -> None:
        """Signal ``job_id``'s worker, if it is running (polled at safe
        points)."""
        with self._slots_lock:
            slot = self._slots.get(job_id)
        if slot is not None:
            self.flags.set(slot)

    def close(self) -> None:
        """Stop every worker (sentinel, then terminate) and free the flags."""
        if self._closed:
            return
        self._closed = True
        for entry in self._workers:
            if entry is None:
                continue
            proc, conn = entry
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for entry in self._workers:
            if entry is None:
                continue
            proc, conn = entry
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            conn.close()
        self._workers = [None] * self.n
        self.flags.close()
        self.heartbeats.close()
