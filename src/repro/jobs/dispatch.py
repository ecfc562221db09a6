"""Pre-forked dispatcher workers: jobs run in long-lived forked processes.

The thread dispatchers in :class:`~repro.jobs.engine.JobEngine` multiplex
jobs over one GIL; under CPU-bound load every concurrent job steals cycles
from every other. This module provides the process-dispatcher mode: N
workers forked **at engine construction** (before any dispatcher thread
exists, so the fork is single-threaded and safe), each owning one end of a
duplex pipe. A dispatcher thread pops a job, sends a compact *spec* down
its worker's pipe, and the worker runs the full scenario in its own
interpreter — true multi-core serving on the paper's
one-machine-per-partition model, lifted to one-process-per-job.

What crosses the pipe stays small:

* **down**: scenario name, graph key, the job's ``RunConfig`` stripped of
  process-hostile fields (pool/cancel/derived), the run-time budget, and
  the catalog's shared-memory *graph descriptor*
  (:meth:`~repro.jobs.catalog.GraphCatalog.share`) — workers attach the
  edge arrays zero-copy and fall back to the catalog NPZ only when the
  segment is gone;
* **up**: the compacted :class:`~repro.scenarios.base.ScenarioResult`
  (walks, metrics and per-sub-run reports; see
  :meth:`~repro.scenarios.base.ScenarioResult.compact`) or a typed
  failure, plus the worker-side pass history the parent replays into the
  job record.

Cancellation preserves the PR 5 semantics without sharing a token object:
a :class:`~repro.bsp.shm.CancelFlags` array gives every worker slot one
``int64`` flag. The parent sets slot ``i`` to cancel the job running in
worker ``i``; the worker's :class:`FlagToken` — duck-typed to
:class:`~repro.pipeline.cancel.CancelToken` — polls that flag (and its
deadline) at every superstep and sub-run boundary. An explicit cancel
still wins over a simultaneously-expired deadline.

Supervision (the fault-tolerance layer):

* **death** — a worker that dies mid-job (SIGKILL, OOM, hard crash) is
  detected by the liveness poll in :meth:`ForkedWorkerPool.run`,
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
import time
import traceback
from dataclasses import replace
from pathlib import Path

from ..bsp import shm
from ..errors import RunCancelledError, TransientJobError
from ..graph.graph import Graph
from ..obs import SpanRecorder, diff_state, get_registry, use_trace
from .supervise import RollingBreaker, SupervisedPool

__all__ = ["FlagToken", "ForkedWorkerPool"]


class FlagToken:
    """Worker-side cancel token over one shared-memory flag slot.

    Duck-typed to :class:`~repro.pipeline.cancel.CancelToken` (``arm`` /
    ``cancelled`` / ``expired`` / ``should_stop`` / ``check``), so the
    pipeline's safe-point checks work unchanged inside a forked worker.
    Every poll also stamps the worker's heartbeat slot — the cancel checks
    run at superstep and sub-run boundaries, which is exactly the "still
    making progress" signal hang detection needs, for free. Pickles to an
    **inert** token (no flags, no heartbeat, no deadline): one rides
    inside every result config shipped back through the pipe, and a
    revived flag reference would be meaningless in another process.
    """

    def __init__(self, flags, slot: int, timeout_seconds: float | None = None,
                 heartbeats=None):
        self._flags = flags
        self._slot = slot
        self._heartbeats = heartbeats
        self.timeout_seconds = timeout_seconds
        self._deadline: float | None = None
        self.arm()

    def arm(self) -> None:
        if self.timeout_seconds is not None:
            self._deadline = time.monotonic() + self.timeout_seconds
        self.beat()

    def beat(self) -> None:
        """Stamp this worker's heartbeat slot (no-op without one)."""
        if self._heartbeats is not None:
            self._heartbeats.beat(self._slot)

    @property
    def cancelled(self) -> bool:
        self.beat()
        return self._flags is not None and self._flags.is_set(self._slot)

    @property
    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    @property
    def should_stop(self) -> bool:
        return self.cancelled or self.expired

    def check(self, where: str = "") -> None:
        # Mirror CancelToken: an explicit cancel wins over the deadline.
        if self.cancelled:
            raise RunCancelledError("cancel", where)
        if self.expired:
            raise RunCancelledError("timeout", where, self.timeout_seconds)

    def __getstate__(self):
        return {"timeout_seconds": self.timeout_seconds}

    def __setstate__(self, state):
        self._flags = None
        self._slot = -1
        self._heartbeats = None
        self.timeout_seconds = state.get("timeout_seconds")
        self._deadline = None


def _strip_config(config):
    """A config safe to cross the pipe (and land in durable artifacts)."""
    return replace(config, pool=None, cancel=None, derived=None, faults=None,
                   repair=None)


def _scrub_result(result) -> None:
    """Compact a result about to cross the pipe or socket (the same result
    an in-process job keeps) and strip its process-local state."""
    result.compact()
    result.config = _strip_config(result.config)
    for sub in result.sub_runs:
        sub.context.config = _strip_config(sub.context.config)


def _attach_graph(descriptor: dict):
    """Descriptor → zero-copy Graph over the attached segment views."""
    views = shm.attach_arrays(descriptor)
    return Graph.from_arrays(
        descriptor["n_vertices"], views["edge_u"], views["edge_v"], check=False
    )


def _run_spec(spec: dict, flags, slot: int, catalog, graph_cache: dict,
              heartbeats=None) -> dict:
    """Execute one job spec; always returns a terminal-state dict.

    Shared by forked dispatcher workers and remote job hosts. A DONE dict
    carries the compacted result — the same walks, metrics and reports an
    in-process job keeps — never the run's fragment store, partitioned
    graph or final states, so what crosses the pipe or socket is about
    the size of the walks.

    Failure dicts carry ``transient``: ``True`` marks infrastructure
    failures (injected faults, shm trouble) the parent may retry; job
    errors (bad graph, bad config) stay permanent.

    Observability rides the existing result channel: stage spans recorded
    during the run come back as ``("stage:<name>", wall, extra)`` pass
    tuples, and every counter/histogram increment this process made lands
    in ``metrics_delta`` (a :func:`~repro.obs.diff_state` delta) so the
    coordinator can fold worker-side telemetry — walk-cache hits, stage
    latencies — into its own registry.
    """
    registry = get_registry()
    before = registry.state()
    recorder = SpanRecorder()
    with use_trace(spec.get("trace_id") or None), recorder:
        out = _run_spec_inner(spec, flags, slot, catalog, graph_cache,
                              heartbeats=heartbeats)
    for span in recorder.spans:
        extra = {k: v for k, v in span.items()
                 if k not in ("stage", "wall")}
        out["passes"].append(("stage:" + span["stage"], span["wall"], extra))
    delta = diff_state(before, registry.state())
    if delta:
        out["metrics_delta"] = delta
    return out


def _run_spec_inner(spec: dict, flags, slot: int, catalog, graph_cache: dict,
                    heartbeats=None) -> dict:
    from ..scenarios.base import run_scenario

    passes: list[tuple] = []
    started = time.perf_counter()
    try:
        token = FlagToken(flags, slot, spec.get("timeout_seconds"),
                          heartbeats=heartbeats)
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
        passes.append(("load_graph", time.perf_counter() - t0,
                       {"graph_key": key, "source": source}))

        t0 = time.perf_counter()
        # The parent persisted the partition map / plan to disk before
        # sending the spec, so this is a disk-cache hit, not a recompute.
        derived = catalog.derived_for(key, config, spec["scenario"])
        passes.append(("derived_artifacts", time.perf_counter() - t0,
                       {"artifacts": sorted(derived)}))

        config = replace(config, derived=derived, cancel=token)
        t0 = time.perf_counter()
        result = run_scenario(graph, spec["scenario"], config)
        passes.append((
            "run_scenario", time.perf_counter() - t0,
            {"executor": config.executor_name,
             "n_sub_runs": len(result.sub_runs),
             "walk_edges": int(sum(c.n_edges for c in result.circuits))},
        ))
        _scrub_result(result)
        return {"state": "DONE", "result": result, "passes": passes,
                "executor": config.executor_name}
    except RunCancelledError as exc:
        passes.append(("cancelled", time.perf_counter() - started,
                       {"reason": exc.reason, "where": exc.where}))
        if exc.reason == "timeout":
            return {"state": "FAILED", "error": str(exc), "passes": passes,
                    "transient": False}
        return {"state": "CANCELLED", "error": None, "passes": passes}
    except Exception as exc:  # the worker loop must survive any job failure
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        passes.append(("error", 0.0, {"error": detail}))
        return {"state": "FAILED", "error": detail, "passes": passes,
                "transient": isinstance(exc, TransientJobError)}


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
            conn.send(_run_spec(spec, flags, slot, catalog, graph_cache,
                                heartbeats=heartbeats))
    finally:
        flags.close()
        if heartbeats is not None:
            heartbeats.close()
        conn.close()


class ForkedWorkerPool(SupervisedPool):
    """N pre-forked job workers, one pipe, cancel flag and heartbeat each.

    Created before the engine's dispatcher threads so the initial fork is
    single-threaded. A worker that dies or hangs mid-job is killed (if
    needed), respawned, and reported as a :class:`TransientJobError` — the
    pool survives; only the job on that slot is interrupted. Respawns are
    budgeted per rolling window: past ``respawn_budget`` respawns in
    ``respawn_window`` seconds, :meth:`circuit_open` turns true for
    ``breaker_cooldown`` seconds and the engine degrades to in-process
    execution instead of feeding a crash loop.

    Parameters
    ----------
    hang_timeout:
        Seconds of heartbeat silence (no superstep/sub-run boundary
        reached) after which a worker is declared hung and SIGKILL'd.
        ``None`` (default) disables hang detection — a legitimate
        superstep may take arbitrarily long.
    """

    def __init__(self, n: int, catalog_root: str | Path,
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
        self._catalog_root = str(catalog_root)
        self._ctx = multiprocessing.get_context("fork")
        self.flags = shm.CancelFlags.create(n)
        self.heartbeats = shm.HeartbeatSlots.create(n)
        self.respawn_budget = respawn_budget
        self.respawn_window = respawn_window
        self.breaker_cooldown = breaker_cooldown
        self._breaker = RollingBreaker(respawn_budget, respawn_window,
                                       breaker_cooldown)
        self._init_supervision("forked", hang_timeout=hang_timeout,
                               metrics=metrics)
        self._workers: list = [None] * n
        self._closed = False
        for slot in range(n):
            self._spawn(slot)

    @property
    def total_respawns(self) -> int:
        return self._breaker.count

    @property
    def _broken_until(self) -> float:
        return self._breaker._broken_until

    @_broken_until.setter
    def _broken_until(self, value: float) -> None:
        self._breaker._broken_until = value

    def _spawn(self, slot: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, slot, self._catalog_root, self.flags.descriptor,
                  self.heartbeats.descriptor),
            name=f"job-worker-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers[slot] = (proc, parent_conn)

    def _respawn_after_failure(self, slot: int) -> None:
        """Respawn a failed slot and charge it against the breaker budget."""
        self._breaker.record()
        self._m_respawns.inc()
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

    def run(self, slot: int, spec: dict) -> dict:
        """Run one spec on ``slot``; raises :class:`TransientJobError` on
        worker death or hang (the slot is respawned first).

        Blocks the calling dispatcher thread (each thread owns its slot, so
        there is no cross-thread contention on the pipe).
        """
        if self._closed:
            raise RuntimeError("ForkedWorkerPool is closed")
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
                        self.record_hung_kill()
                        proc.kill()
                        proc.join(timeout=2.0)
                        conn.close()
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
            conn.close()
            proc.join(timeout=1.0)
            self._respawn_after_failure(slot)
            raise TransientJobError(
                f"dispatcher worker {slot} died mid-job; respawned"
            ) from None

    def cancel(self, slot: int) -> None:
        """Signal the job running on ``slot`` (polled at safe points)."""
        self.flags.set(slot)

    def clear(self, slot: int) -> None:
        self.flags.clear(slot)

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

    def __enter__(self) -> "ForkedWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
