"""Job engine: dispatcher threads multiplexing jobs over one shared pool.

The engine is the long-lived heart of the serving stack. It owns three
things the per-request path rebuilt on every call:

* the **graph catalog** — so a job's graph and its partition map load from
  cache instead of being re-parsed and re-partitioned;
* one **shared thread pool** (:class:`~repro.bsp.executors.SharedPool`) —
  handed to every pipeline run through ``RunConfig.pool``, so supersteps
  execute on persistent workers instead of a per-run pool;
* the **dispatcher threads** — each pops the highest-priority job, turns
  it into a spec, hands the spec to the engine's dispatcher and lands the
  spec-out that comes back (:meth:`JobEngine._run_job`): the durable
  per-job artifact JSON (schema v5) with the full pass history, a retry,
  or a terminal failure.

Spec → spec-out is the only contract between the engine and a dispatcher
(:mod:`repro.jobs.dispatch`), and every dispatcher runs the spec through
the same :func:`~repro.jobs.dispatch._run_spec`: on the dispatcher thread
in thread mode, in a forked worker in process mode, on a worker host in
remote mode.

Concurrent jobs produce bit-identical results to serial
:func:`~repro.scenarios.base.run_scenario` calls: the pipeline's outcome is
executor-independent by the engine's commit contract, and every cached
artifact is validated against the run before use.

Hardened for sustained load: the registry is bounded (``retention``, with
a durable artifact-index fallback for evicted jobs' status), submissions
are bounded (``max_queued`` → :class:`~repro.errors.QueueFullError`), and
RUNNING jobs stop cooperatively — each job carries a
:class:`~repro.pipeline.cancel.CancelToken` (cancel flag + optional
deadline) checked at superstep and sub-run boundaries, so
:meth:`JobEngine.cancel` reaches mid-run jobs on every backend.

Fault tolerance (the crash-safety layer on top):

* **journal** — with a :class:`~repro.jobs.journal.JobJournal` attached,
  every submission is fsync'd to an append-only WAL *before it is
  acknowledged*, and every transition after it; :meth:`recover` (run
  automatically at construction) replays the journal plus the durable
  artifacts and re-enqueues whatever a crash interrupted, so ``kill -9``
  loses zero acknowledged submissions;
* **retries** — transient failures (:class:`~repro.errors.TransientJobError`:
  killed/hung workers, dead hosts, broken pipes) re-dispatch with
  exponential backoff and deterministic jitter, up to the job's
  ``max_retries``; permanent job errors never retry;
* **supervision** — the forked worker pool heartbeats, hang-kills and
  respawns its workers under a budgeted circuit breaker, and the remote
  pool cools dead hosts down; while a pool's circuit is open the engine
  *degrades* its jobs to the in-process dispatcher instead of feeding a
  crash loop;
* **drain** — :meth:`drain` stops intake (HTTP 503 at the front end),
  lets running jobs finish inside a deadline, then checkpoints the journal
  so still-queued jobs survive to the next start.

Dynamic graphs (see :mod:`repro.deltas` and ``PATCH /graphs/<key>``):
:meth:`mutate_graph` applies a :class:`~repro.deltas.GraphDelta` through
the catalog's delta-chain store, and :meth:`add_watch` pins a (graph,
scenario) pair so every mutation re-emits an incrementally repaired
result as an ordinary job. Watch lifecycle records ride the same journal
(``watch_created``/``watch_advanced``/``watch_deleted``) and survive
restarts — recovery re-pins each watch to its last journaled graph head.
"""

from __future__ import annotations

import itertools
import random
import re
import threading
import time
import uuid
from collections import deque
from dataclasses import replace
from pathlib import Path

from ..bsp import transport as frame
from ..bsp.executors import SharedPool
from ..deltas import GraphDelta, RepairSession
from ..errors import EngineDrainingError, JobError, TransientJobError
from ..faults import FaultPlan
from ..obs import MetricsRegistry, get_registry
from ..pipeline.cancel import CancelToken
from ..pipeline.context import RunConfig
from . import supervise
from .catalog import GraphCatalog
from .dispatch import (
    ForkedWorkerPool,
    InProcessDispatcher,
    _describe,
    _is_transient,
)
from .remote import RemoteHostPool
from .journal import (
    JobJournal,
    TERMINAL_EVENTS,
    config_from_dict,
    reduce_records,
    reduce_watches,
)
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobQueue,
    JobResult,
)

__all__ = ["JobEngine"]


class JobEngine:
    """Thread-based scheduler running scenario jobs over shared resources.

    Parameters
    ----------
    catalog:
        The :class:`~repro.jobs.catalog.GraphCatalog` (or a path-like cache
        root, from which one is built).
    dispatchers:
        Number of dispatcher threads — how many jobs run concurrently.
    dispatcher:
        ``"thread"`` (default) runs jobs on the dispatcher threads over the
        shared pool; ``"process"`` pre-forks one worker process per
        dispatcher (:class:`~repro.jobs.dispatch.ForkedWorkerPool`) and
        each thread drives its own worker through a pipe — jobs then run
        on separate cores, reading graphs through the catalog's mmap'd
        NPZ files, with cancellation delivered through a fork-shared flag
        per worker (:class:`~repro.bsp.shm.WorkerSlots`). In process
        mode no pool is injected (``pool_workers`` is ignored): each worker
        picks its backend from the job's own config. ``"remote"`` is the
        coordinator mode: jobs dispatch over the registered ``hosts``
        (:class:`~repro.jobs.remote.RemoteHostPool`) with content-hash
        placement, host-side catalog provisioning, and the same
        transient-retry/circuit-breaker supervision — a dead or hung host
        cools down, its jobs re-dispatch elsewhere, and with every host
        down the engine degrades to in-process execution.
    hosts:
        Worker host addresses for ``dispatcher="remote"`` — a
        ``"host:port,host:port"`` string or a list of ``(host, port)``
        pairs. Required in remote mode, ignored otherwise.
    host_cooldown:
        Seconds a dead/hung remote host stays out of scheduling before
        the coordinator tries it again.
    pool:
        An externally-owned :class:`SharedPool`, or ``None`` to have the
        engine build (and own) one of ``pool_workers`` threads.
    pool_workers:
        Threads in the engine's own shared pool. ``0`` builds none: each
        run picks its own backend from its config (the cold per-request
        behavior).
    artifact_dir:
        Where per-job durable artifact JSONs are written (``None`` disables
        them).
    keep_results:
        How many terminal jobs keep their in-memory
        :class:`~repro.scenarios.base.ScenarioResult`. Every dispatcher
        keeps the compacted result
        (:meth:`~repro.scenarios.base.ScenarioResult.compact`): the walks,
        metrics and per-sub-run reports, not the fragment store,
        partitioned graph or final states — so a resident result costs
        about its walks. ``None`` (default) keeps all — right for batches
        and tests, wrong for a server, where the walks of every job ever
        run would stay in RAM. ``repro-euler serve`` bounds this; evicted
        results remain available through the durable artifact JSON.
    retention:
        How many **terminal** jobs stay in the in-memory registry
        (``None``: all). Evicted jobs answer :meth:`job_summary` /
        ``GET /jobs/<id>`` from the durable artifact index, so a week-long
        server holds O(retention) job records while every job ever run
        stays queryable. Pair with ``artifact_dir`` — without artifacts an
        evicted job's status is gone.
    max_queued:
        Backpressure bound on QUEUED jobs; :meth:`submit` raises
        :class:`~repro.errors.QueueFullError` (HTTP 429 at the front end)
        once hit. ``None``: unbounded.
    default_timeout:
        Default per-job ``timeout_seconds`` applied when a submission does
        not carry its own (``None``: unbounded). The deadline budgets run
        time (armed at dispatch) and fails the job at its next safe point.
    journal:
        A :class:`~repro.jobs.journal.JobJournal` (or a path to build one
        at), or ``None`` (default) for a journal-less engine. With a
        journal, :meth:`recover` runs during construction — before the
        dispatcher threads start — replaying whatever a previous process
        left behind.
    default_max_retries:
        ``max_retries`` applied to submissions that do not carry their
        own. ``0`` (default): transient failures fail like any other.
    retry_backoff / retry_backoff_max:
        Exponential-backoff base and cap (seconds) between retry attempts;
        jitter is deterministic per (job, attempt).
    hang_timeout / respawn_budget / respawn_window / breaker_cooldown:
        Process-mode supervision knobs, passed through to
        :class:`~repro.jobs.dispatch.ForkedWorkerPool` (see its docs).
        Ignored in thread mode.
    """

    def __init__(
        self,
        catalog: GraphCatalog | str | Path,
        dispatchers: int = 2,
        dispatcher: str = "thread",
        pool: SharedPool | None = None,
        pool_workers: int = 4,
        artifact_dir: str | Path | None = None,
        keep_results: int | None = None,
        retention: int | None = None,
        max_queued: int | None = None,
        default_timeout: float | None = None,
        journal: JobJournal | str | Path | None = None,
        default_max_retries: int = 0,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 5.0,
        hang_timeout: float | None = None,
        respawn_budget: int = 5,
        respawn_window: float = 60.0,
        breaker_cooldown: float = 30.0,
        hosts=None,
        host_cooldown: float = 5.0,
        metrics: MetricsRegistry | None = None,
    ):
        if dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        if dispatcher not in ("thread", "process", "remote"):
            raise ValueError(
                f"unknown dispatcher {dispatcher!r}; "
                "use 'thread', 'process' or 'remote'"
            )
        if pool_workers < 0:
            raise ValueError("pool_workers must be >= 0")
        if keep_results is not None and keep_results < 0:
            raise ValueError("keep_results must be >= 0 or None")
        if default_max_retries < 0:
            raise ValueError("default_max_retries must be >= 0")
        #: The engine's metric sink: the process-global registry by default,
        #: or a caller-supplied one (a test, or a second engine in one
        #: process, must not share counter series).
        self.metrics = metrics if metrics is not None else get_registry()
        self.catalog = (
            catalog if isinstance(catalog, GraphCatalog) else GraphCatalog(catalog)
        )
        self.dispatcher = dispatcher
        self.dispatchers = dispatchers
        self._owns_pool = False
        self.pool = None
        if dispatcher == "thread":
            self._owns_pool = pool is None and pool_workers > 0
            self.pool = pool if pool is not None else (
                SharedPool(pool_workers) if pool_workers > 0 else None
            )
        #: Thread mode's dispatcher, and every mode's fallback while its
        #: pool's circuit is open.
        self._in_process = InProcessDispatcher(self.catalog, self.pool,
                                               self.metrics)
        if dispatcher == "process":
            # Fork the workers *before* any dispatcher thread exists: a
            # single-threaded parent makes fork semantics trivial (no lock
            # can be mid-held in the children).
            self._dispatcher = ForkedWorkerPool(
                dispatchers, self.catalog,
                hang_timeout=hang_timeout,
                respawn_budget=respawn_budget,
                respawn_window=respawn_window,
                breaker_cooldown=breaker_cooldown,
                metrics=self.metrics,
            )
        elif dispatcher == "remote":
            self._dispatcher = RemoteHostPool(
                hosts, self.catalog,
                hang_timeout=hang_timeout,
                host_cooldown=host_cooldown,
                metrics=self.metrics,
            )
        else:
            self._dispatcher = self._in_process
        self.artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self.keep_results = keep_results
        self.default_timeout = default_timeout
        self.default_max_retries = default_max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self._resident: deque[Job] = deque()
        self._resident_lock = threading.Lock()
        self.queue = JobQueue(retention=retention, max_queued=max_queued,
                              metrics=self.metrics)
        self.journal = (
            journal if (journal is None or isinstance(journal, JobJournal))
            else JobJournal(journal)
        )
        #: idempotency key → job id (seeded from the journal at recovery).
        self._idem: dict[str, str] = {}
        self._idem_lock = threading.Lock()
        #: Minimal status rows for journal-only jobs (terminal at crash
        #: with no artifact, or unrecoverable) — the job_summary fallback
        #: of last resort.
        self._journal_fallback: dict[str, dict] = {}
        #: Pending backoff timers → their jobs; close() resolves survivors.
        self._retry_timers: dict[threading.Timer, Job] = {}
        self._timers_lock = threading.Lock()
        self._draining = False
        self._stop_dispatch = False
        self._ids = itertools.count(1)
        self._closed = False
        #: watch id → live watch record (see :meth:`add_watch`).
        self._watches: dict[str, dict] = {}
        self._watch_lock = threading.Lock()
        self._watch_ids = itertools.count(1)
        self._mutations = 0
        self._watch_emissions = 0
        #: What :meth:`recover` found and did (all zero without a journal).
        self.recovery_stats: dict = {
            "replayed": 0, "requeued": 0, "reconciled": 0,
            "failed": 0, "terminal": 0, "watches": 0,
        }
        if self.journal is not None:
            self.recover()
        self._init_metrics()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop, args=(i,),
                name=f"job-dispatch-{i}", daemon=True,
            )
            for i in range(dispatchers)
        ]
        for t in self._threads:
            t.start()

    # -- submission API ----------------------------------------------------

    def submit(
        self,
        scenario: str,
        graph=None,
        graph_key: str | None = None,
        config: RunConfig | None = None,
        priority: int = 0,
        name: str = "",
        timeout_seconds: float | None = None,
        max_retries: int | None = None,
        idempotency_key: str | None = None,
        trace_id: str | None = None,
    ) -> JobResult:
        """Queue one scenario run; returns its future-style handle.

        Exactly one of ``graph`` (cataloged on the spot) or ``graph_key``
        (already cataloged) must be given. ``timeout_seconds`` bounds the
        job's *run* time (the engine's ``default_timeout`` applies when
        omitted); an overrunning job fails at its next safe point.
        ``max_retries`` bounds transient re-dispatches (default:
        ``default_max_retries``).

        ``idempotency_key`` deduplicates: a resubmission carrying a key
        already seen (within the registry retention + journal window)
        returns the original job's handle instead of queueing a duplicate
        — the client-retry safety net.

        With a journal, the submission is fsync'd durable **before** this
        method returns: an acknowledged job survives ``kill -9``.

        Raises :class:`~repro.errors.QueueFullError` under backpressure
        (``max_queued``) and :class:`~repro.errors.EngineDrainingError`
        during graceful shutdown — the graph pin taken here is released on
        the way out, so rejected submissions leak nothing.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._draining:
            raise EngineDrainingError()
        if (graph is None) == (graph_key is None):
            raise ValueError("pass exactly one of graph or graph_key")
        if idempotency_key:
            existing = self.idempotent_job_id(idempotency_key)
            if existing is not None:
                try:
                    return self.queue.handle(existing)
                except JobError:
                    # The original aged out of the registry (terminal long
                    # ago); treat the resubmission as a fresh job.
                    pass
        # Pinned until the job is terminal: budget eviction must never pull
        # the graph out from under an accepted job. For a fresh graph the
        # pin rides inside put()'s lock hold (no catalog-then-pin TOCTOU);
        # for a pre-cataloged key, pin() itself raises on a stale key.
        if graph is not None:
            graph_key = self.catalog.put(graph, name=name, pin=True)
        else:
            self.catalog.pin(graph_key)  # KeyError on an unknown key
        try:
            config = config if config is not None else RunConfig()
            meta = self.catalog.meta(graph_key)
            if timeout_seconds is None:
                timeout_seconds = self.default_timeout
            if max_retries is None:
                max_retries = self.default_max_retries
            job = Job(
                id=f"job-{next(self._ids):06d}",
                scenario=scenario,
                graph_key=graph_key,
                config=config,
                priority=priority,
                graph_name=name or meta.get("name", ""),
                n_vertices=int(meta["n_vertices"]),
                n_edges=int(meta["n_edges"]),
                timeout_seconds=timeout_seconds,
                cancel_token=CancelToken(timeout_seconds),
                max_retries=int(max_retries),
                idempotency_key=idempotency_key,
                # Client-supplied or minted here: every job has a trace id
                # from the moment it exists, so logs/artifacts/worker spans
                # downstream can always name the originating request.
                trace_id=trace_id or uuid.uuid4().hex[:16],
            )
            handle = self.queue.submit(job)
            try:
                self._journal_submit(job)
            except BaseException:
                # Never acknowledge what the journal couldn't record: pull
                # the job back out before the handle escapes.
                self.queue.cancel(job.id)
                raise
            if idempotency_key:
                with self._idem_lock:
                    self._idem[idempotency_key] = job.id
            return handle
        except BaseException:
            self.catalog.unpin(graph_key)
            raise

    def idempotent_job_id(self, key: str) -> str | None:
        """The job id previously submitted under ``key``, if any."""
        with self._idem_lock:
            return self._idem.get(key)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: QUEUED terminally, RUNNING cooperatively.

        Returns ``True`` when the request took effect — a queued job
        reached CANCELLED on the spot, or a running job's cancel token was
        signalled (it lands on CANCELLED at its next superstep or sub-run
        boundary, with the partial pass history persisted). Terminal and
        registry-evicted jobs return ``False``; unknown ids raise.
        """
        try:
            job = self.queue.get(job_id)
        except JobError:
            if self.artifact_doc(job_id) is not None:
                return False  # evicted from the registry, hence terminal
            raise
        if self.queue.cancel(job_id):
            self.catalog.unpin(job.graph_key)
            # Cancelled-while-queued jobs never reach a dispatcher (nor
            # _finish): drop the repair session and write their artifact
            # here, so neither a watch's session nor the registry entry
            # outlives its use.
            job.config = replace(job.config, repair=None)
            self._write_artifact(job, CANCELLED, swallow_errors=True)
            self._journal_event("cancelled", job)
            return True
        if job.state == RUNNING and job.cancel_token is not None:
            job.cancel_token.cancel()
            self._dispatcher.cancel(job_id)
            return True
        return False

    def job(self, job_id: str) -> Job:
        return self.queue.get(job_id)

    def job_summary(self, job_id: str) -> dict:
        """Status row for any job ever run: registry, artifact, journal.

        The bounded registry answers live and recently-terminal jobs; for
        evicted ones the durable per-job artifact
        (:func:`~repro.bench.report_io.load_job_summary`) still serves the
        exact :meth:`~repro.jobs.queue.Job.summary` shape; jobs known only
        to the journal (terminal at a crash before their artifact landed)
        answer from the recovery fallback rows.
        """
        from ..bench.report_io import load_job_summary

        try:
            return self.queue.get(job_id).summary()
        except JobError:
            summary = load_job_summary(self.artifact_dir, job_id)
            if summary is None:
                summary = self._journal_fallback.get(job_id)
            if summary is None:
                raise
            return summary

    def artifact_doc(self, job_id: str) -> dict | None:
        """The full durable artifact document, or ``None`` when absent."""
        from ..bench.report_io import load_job

        if self.artifact_dir is None:
            return None
        return load_job(self.artifact_dir / f"{job_id}.json")

    def handle(self, job_id: str) -> JobResult:
        return self.queue.handle(job_id)

    def jobs(self) -> list[Job]:
        return self.queue.jobs()

    # -- dynamic graphs: mutations and watch jobs ----------------------------

    def mutate_graph(self, base_key: str, delta: GraphDelta, name: str = "",
                     faults: FaultPlan | None = None) -> dict:
        """Apply a delta through the catalog; advance every watch on it.

        The catalog mints the child's content hash from a delta chain
        (no full NPZ until something exports it). Each watch currently
        pinned to ``base_key`` then rolls forward: its repair session
        advances across the delta (deciding incremental repair vs full
        recompute), the watch re-pins onto the child hash, and one
        emission job is submitted carrying the session — the repaired
        result lands as a normal job whose artifact pass history records
        the decision. Returns the child key plus per-watch emissions.

        ``faults`` (a plan with a ``delta_apply`` spec armed) makes the
        catalog application itself fail *before* any watch moves — a
        failed mutation leaves the catalog and every watch untouched.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._draining:
            raise EngineDrainingError()
        new_key = self.catalog.mutate(base_key, delta, name=name,
                                      faults=faults)
        self._mutations += 1
        with self._watch_lock:
            targets = [w for w in self._watches.values()
                       if w["graph_key"] == base_key]
        out: dict = {"graph_key": new_key, "base_key": base_key,
                     "delta": delta.summary(), "watches": {}}
        for w in targets:
            report = w["session"].advance(delta)
            self.catalog.pin(new_key)
            self.catalog.unpin(w["graph_key"])
            w["graph_key"] = new_key
            w["mutations"] += 1
            handle = self.submit(
                w["scenario"], graph_key=new_key,
                config=replace(w["config"], repair=w["session"]),
                priority=w["priority"], name=w["name"] or name,
            )
            # The decision is stamped coordinator-side so it reaches the
            # artifact on every dispatcher mode (process/remote workers
            # run the emission cold — the session never crosses a pipe).
            self.queue.get(handle.job_id).record_pass(
                "repair_decision", 0.0, watch_id=w["id"], **report
            )
            w["emitted"].append(handle.job_id)
            w["last_job_id"] = handle.job_id
            self._watch_emissions += 1
            self._journal_event(
                "watch_advanced", _Ref(w["id"]), graph_key=new_key,
                emitted=handle.job_id, decision=report.get("decision"),
            )
            out["watches"][w["id"]] = {
                "job_id": handle.job_id,
                "decision": report.get("decision"),
                "dirty_parts": report.get("dirty_parts"),
            }
        return out

    def add_watch(self, graph_key: str, scenario: str = "circuit",
                  config: RunConfig | None = None, name: str = "",
                  threshold: float = 0.5, priority: int = 0) -> dict:
        """Pin a (graph, scenario) pair: every mutation re-emits a result.

        The watch holds a :class:`~repro.deltas.RepairSession` across
        mutations, so successive emissions repair incrementally instead
        of recomputing (``threshold``: the dirty-partition fraction past
        which a mutation falls back to full recompute). With a journal
        the watch is durable — :meth:`recover` rebuilds the registry on
        restart, re-pinned to the watch's last journaled graph head (the
        Phase-1 cache is process memory, so the first post-restart
        emission is a cold capture). Returns the watch summary row.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._draining:
            raise EngineDrainingError()
        self.catalog.pin(graph_key)  # KeyError on an unknown key
        config = config if config is not None else RunConfig()
        watch_id = f"watch-{next(self._watch_ids):06d}"
        record = {
            "id": watch_id,
            "graph_key": graph_key,
            "base_key": graph_key,
            "scenario": scenario,
            "config": config,
            "name": name,
            "priority": int(priority),
            "session": RepairSession(threshold=threshold),
            "threshold": float(threshold),
            "mutations": 0,
            "emitted": [],
            "last_job_id": None,
            "created_at": time.time(),
            "recovered": False,
        }
        with self._watch_lock:
            self._watches[watch_id] = record
        if self.journal is not None:
            from .journal import config_to_dict

            try:
                # Like submissions: never acknowledge a watch the journal
                # couldn't record.
                self.journal.append(
                    "watch_created", watch_id,
                    graph_key=graph_key, scenario=scenario,
                    config=config_to_dict(config), name=name,
                    threshold=float(threshold), priority=int(priority),
                )
            except BaseException:
                with self._watch_lock:
                    self._watches.pop(watch_id, None)
                self.catalog.unpin(graph_key)
                raise
        return self.watch_summary(watch_id)

    def watch_summary(self, watch_id: str) -> dict:
        """One watch's status row (raises ``KeyError`` on unknown ids)."""
        with self._watch_lock:
            w = self._watches.get(watch_id)
            if w is None:
                raise KeyError(f"unknown watch {watch_id!r}")
            return {
                "id": w["id"],
                "graph_key": w["graph_key"],
                "base_key": w["base_key"],
                "scenario": w["scenario"],
                "name": w["name"],
                "threshold": w["threshold"],
                "mutations": w["mutations"],
                "emitted_jobs": len(w["emitted"]),
                "last_job_id": w["last_job_id"],
                "last_repair": dict(w["session"].last_report),
                "created_at": w["created_at"],
                "recovered": w["recovered"],
            }

    def watches(self) -> list[dict]:
        """Status rows for every live watch, in id order."""
        with self._watch_lock:
            ids = sorted(self._watches)
        return [self.watch_summary(i) for i in ids]

    def delete_watch(self, watch_id: str) -> bool:
        """Tear a watch down (unpins its graph head); ``KeyError`` when
        unknown."""
        with self._watch_lock:
            w = self._watches.pop(watch_id, None)
        if w is None:
            raise KeyError(f"unknown watch {watch_id!r}")
        self.catalog.unpin(w["graph_key"])
        self._journal_event("watch_deleted", _Ref(watch_id))
        return True

    # -- journal ------------------------------------------------------------

    def _journal_submit(self, job: Job) -> None:
        """Durably record an accepted submission (raises on failure)."""
        if self.journal is None:
            return
        from .journal import config_to_dict

        self.journal.append(
            "submitted", job.id,
            scenario=job.scenario,
            graph_key=job.graph_key,
            config=config_to_dict(job.config),
            priority=job.priority,
            name=job.graph_name,
            timeout_seconds=job.timeout_seconds,
            max_retries=job.max_retries,
            idempotency_key=job.idempotency_key,
        )

    def _journal_event(self, event: str, job: Job, **fields) -> None:
        """Record a transition; never lets journal trouble kill a dispatcher."""
        if self.journal is None:
            return
        try:
            self.journal.append(event, job.id, **fields)
        except Exception:
            pass

    def recover(self) -> dict:
        """Replay the journal + artifacts; re-enqueue interrupted jobs.

        Runs during construction (before any dispatcher thread), so by the
        time the engine serves traffic every job a crash interrupted is
        either back in the queue (original id — clients keep polling the
        id they were acknowledged with) or journaled terminal:

        * jobs QUEUED at the crash re-enqueue as-is;
        * jobs RUNNING at the crash consume one attempt (the run died with
          the process) and re-enqueue while ``attempt <= max_retries``,
          else fail terminally;
        * jobs whose terminal record was lost but whose durable artifact
          landed (the artifact is written *before* the terminal journal
          record) are reconciled from the artifact;
        * jobs missing their ``submitted`` spec fail as unrecoverable.

        Idempotency keys from every replayed spec re-seed the dedup map.
        Returns (and stores as ``recovery_stats``) what was done.
        """
        from ..bench.report_io import load_job_summary

        stats = {"replayed": 0, "requeued": 0, "reconciled": 0,
                 "failed": 0, "terminal": 0, "watches": 0}
        if self.journal is None:
            self.recovery_stats = stats
            return stats
        records = self.journal.replay()
        stats["replayed"] = len(records)
        states = reduce_records(records)
        max_id = 0
        for job_id, state in sorted(states.items()):
            m = re.fullmatch(r"job-(\d+)", job_id)
            if m:
                max_id = max(max_id, int(m.group(1)))
            spec = state["spec"] or {}
            key = spec.get("idempotency_key")
            if key:
                self._idem[key] = job_id
            if state["event"] in TERMINAL_EVENTS:
                stats["terminal"] += 1
                if (load_job_summary(self.artifact_dir, job_id) is None
                        and job_id not in self._journal_fallback):
                    self._journal_fallback[job_id] = self._fallback_summary(
                        job_id, state["event"].upper(), spec, state["error"]
                    )
                continue
            # Interrupted (QUEUED/RUNNING at crash). The durable artifact
            # is written before the terminal journal record, so an
            # artifact in a terminal state wins: the job finished; only
            # its journal record was lost.
            summary = load_job_summary(self.artifact_dir, job_id)
            if summary is not None and summary.get("state") in TERMINAL_STATES:
                self._journal_event(
                    summary["state"].lower(), _Ref(job_id), reconciled=True
                )
                stats["reconciled"] += 1
                continue
            if state["spec"] is None:
                self._recover_failed(
                    job_id, spec, stats,
                    "unrecoverable: submitted record lost",
                )
                continue
            was_running = state["event"] == "started"
            attempt = state["attempt"] + (1 if was_running else 0)
            max_retries = int(spec.get("max_retries") or 0)
            if was_running and attempt > max_retries:
                self._recover_failed(
                    job_id, spec, stats,
                    "lost at crash; retry budget exhausted",
                )
                continue
            try:
                config = config_from_dict(spec.get("config") or {})
                self.catalog.pin(spec["graph_key"])
            except (KeyError, ValueError) as exc:
                self._recover_failed(
                    job_id, spec, stats, f"unrecoverable: {exc}"
                )
                continue
            try:
                meta = self.catalog.meta(spec["graph_key"])
                timeout = spec.get("timeout_seconds")
                job = Job(
                    id=job_id,
                    scenario=spec.get("scenario", ""),
                    graph_key=spec["graph_key"],
                    config=config,
                    priority=int(spec.get("priority") or 0),
                    graph_name=spec.get("name", ""),
                    n_vertices=int(meta["n_vertices"]),
                    n_edges=int(meta["n_edges"]),
                    timeout_seconds=timeout,
                    cancel_token=CancelToken(timeout),
                    max_retries=max_retries,
                    attempt=attempt,
                    idempotency_key=key,
                )
                job.record_pass(
                    "recovered", 0.0,
                    was=("RUNNING" if was_running else "QUEUED"),
                    attempt=attempt,
                )
                if was_running:
                    self._journal_event(
                        "retry", job, attempt=attempt,
                        error="recovered: running at crash",
                    )
                self.queue.submit(job, force=True)
                stats["requeued"] += 1
            except BaseException:
                self.catalog.unpin(spec["graph_key"])
                raise
        if max_id:
            self._ids = itertools.count(max_id + 1)
        self._recover_watches(records, stats)
        self.recovery_stats = stats
        return stats

    def _recover_watches(self, records: list[dict], stats: dict) -> None:
        """Rebuild the watch registry from journaled watch events.

        A recovered watch re-pins its last journaled graph head and gets
        a *fresh* repair session — the Phase-1 cache died with the old
        process, so its first post-restart emission is a cold capture and
        subsequent mutations repair incrementally again. Watches whose
        head graph is no longer cataloged (evicted while down) are
        dropped rather than resurrected broken.
        """
        watch_states = reduce_watches(records)
        max_watch = 0
        for watch_id, wstate in sorted(watch_states.items()):
            m = re.fullmatch(r"watch-(\d+)", watch_id)
            if m:
                max_watch = max(max_watch, int(m.group(1)))
            if wstate["deleted"] or wstate["spec"] is None:
                continue
            spec = wstate["spec"]
            head = wstate["graph_key"] or spec.get("graph_key")
            try:
                config = config_from_dict(spec.get("config") or {})
                self.catalog.pin(head)
            except (KeyError, ValueError):
                continue
            threshold = float(spec.get("threshold") or 0.5)
            self._watches[watch_id] = {
                "id": watch_id,
                "graph_key": head,
                "base_key": spec.get("graph_key", head),
                "scenario": spec.get("scenario", "circuit"),
                "config": config,
                "name": spec.get("name", ""),
                "priority": int(spec.get("priority") or 0),
                "session": RepairSession(threshold=threshold),
                "threshold": threshold,
                "mutations": int(wstate["mutations"]),
                "emitted": [],
                "last_job_id": wstate["last_job_id"],
                "created_at": spec.get("ts"),
                "recovered": True,
            }
            stats["watches"] += 1
        if max_watch:
            self._watch_ids = itertools.count(max_watch + 1)

    def _recover_failed(self, job_id: str, spec: dict, stats: dict,
                        error: str) -> None:
        """Journal a terminal failure for a job recovery cannot re-run."""
        self._journal_event("failed", _Ref(job_id), error=error)
        self._journal_fallback[job_id] = self._fallback_summary(
            job_id, FAILED, spec, error
        )
        stats["failed"] += 1

    @staticmethod
    def _fallback_summary(job_id: str, state: str, spec: dict,
                          error: str | None) -> dict:
        """A minimal :meth:`Job.summary`-shaped row from journal data."""
        return {
            "id": job_id,
            "scenario": spec.get("scenario", ""),
            "graph_key": spec.get("graph_key", ""),
            "graph_name": spec.get("name", ""),
            "n_vertices": 0,
            "n_edges": 0,
            "priority": int(spec.get("priority") or 0),
            "state": state,
            "executor": "",
            "submitted_at": spec.get("ts"),
            "started_at": None,
            "finished_at": None,
            "queue_latency_seconds": None,
            "run_seconds": None,
            "error": error,
            "artifact_path": None,
            "timeout_seconds": spec.get("timeout_seconds"),
            "max_retries": int(spec.get("max_retries") or 0),
            "attempt": 0,
            "idempotency_key": spec.get("idempotency_key"),
            "recovered": True,
        }

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self, slot: int) -> None:
        while True:
            if self._stop_dispatch:
                return
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self._closed or self._stop_dispatch:
                    return
                continue
            self._journal_event("started", job, attempt=job.attempt)
            dispatcher = self._dispatcher
            if dispatcher.circuit_open():
                # Graceful degradation: the worker pool is crash-looping or
                # every host is down; run in-process (slower, shared GIL)
                # rather than feed jobs to workers that keep dying.
                self.metrics.counter("repro_degraded_dispatch_total").inc()
                job.record_pass("degraded_dispatch", 0.0,
                                reason=dispatcher.degrade_reason)
                dispatcher = self._in_process
            self._run_job(job, dispatcher, slot)

    def _run_job(self, job: Job, dispatcher, slot: int) -> None:
        """Run ``job`` on ``dispatcher`` and land its spec-out.

        The one place a dispatched job is finished, retried, unpinned and
        trimmed, whichever dispatcher ran it. A dispatcher raises only for
        trouble outside the run — a dead or hung worker, an unreachable
        host (:class:`~repro.errors.TransientJobError`), a parent-side
        failure — and that lands here too, classified by the same
        transient rule the runner applies to failures inside the run.
        """
        retried = False
        started = time.perf_counter()
        try:
            out = dispatcher.run_job(job, self._job_spec(job), slot)
            retried = self._apply_spec_out(job, out)
        except Exception as exc:  # a failed job must never kill its dispatcher
            infra = isinstance(exc, TransientJobError)
            detail = str(exc) if infra else _describe(exc)
            job.record_pass(dispatcher.failure_pass if infra else "error",
                            time.perf_counter() - started, error=detail)
            retried = _is_transient(exc) and self._schedule_retry(job, detail)
            if not retried:
                self._finish(job, FAILED, error=detail)
        finally:
            if not retried:
                self.catalog.unpin(job.graph_key)
                self._trim_resident(job)

    def _trim_resident(self, job: Job) -> None:
        """Bound the in-memory results a long-lived engine retains."""
        if self.keep_results is None:
            return
        with self._resident_lock:
            self._resident.append(job)
            while len(self._resident) > self.keep_results:
                self._resident.popleft().result = None

    def _job_spec(self, job: Job) -> dict:
        """The spec every dispatcher runs (see :mod:`repro.jobs.dispatch`).

        Its config carries no process-local state — no pool, cancel token,
        catalog artifacts or repair session — so it can cross a pipe or a
        socket; the in-process dispatcher re-injects the pool and the
        repair session from the job itself. The fault plan (the job's own
        or the process-wide ``REPRO_FAULTS``) is armed for the current
        attempt, which is what makes retried runs execute clean (see
        :meth:`~repro.faults.FaultPlan.for_attempt`).
        """
        plan = job.config.faults
        if plan is None:
            plan = FaultPlan.from_env()
        return {
            "job_id": job.id,
            "scenario": job.scenario,
            "graph_key": job.graph_key,
            "config": replace(
                job.config, pool=None, cancel=None, derived=None,
                repair=None,
                faults=None if plan is None else plan.for_attempt(job.attempt),
            ),
            "timeout_seconds": job.timeout_seconds,
            "trace_id": job.trace_id,
        }

    def _apply_spec_out(self, job: Job, out: dict) -> bool:
        """Land a spec-out; True when a retry was scheduled."""
        job.passes.extend(out.get("passes", []))
        # Worker-side counter/histogram increments (walk-cache hits, stage
        # latencies) fold into the coordinator's registry, so one scrape
        # covers the whole dispatch tree regardless of where jobs ran; a
        # worker catalog's lookups fold into this engine's catalog, whose
        # registry renders repro_catalog_events_total once.
        self.metrics.merge_state(out.get("metrics_delta") or {})
        self.catalog.metrics.merge_state(out.get("catalog_metrics_delta") or {})
        job.executor = out.get("executor", "") or job.executor
        state = out["state"]
        if state == DONE:
            job.result = out["result"]
            self._finish(job, DONE)
        elif state == CANCELLED:
            self._finish(job, CANCELLED)
        else:
            error = out.get("error") or "job failed"
            if out.get("transient") and self._schedule_retry(job, error):
                return True
            self._finish(job, FAILED, error=error)
        return False

    # -- retry/backoff ------------------------------------------------------

    def _schedule_retry(self, job: Job, error: str) -> bool:
        """Arrange a backoff'd re-dispatch; False when out of budget."""
        if job.attempt >= job.max_retries or self._closed:
            return False
        next_attempt = job.attempt + 1
        base = min(self.retry_backoff_max,
                   self.retry_backoff * (2 ** job.attempt))
        # Deterministic jitter: reproducible schedules (the chaos tests
        # replay exactly), yet distinct jobs never thundering-herd.
        jitter = random.Random(f"{job.id}:{next_attempt}").random()
        backoff = base * (1.0 + jitter)
        job.record_pass("retry", backoff, attempt=next_attempt,
                        error=error, backoff_seconds=backoff)
        job.attempt = next_attempt
        job.error = None
        self._journal_event("retry", job, attempt=next_attempt,
                            error=error, backoff=backoff)
        timer = threading.Timer(backoff, self._requeue_after_backoff, args=())
        # The timer must know itself to claim its registry slot (the
        # close() race: exactly one of timer-fire / close resolves a job).
        timer.args = (timer, job)
        timer.daemon = True
        with self._timers_lock:
            self._retry_timers[timer] = job
        self.metrics.counter("repro_retries_scheduled_total").inc()
        timer.start()
        return True

    def _requeue_after_backoff(self, timer: threading.Timer, job: Job) -> None:
        with self._timers_lock:
            if self._retry_timers.pop(timer, None) is None:
                return  # close() claimed (and resolved) this job already
        token = job.cancel_token
        if token is not None and token.cancelled:
            # Cancelled while waiting out the backoff.
            job.record_pass("cancelled", 0.0, reason="cancel",
                            where="retry backoff")
            self._finish(job, CANCELLED)
        elif not self.queue.requeue(job):
            self._finish(job, FAILED,
                         error="engine closed during retry backoff")
        else:
            return  # back in the queue; the pin stays held
        self.catalog.unpin(job.graph_key)
        self._trim_resident(job)

    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        """Land a running job in a terminal state: artifact, journal, queue.

        The artifact and the journal record the terminal state before
        ``queue.finish`` commits it (recovery trusts an artifact written
        ahead of its journal record), yet only ``queue.finish`` writes
        ``job.state``: a status read never sees a terminal state whose
        handle is still pending and whose registry trim has not run. A
        DONE artifact that cannot be written raises, so the caller fails
        the job instead of reporting a result with no durable record.

        The job's repair session goes here: a watch's session (its
        per-partition Phase-1 captures) must die with the watch, not live
        on in every retained emission job.
        """
        if job.config.repair is not None:
            job.config = replace(job.config, repair=None)
        job.finished_at = time.time()
        self._write_artifact(job, state, error, swallow_errors=state != DONE)
        fields = {} if error is None else {"error": error}
        self._journal_event(state.lower(), job, **fields)
        self.queue.finish(job, state, error=error)

    def _write_artifact(self, job: Job, state: str, error: str | None = None,
                        swallow_errors: bool = False) -> None:
        """Write the job's durable artifact as of ``state`` (and ``error``).

        The live ``job`` keeps its registry state: the artifact serializes
        a copy stamped with the terminal state the caller is about to
        commit.
        """
        if self.artifact_dir is None:
            return
        from ..bench.report_io import save_job

        try:
            t0 = time.perf_counter()
            # Stamped before serialization so the artifact's own status row
            # names its path — what evicted-job lookups serve verbatim.
            path = self.artifact_dir / f"{job.id}.json"
            job.artifact_path = str(path)
            save_job(replace(job, state=state,
                             error=job.error if error is None else error),
                     path)
            job.record_pass("write_artifact", time.perf_counter() - t0,
                            path=str(path))
        except Exception:
            job.artifact_path = None  # never point at a file that isn't there
            if not swallow_errors:
                raise

    # -- lifecycle ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 30.0, grace: float = 5.0) -> dict:
        """Graceful shutdown, phase one: stop intake, let work land.

        New submissions raise :class:`~repro.errors.EngineDrainingError`
        (HTTP 503 with ``Retry-After`` at the front end) while queued and
        running jobs keep executing. Past ``timeout`` seconds, dispatch
        stops, still-RUNNING jobs are asked to cancel at their next safe
        point (waited on for ``grace`` seconds), and the journal is
        checkpointed — **still-QUEUED jobs stay journaled** and will be
        re-enqueued by the next process's :meth:`recover`, so even an
        impatient drain loses nothing that was acknowledged.

        Follow with ``close(cancel_queued=False)``: cancelling the
        leftovers would journal them terminal and forfeit that recovery.
        """
        self._draining = True
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            counts = self.queue.counts()
            if counts[QUEUED] + counts[RUNNING] == 0:
                break
            time.sleep(0.05)
        # Past the deadline (or drained): stop dispatch so leftovers stay
        # QUEUED, then push RUNNING jobs to their next safe point.
        self._stop_dispatch = True
        for job in self.queue.jobs():
            if job.state == RUNNING and job.cancel_token is not None:
                self.cancel(job.id)
        grace_deadline = time.monotonic() + max(0.0, grace)
        while time.monotonic() < grace_deadline:
            if self.queue.counts()[RUNNING] == 0:
                break
            time.sleep(0.05)
        counts = self.queue.counts()
        kept = self.journal.checkpoint() if self.journal is not None else 0
        return {
            "drained": counts[QUEUED] + counts[RUNNING] == 0,
            "remaining_queued": counts[QUEUED],
            "remaining_running": counts[RUNNING],
            "journal_records_kept": kept,
            "timeout": timeout,
        }

    def close(self, cancel_queued: bool = True) -> None:
        """Drain dispatchers and release the pool (idempotent).

        Queued jobs are cancelled by default so close cannot hang behind a
        deep queue; pass ``cancel_queued=False`` to let the queue drain
        (or, after :meth:`drain`, to leave journaled leftovers for the
        next process to recover). Running jobs always finish — their
        shared pool stays up until the dispatchers exit.
        """
        if self._closed:
            return
        # Resolve pending backoff timers first: each job is either claimed
        # here (failed terminally so its handle unblocks) or by its timer
        # firing — never both (the registry pop below arbitrates).
        with self._timers_lock:
            pending = dict(self._retry_timers)
            self._retry_timers.clear()
        for timer, job in pending.items():
            timer.cancel()
            self._finish(job, FAILED,
                         error="engine closed during retry backoff")
            self.catalog.unpin(job.graph_key)
            self._trim_resident(job)
        if cancel_queued:
            for job in self.queue.jobs():
                if job.state == QUEUED:
                    self.cancel(job.id)  # also unpins the graph
        # Watch pins are in-process state; release them (the journal, not
        # the pin table, is what makes watches survive the restart).
        with self._watch_lock:
            heads = [w["graph_key"] for w in self._watches.values()]
            self._watches.clear()
        for key in heads:
            self.catalog.unpin(key)
        self._closed = True
        self.queue.close()
        for t in self._threads:
            t.join()
        self._dispatcher.close()
        if self.pool is not None and self._owns_pool:
            self.pool.close()
        if self.journal is not None:
            self.journal.close()

    def supervisor_stats(self) -> dict:
        """Fault-tolerance counters for ``/healthz`` (shared assembly)."""
        return supervise.engine_supervisor_stats(self)

    # -- observability ------------------------------------------------------

    def _init_metrics(self) -> None:
        """Pre-create every required family so a fresh ``/metrics`` page
        renders the full schema (zero-valued, but present and typed)."""
        m = self.metrics
        m.gauge("repro_queue_depth", "Jobs currently QUEUED")
        m.gauge("repro_queue_jobs", "Jobs per state (terminal = lifetime)",
                labelnames=("state",))
        m.histogram("repro_queue_delay_seconds",
                    "Seconds between job submit and dispatch")
        m.counter("repro_jobs_total",
                  "Job state transitions (entries into each state)",
                  labelnames=("state",))
        m.counter("repro_http_responses_total", "HTTP responses by status",
                  labelnames=("method", "status"))
        m.histogram("repro_stage_seconds", "Wall seconds per pipeline stage",
                    labelnames=("stage",))
        m.counter("repro_wire_messages_total", "Frames sent",
                  labelnames=("scope",))
        m.counter("repro_wire_bytes_total",
                  "Frame bytes sent (header+meta+buffers)",
                  labelnames=("scope",))
        m.counter("repro_walk_cache_events_total",
                  "Phase-1 walk-table cache lookups by result",
                  labelnames=("result",))
        m.gauge("repro_walk_cache_bytes",
                "Bytes of Phase-1 walk tables held in this process's cache")
        m.counter("repro_dispatcher_respawns_total",
                  "Worker respawns / host failures charged to the breaker",
                  labelnames=("pool",))
        m.gauge("repro_breaker_open",
                "1 while a dispatcher pool's circuit breaker is open",
                labelnames=("pool",))
        m.counter("repro_degraded_dispatch_total",
                  "Jobs degraded to in-process execution (breaker open)")
        m.counter("repro_retries_scheduled_total",
                  "Transient-failure retries scheduled")

    def render_metrics(self) -> str:
        """``GET /metrics``: the engine's, the catalog's and the journal's
        registries as one Prometheus text page.

        Every counter and histogram accumulates in the registry of the
        component that counts it, on its hot path, and each family is
        registered by that component alone, so no family renders twice.
        What is read here, at scrape time, is the live state the gauges
        report: queue depth, jobs per state and whether the pool's breaker
        is open.
        """
        m = self.metrics
        counts = self.queue.counts()
        m.gauge("repro_queue_depth").set(counts[QUEUED])
        jobs_g = m.gauge("repro_queue_jobs", labelnames=("state",))
        for state, n in counts.items():
            jobs_g.labels(state=state).set(n)
        pool = self._dispatcher
        if isinstance(pool, supervise.SupervisedPool):
            m.gauge("repro_breaker_open", labelnames=("pool",)).labels(
                pool=pool.pool_label).set(1 if pool.circuit_open() else 0)
        # Frames sent by code that named no scoped accumulator (the shared
        # process-wide WIRE) still belong on this engine's page when the
        # engine owns the process default registry; scoped senders already
        # wrote themselves in at add() time.
        if m is get_registry():
            frame.WIRE.snapshot()  # touch: materialize the lazy accumulator
        registries = [m, self.catalog.metrics]
        if self.journal is not None:
            registries.append(self.journal.metrics)
        distinct = {id(r): r for r in registries}.values()
        return "".join(r.render() for r in distinct)

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Ref:
    """A job-id stand-in for journal calls with no live :class:`Job`."""

    __slots__ = ("id",)

    def __init__(self, job_id: str):
        self.id = job_id
