"""Job model: dataclass, state machine, priority queue, future-style handle.

A :class:`Job` moves through ``QUEUED → RUNNING → DONE``/``FAILED`` (or
``→ CANCELLED`` from either non-terminal state). The :class:`JobQueue` is a
thread-safe priority queue — higher ``priority`` pops first, FIFO within a
priority — and the **bounded** registry of submitted jobs: an optional
``retention`` bound evicts the oldest terminal jobs (the engine falls back
to the durable per-job artifact index for their status), and an optional
``max_queued`` bound rejects submissions with a typed
:class:`~repro.errors.QueueFullError` instead of growing the heap without
limit. :class:`JobResult` is the submit-side handle: ``result()`` blocks
until the terminal state and either returns the
:class:`~repro.scenarios.base.ScenarioResult` or raises the job's failure.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import (
    JobCancelledError,
    JobError,
    JobFailedError,
    JobResultEvictedError,
    QueueFullError,
)
from ..obs import MetricsRegistry
from ..pipeline.context import RunConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.base import ScenarioResult

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "JOB_STATES",
    "Job",
    "JobResult",
    "JobQueue",
]

QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

#: Every reachable job state, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


@dataclass
class Job:
    """One scheduled scenario run and its full lifecycle record."""

    id: str
    scenario: str
    graph_key: str
    config: RunConfig
    priority: int = 0
    state: str = QUEUED
    graph_name: str = ""
    n_vertices: int = 0
    n_edges: int = 0
    #: The backend the job actually ran on (set by the engine after pool
    #: injection; empty until dispatched).
    executor: str = ""
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: The in-memory scenario result (DONE jobs only; the durable artifact
    #: JSON is what survives the process).
    result: Any = None
    artifact_path: str | None = None
    #: Per-job run-time budget in seconds (``None``: unbounded). Rides the
    #: cancel token; a tripped deadline fails the job at the next safe point.
    timeout_seconds: float | None = None
    #: How many times a **transient** failure (killed/hung worker, dead
    #: host, broken pool — :class:`~repro.errors.TransientJobError`)
    #: may be re-dispatched before the job fails for good. Permanent
    #: failures never retry.
    max_retries: int = 0
    #: Current attempt index (0 = first run; incremented per retry and by
    #: crash recovery for jobs that were RUNNING at the crash).
    attempt: int = 0
    #: Client-supplied deduplication key: re-submitting the same key
    #: returns the original job instead of queueing a duplicate.
    idempotency_key: str | None = None
    #: End-to-end trace id: client-supplied or minted at submit, carried
    #: from the HTTP edge through dispatch into the worker spec so every
    #: artifact and log line can name the originating request.
    trace_id: str = ""
    #: The :class:`~repro.pipeline.cancel.CancelToken` the engine threads
    #: into the run — how ``DELETE /jobs/<id>`` reaches a RUNNING job.
    cancel_token: Any = None
    #: Append-only pass history: one dict per orchestration pass
    #: (``{"pass": name, "seconds": wall, ...extras}``), mirrored into the
    #: durable artifact — the audit trail of what the engine did and when.
    passes: list[dict] = field(default_factory=list)

    @property
    def queue_latency_seconds(self) -> float | None:
        """Seconds spent waiting in the queue (None until started/cancelled)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float | None:
        """Wall seconds from start to finish (None until finished)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def record_pass(self, name: str, seconds: float, **extra) -> None:
        """Append one pass to the history."""
        self.passes.append({"pass": name, "seconds": seconds, **extra})

    def summary(self) -> dict:
        """JSON-safe status row (the serve API's job view)."""
        return {
            "id": self.id,
            "scenario": self.scenario,
            "graph_key": self.graph_key,
            "graph_name": self.graph_name,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "priority": self.priority,
            "state": self.state,
            "executor": self.executor,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_latency_seconds": self.queue_latency_seconds,
            "run_seconds": self.run_seconds,
            "error": self.error,
            "artifact_path": self.artifact_path,
            "timeout_seconds": self.timeout_seconds,
            "max_retries": self.max_retries,
            "attempt": self.attempt,
            "idempotency_key": self.idempotency_key,
            "trace_id": self.trace_id,
        }


class JobResult:
    """Future-style handle returned by :meth:`repro.jobs.engine.JobEngine.submit`."""

    def __init__(self, job: Job):
        self._job = job
        self._done = threading.Event()

    @property
    def job_id(self) -> str:
        return self._job.id

    @property
    def state(self) -> str:
        return self._job.state

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal (or timeout); returns :meth:`done`."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> "ScenarioResult":
        """The scenario result, blocking until the job finishes.

        Raises :class:`~repro.errors.JobFailedError` /
        :class:`~repro.errors.JobCancelledError` for the failure states and
        :class:`TimeoutError` when ``timeout`` elapses first.

        A DONE job whose in-memory result was trimmed by the engine's
        ``keep_results`` bound reloads the **scenario-artifact dict** from
        the durable per-job JSON (the full document survives eviction; the
        live ``ScenarioResult`` object does not). With no readable
        artifact, a typed :class:`~repro.errors.JobResultEvictedError` is
        raised instead of silently returning ``None``.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self._job.id} still {self._job.state} after {timeout}s"
            )
        if self._job.state == FAILED:
            raise JobFailedError(self._job.id, self._job.error or "unknown error")
        if self._job.state == CANCELLED:
            raise JobCancelledError(self._job.id)
        if self._job.result is None and self._job.state == DONE:
            from ..bench.report_io import load_job  # lazy: avoids a cycle

            doc = (load_job(self._job.artifact_path)
                   if self._job.artifact_path else None)
            if doc is not None and doc.get("scenario_result") is not None:
                return doc["scenario_result"]
            raise JobResultEvictedError(self._job.id)
        return self._job.result

    def _mark_done(self) -> None:
        self._done.set()


class JobQueue:
    """Thread-safe priority queue + bounded registry of submitted jobs.

    Parameters
    ----------
    retention:
        How many **terminal** jobs stay in the registry. ``None`` (default)
        keeps all — right for batches and tests, wrong for a long-lived
        server. With a bound, the oldest terminal jobs drop their
        ``Job``/``JobResult`` entries once newer ones finish; the engine
        answers their status from the durable artifact index instead.
        Queued and running jobs are never evicted.
    max_queued:
        Backpressure bound on the number of QUEUED jobs. ``None`` accepts
        everything; with a bound, :meth:`submit` raises
        :class:`~repro.errors.QueueFullError` once the queue is full, so
        overload degrades into fast rejections (HTTP 429 at the serving
        front end) instead of unbounded heap growth.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` charged for state
        transitions (``repro_jobs_total{state}``) and the submit→dispatch
        queue-delay histogram (``repro_queue_delay_seconds``). The engine
        passes its own registry; a standalone queue defaults to a private
        one so throwaway queues in tests never leak into ``/metrics``.
    """

    def __init__(self, retention: int | None = None,
                 max_queued: int | None = None,
                 metrics: MetricsRegistry | None = None):
        if retention is not None and retention < 1:
            raise ValueError("retention must be >= 1 or None")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be >= 1 or None")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        jobs_total = self.metrics.counter(
            "repro_jobs_total",
            "Job state transitions (entries into each state)",
            labelnames=("state",),
        )
        self._m_jobs = {s: jobs_total.labels(state=s) for s in JOB_STATES}
        self._m_delay = self.metrics.histogram(
            "repro_queue_delay_seconds",
            "Seconds between job submit and dispatch",
        )
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, str]] = []
        self._seq = 0
        self._jobs: dict[str, Job] = {}
        self._handles: dict[str, JobResult] = {}
        self._closed = False
        self.retention = retention
        self.max_queued = max_queued
        #: Terminal job ids in completion order (the eviction queue).
        self._terminal: deque[str] = deque()
        #: Incremental per-state counters over **every** job ever submitted
        #: (terminal counts are cumulative across registry eviction), so
        #: ``/healthz`` stays O(1) however long the server has been up.
        self._counts = {s: 0 for s in JOB_STATES}

    def submit(self, job: Job, force: bool = False) -> JobResult:
        """Enqueue a QUEUED job; returns its handle.

        Raises :class:`~repro.errors.QueueFullError` when the
        ``max_queued`` backpressure bound is hit. ``force`` bypasses the
        bound — crash recovery re-enqueues already-acknowledged jobs, and
        bouncing those on backpressure would lose accepted work.
        """
        with self._lock:
            if self._closed:
                raise JobError("queue is closed")
            if job.id in self._jobs:
                raise JobError(f"duplicate job id {job.id!r}")
            if job.state != QUEUED:
                raise JobError(f"job {job.id} submitted in state {job.state}")
            if (not force and self.max_queued is not None
                    and self._counts[QUEUED] >= self.max_queued):
                raise QueueFullError(self.max_queued)
            handle = JobResult(job)
            self._jobs[job.id] = job
            self._handles[job.id] = handle
            # Max-heap on priority; FIFO within a priority via the sequence.
            heapq.heappush(self._heap, (-job.priority, self._seq, job.id))
            self._seq += 1
            self._counts[QUEUED] += 1
            self._m_jobs[QUEUED].inc()
            self._not_empty.notify()
            return handle

    def pop(self, timeout: float | None = None) -> Job | None:
        """Highest-priority QUEUED job, marked RUNNING; ``None`` on timeout.

        Cancelled entries are skipped (their heap slots are lazy-deleted).
        Returns ``None`` immediately once the queue is closed and drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is None or job.state != QUEUED:
                        # Lazy-deleted slot: cancelled while queued — and
                        # possibly already retention-evicted from the
                        # registry by later finishes.
                        continue
                    job.state = RUNNING
                    job.started_at = time.time()
                    self._counts[QUEUED] -= 1
                    self._counts[RUNNING] += 1
                    self._m_jobs[RUNNING].inc()
                    self._m_delay.observe(
                        job.started_at - job.submitted_at)
                    return job
                if self._closed:
                    return None
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._not_empty.wait(remaining):
                        return None

    def finish(self, job: Job, state: str, error: str | None = None) -> None:
        """Move a RUNNING job to a terminal state and release its handle."""
        if state not in TERMINAL_STATES:
            raise JobError(f"{state} is not a terminal state")
        with self._lock:
            job.state = state
            if error is not None:
                job.error = error
            if job.finished_at is None:
                # The engine pre-stamps finished_at so the durable artifact
                # (written just before this call) records it.
                job.finished_at = time.time()
            self._counts[RUNNING] -= 1
            self._counts[state] += 1
            self._m_jobs[state].inc()
            self._handles[job.id]._mark_done()
            self._retire_locked(job.id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job. Running/terminal jobs are not cancellable
        here — the engine signals a RUNNING job's cancel token instead."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job id {job_id!r}")
            if job.state != QUEUED:
                return False
            job.state = CANCELLED
            job.finished_at = time.time()
            self._counts[QUEUED] -= 1
            self._counts[CANCELLED] += 1
            self._m_jobs[CANCELLED].inc()
            self._handles[job_id]._mark_done()
            self._retire_locked(job_id)
            return True

    def requeue(self, job: Job) -> bool:
        """Put a RUNNING job back in the queue (the transient-retry path).

        Bypasses the ``max_queued`` backpressure bound — the job was
        already acknowledged; rejecting its retry would turn a transient
        infrastructure failure into a lost submission. Returns ``False``
        when the queue is closed (the engine fails the job instead) or the
        job is not RUNNING (e.g. it reached a terminal state while its
        backoff timer was pending).
        """
        with self._lock:
            if self._closed or job.state != RUNNING:
                return False
            job.state = QUEUED
            job.started_at = None
            self._counts[RUNNING] -= 1
            self._counts[QUEUED] += 1
            self._m_jobs[QUEUED].inc()
            heapq.heappush(self._heap, (-job.priority, self._seq, job.id))
            self._seq += 1
            self._not_empty.notify()
            return True

    def _retire_locked(self, job_id: str) -> None:
        """Queue a terminal job for eviction and trim to the retention bound.

        The newest terminal job always survives its own trim (``retention
        >= 1``), so the engine can still write/read its artifact through
        the registry entry; only *older* terminal jobs — whose artifacts
        were written before they reached a terminal state — are dropped.
        """
        self._terminal.append(job_id)
        if self.retention is None:
            return
        while len(self._terminal) > self.retention:
            evicted = self._terminal.popleft()
            self._jobs.pop(evicted, None)
            self._handles.pop(evicted, None)

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job id {job_id!r}")
            return job

    def handle(self, job_id: str) -> JobResult:
        with self._lock:
            handle = self._handles.get(job_id)
            if handle is None:
                raise JobError(f"unknown job id {job_id!r}")
            return handle

    def jobs(self) -> list[Job]:
        """All **retained** jobs, in submission order.

        With a ``retention`` bound this is O(retention + live jobs), not
        every job ever submitted; evicted jobs answer through the engine's
        artifact-index fallback.
        """
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Jobs per state, over every job ever submitted (O(1)).

        QUEUED/RUNNING are live counts; the terminal states are cumulative
        across registry eviction, so ``/healthz`` keeps reporting lifetime
        totals however long the server has been up.
        """
        with self._lock:
            return dict(self._counts)

    def close(self) -> None:
        """Stop accepting submissions and wake every blocked :meth:`pop`."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
