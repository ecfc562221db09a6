"""Exception types for the :mod:`repro` package.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class. The distinction between *input* problems (graph is not
Eulerian, bad partition map) and *internal* invariant violations (a lemma from
the paper failed to hold at runtime) is deliberate: the former are expected
user-facing errors, the latter indicate a bug and carry diagnostics.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """Raised when an input edge list / file cannot be parsed or is malformed."""


class NotEulerianError(ReproError):
    """Raised when an Euler circuit is requested on a non-Eulerian graph.

    Carries the offending odd-degree vertices (up to a cap) so users can fix
    or eulerize their input.
    """

    def __init__(self, message: str, odd_vertices=None):
        super().__init__(message)
        #: A (possibly truncated) list of vertices with odd degree.
        self.odd_vertices = list(odd_vertices) if odd_vertices is not None else []


class DisconnectedGraphError(NotEulerianError):
    """Raised when the graph's edges span more than one connected component.

    An Euler circuit requires all edges to lie in a single component. The
    ``num_components`` attribute reports how many edge-bearing components
    were found.
    """

    def __init__(self, message: str, num_components: int = 0):
        super().__init__(message)
        #: Number of connected components that contain at least one edge.
        self.num_components = num_components


class PartitionError(ReproError):
    """Raised for invalid partition maps (wrong length, out-of-range ids)."""


class InvariantViolation(ReproError):
    """Raised when one of the paper's lemmas fails to hold at runtime.

    This always indicates a bug in the library (or memory corruption), never
    bad user input; please report it with the seed/graph that triggered it.
    """


class InvalidCircuitError(ReproError):
    """Raised by :func:`repro.core.circuit.verify_circuit` on a bad circuit."""


class BSPError(ReproError):
    """Raised for misuse of the BSP engine (e.g. messaging a dead partition)."""


class FrameTooLargeError(ReproError, ValueError):
    """A wire frame exceeds :data:`repro.bsp.transport.MAX_FRAME_BYTES`.

    Raised by the sender before any byte is written, and by the receiver
    before the part that crosses the cap is allocated. Not transient: the
    same input encodes to the same frame on every retry.
    """


class UnknownExecutorError(ReproError, ValueError):
    """An executor spec names a backend that does not exist.

    Subclasses :class:`ValueError` so callers that validated with a broad
    ``except ValueError`` keep working; carries the offending name and the
    valid choices so CLI/HTTP surfaces can render an actionable message.
    """

    def __init__(self, name, choices):
        self.name = name
        self.choices = sorted(choices)
        super().__init__(
            f"unknown executor {name!r}; valid backends: "
            f"{', '.join(self.choices)}"
        )


class RunCancelledError(ReproError):
    """A run stopped cooperatively at a safe point (cancel request or deadline).

    Raised by :meth:`repro.pipeline.cancel.CancelToken.check` at superstep
    boundaries and scenario sub-run boundaries. ``reason`` is ``"cancel"``
    (someone called :meth:`~repro.pipeline.cancel.CancelToken.cancel`) or
    ``"timeout"`` (the token's deadline elapsed); ``where`` names the
    checkpoint that observed it.
    """

    def __init__(self, reason: str, where: str = "",
                 timeout_seconds: float | None = None):
        detail = f" at {where}" if where else ""
        if reason == "timeout":
            budget = (f" (timeout_seconds={timeout_seconds:g})"
                      if timeout_seconds is not None else "")
            message = f"run deadline exceeded{budget}{detail}"
        else:
            message = f"run cancelled{detail}"
        super().__init__(message)
        #: ``"cancel"`` or ``"timeout"``.
        self.reason = reason
        #: The checkpoint that observed the stop request.
        self.where = where
        self.timeout_seconds = timeout_seconds


class JobError(ReproError):
    """Base class for job-orchestration failures (queue misuse, unknown ids)."""


class JobFailedError(JobError):
    """Raised by :meth:`repro.jobs.queue.JobResult.result` when the job failed.

    Carries the failing job's id and the original error text so a client
    polling a future-style handle sees the real cause, not a bare timeout.
    """

    def __init__(self, job_id: str, error: str):
        super().__init__(f"job {job_id} failed: {error}")
        self.job_id = job_id
        self.error = error


class JobCancelledError(JobError):
    """Raised when a job's result is requested after it was cancelled."""

    def __init__(self, job_id: str):
        super().__init__(f"job {job_id} was cancelled")
        self.job_id = job_id


class QueueFullError(JobError):
    """Raised by :meth:`repro.jobs.queue.JobQueue.submit` under backpressure.

    The queue's ``max_queued`` bound is hit: the submission is rejected
    fast instead of growing the heap without bound. The serving front end
    maps this to HTTP 429.
    """

    def __init__(self, max_queued: int):
        super().__init__(
            f"job queue is full ({max_queued} queued jobs); retry later"
        )
        self.max_queued = max_queued


class TransientJobError(JobError):
    """A job failure attributable to infrastructure, not the job itself.

    Killed or hung dispatcher workers, dead worker hosts and broken
    executor pools all land here: re-running the same job on healthy
    infrastructure is expected to succeed, so the engine re-dispatches
    transient failures (up to ``Job.max_retries``, with exponential
    backoff) instead of failing the job outright. Every other exception is
    treated as permanent — retrying a graph that is not Eulerian cannot
    ever help.
    """


class FaultInjectedError(TransientJobError):
    """A deliberate failure raised by the fault-injection harness.

    Transient by definition: the :class:`~repro.faults.FaultPlan` arms
    faults for specific attempts, so the retried run executes clean and
    recovery can be asserted deterministically.
    """


class EngineDrainingError(JobError):
    """Submission rejected because the engine is draining for shutdown.

    Raised by :meth:`repro.jobs.engine.JobEngine.submit` after
    :meth:`~repro.jobs.engine.JobEngine.drain` began: the server finishes
    the jobs it already acknowledged but accepts no new work. The serving
    front end maps this to HTTP 503.
    """

    def __init__(self):
        super().__init__("engine is draining; no new submissions accepted")


class RetriesExhaustedError(JobError):
    """A client retry budget ran out without a successful request.

    Raised by :class:`repro.jobs.client.JobClient` once its total retry
    wall-time cap elapses across 429-with-Retry-After responses and
    connection failures. Carries the last underlying error so callers see
    the real cause, not just "gave up".
    """

    def __init__(self, budget_seconds: float, last_error: Exception):
        super().__init__(
            f"retry budget of {budget_seconds:g}s exhausted; "
            f"last error: {last_error}"
        )
        self.budget_seconds = budget_seconds
        self.last_error = last_error


class JobResultEvictedError(JobError):
    """A DONE job's in-memory result was trimmed and no durable copy exists.

    Raised by :meth:`repro.jobs.queue.JobResult.result` when the engine's
    ``keep_results`` bound nulled the resident
    :class:`~repro.scenarios.base.ScenarioResult` and the job has no
    readable artifact JSON to reload the document from.
    """

    def __init__(self, job_id: str):
        super().__init__(
            f"job {job_id} finished but its result was evicted from memory "
            "(keep_results) and no durable artifact is available"
        )
        self.job_id = job_id
