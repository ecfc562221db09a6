"""Cooperative cancellation: a cancel flag + optional deadline for one run.

Nothing in the pipeline is interrupted preemptively — a superstep that has
started always completes, so every shared structure (fragment store, spill
directory, catalog pins) stays consistent. Instead a :class:`CancelToken`
is threaded through :class:`~repro.pipeline.context.RunConfig` and checked
at the run's safe points:

* the start of :func:`~repro.pipeline.runner.run_pipeline` and every
  superstep boundary (the BSP engine's ``check_abort`` hook) and before
  Phase 3;
* between scenario sub-runs in :mod:`repro.scenarios.base`.

A tripped check raises :class:`~repro.errors.RunCancelledError`, which the
job engine maps to the CANCELLED (cancel) or FAILED (deadline) terminal
state with the partial pass history persisted. The token is thread-safe
and deliberately never crosses a process boundary: all checks run in the
submitting process (the BSP superstep loop and the scenario layer), so
cancellation works identically under the serial, thread and process
backends and the shared thread pool.
"""

from __future__ import annotations

import threading
import time

from ..errors import RunCancelledError

__all__ = ["CancelToken"]


class CancelToken:
    """Cancel flag + optional deadline, checked at run safe points.

    Parameters
    ----------
    timeout_seconds:
        Optional wall-clock budget. The clock starts at construction and
        restarts at every :meth:`arm` — the job engine arms the token when
        the job leaves the queue, so the budget covers *run* time, not
        queue latency.
    """

    def __init__(self, timeout_seconds: float | None = None):
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")
        self.timeout_seconds = timeout_seconds
        self._cancelled = threading.Event()
        self._deadline: float | None = None
        self.arm()

    def arm(self) -> None:
        """(Re)start the deadline clock (no-op without a timeout)."""
        if self.timeout_seconds is not None:
            self._deadline = time.monotonic() + self.timeout_seconds

    def cancel(self) -> None:
        """Request a stop; the run obeys at its next checkpoint."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    @property
    def should_stop(self) -> bool:
        """True once either the flag is set or the deadline elapsed."""
        return self.cancelled or self.expired

    def check(self, where: str = "") -> None:
        """Raise :class:`~repro.errors.RunCancelledError` when tripped.

        An explicit cancel wins over a simultaneously-expired deadline so
        ``DELETE /jobs/<id>`` always lands on CANCELLED, never FAILED.
        """
        if self.cancelled:
            raise RunCancelledError("cancel", where)
        if self.expired:
            raise RunCancelledError("timeout", where, self.timeout_seconds)
