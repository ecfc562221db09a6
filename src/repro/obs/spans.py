"""Per-stage timing spans and end-to-end trace propagation.

A :class:`Span` measures one named pipeline stage (wall + process CPU)
and lands the measurement in two places at once:

* the ambient registry's ``repro_stage_seconds{stage=...}`` histogram —
  the per-stage latency distribution ``GET /metrics`` reports;
* the active :class:`SpanRecorder`, if one is installed — an ordered
  in-memory list the job engine converts into ``stage:<name>`` entries of
  the schema-v5 pass history, so every job artifact carries its own
  per-stage wall/CPU breakdown.

The split matters across process boundaries: a forked worker or a remote
:class:`~repro.jobs.remote.WorkerHost` records spans into *its own*
recorder and registry, ships the recorder entries back as pass rows and
the registry increments as a metrics delta inside the result dict, and
the coordinator folds both into its job record and registry. Nothing new
crosses the wire — the existing result-dict channel carries it.

``trace_id`` is a :mod:`contextvars` value set by whoever owns the
request edge (HTTP submit → :meth:`JobEngine.submit` → job → dispatcher →
worker spec) so any log line or artifact written underneath can stamp the
originating request without threading an argument through nine layers.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager

from .metrics import ambient

__all__ = [
    "Span",
    "SpanRecorder",
    "current_trace",
    "record_stage",
    "use_trace",
]

#: Name of the per-stage latency histogram family.
STAGE_HISTOGRAM = "repro_stage_seconds"

_recorder: contextvars.ContextVar = contextvars.ContextVar(
    "repro_span_recorder", default=None
)
_trace: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def current_trace() -> str | None:
    """The trace id of the request being served here, if any."""
    return _trace.get()


@contextmanager
def use_trace(trace_id: str | None):
    """Install ``trace_id`` as the current trace for the ``with`` body."""
    token = _trace.set(trace_id)
    try:
        yield
    finally:
        _trace.reset(token)


class SpanRecorder:
    """Collects every span closed inside its ``with`` body, in order.

    Entries are plain dicts ``{"stage", "wall", "cpu"}`` — the engine and
    the worker-side spec runner turn them into pass-history rows.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._token = None

    def __enter__(self) -> "SpanRecorder":
        self._token = _recorder.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _recorder.reset(self._token)


def record_stage(stage: str, wall: float, cpu: float | None = None,
                 registry=None, **extra) -> None:
    """Record one stage measurement (histogram + active recorder).

    The function form exists for timings measured elsewhere — the BSP
    engine already times every superstep and partition-step category, so
    the runner *derives* superstep phase splits from
    :class:`~repro.bsp.accounting.RunStats` instead of re-instrumenting
    the inner loop, and reports them through here.
    """
    reg = registry if registry is not None else ambient()
    reg.histogram(
        STAGE_HISTOGRAM, "Wall seconds per pipeline stage",
        labelnames=("stage",),
    ).labels(stage=stage).observe(wall)
    rec = _recorder.get()
    if rec is not None:
        entry = {"stage": stage, "wall": float(wall)}
        if cpu is not None:
            entry["cpu"] = float(cpu)
        if extra:
            entry.update(extra)
        rec.spans.append(entry)


class Span:
    """Context manager timing one stage (wall + CPU) into :func:`record_stage`.

    ``cpu`` is :func:`time.process_time` — whole-process CPU, so a stage
    that fans out across threads shows its real compute cost, not just
    the coordinating thread's share.
    """

    __slots__ = ("stage", "extra", "wall", "cpu", "_t0", "_c0")

    def __init__(self, stage: str, **extra):
        self.stage = stage
        self.extra = extra
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._c0
        record_stage(self.stage, self.wall, cpu=self.cpu, **self.extra)
