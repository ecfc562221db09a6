"""Shared supervision plumbing for the dispatcher pools and the engine.

Before this module, three near-identical ``supervisor_stats()`` grew side
by side — :class:`~repro.jobs.dispatch.ForkedWorkerPool`,
:class:`~repro.jobs.remote.RemoteHostPool`, and
:class:`~repro.jobs.engine.JobEngine` each hand-rolled its breaker
bookkeeping and stats dict. The common pieces now live here exactly once:

* :class:`RollingBreaker` — the respawn-budget circuit breaker (count
  failures in a rolling window; past the budget, open for a cooldown).
  The forked pool charges worker respawns against it; anything else that
  needs "stop feeding a crash loop" semantics reuses it.
* :class:`SupervisedPool` — the mixin both pools inherit: the respawn
  and hung-kill counters in the metrics registry, the shared
  ``supervisor_base()`` stats block whose key set
  (:data:`SUPERVISOR_BASE_KEYS`) is pinned by a regression test so the
  two pools can never drift apart again.
* :func:`engine_supervisor_stats` — the engine-level assembly that nests
  the dispatcher pool's stats (under the pool's ``stats_key``) and the
  journal's, moved out of ``engine.py`` so the whole ``/healthz``
  fault-tolerance document is built in one place.

The old ``supervisor_stats()`` methods survive as thin views over these
helpers — ``/healthz`` consumers and existing tests see identical keys.
Every count in them is a registry child read back as an ``int``.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..obs import MetricsRegistry, get_registry

__all__ = [
    "SUPERVISOR_BASE_KEYS",
    "RollingBreaker",
    "SupervisedPool",
    "engine_supervisor_stats",
]

#: The stats keys every supervised pool reports — the merged key set the
#: regression test pins (``tests/obs/test_supervisor_stats.py``).
SUPERVISOR_BASE_KEYS = frozenset({
    "hung_kills",
    "hang_timeout",
    "circuit_open",
    "circuit_reset_seconds",
})


class RollingBreaker:
    """Failure-budget circuit breaker over a rolling window.

    ``record()`` charges one failure; once more than ``budget`` failures
    land inside ``window`` seconds, :meth:`open` turns true for
    ``cooldown`` seconds. Thread-safe; the clock is injectable for tests.
    ``failures`` is the counter child that keeps the lifetime count (the
    owning pool's ``repro_dispatcher_respawns_total`` series); without
    one the breaker counts into a private registry.
    """

    def __init__(self, budget: int, window: float, cooldown: float,
                 clock=time.monotonic, failures=None):
        self.budget = budget
        self.window = window
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._times: deque[float] = deque()
        self._broken_until = 0.0
        self._failures = failures if failures is not None else (
            MetricsRegistry().counter("repro_breaker_failures_total").labels())

    @property
    def count(self) -> int:
        """Lifetime failures charged."""
        return int(self._failures.value)

    def record(self) -> bool:
        """Charge one failure; returns True when this opened the breaker."""
        now = self._clock()
        self._failures.inc()
        with self._lock:
            self._times.append(now)
            while self._times and now - self._times[0] > self.window:
                self._times.popleft()
            if len(self._times) > self.budget:
                self._broken_until = now + self.cooldown
                return True
        return False

    def open(self) -> bool:
        return self._clock() < self._broken_until

    def reset_seconds(self) -> float:
        """Seconds until the breaker closes again (0 when already closed)."""
        return max(0.0, self._broken_until - self._clock())

    def stats(self) -> dict:
        return {
            "respawns": self.count,
            "respawn_budget": self.budget,
            "respawn_window_seconds": self.window,
            "circuit_open": self.open(),
            "circuit_reset_seconds": self.reset_seconds(),
        }


class SupervisedPool:
    """Mixin: the supervision surface shared by the dispatcher pools.

    Subclasses call :meth:`_init_supervision` from their constructor,
    override :meth:`circuit_open` (the forked pool answers from its
    :class:`RollingBreaker`; the remote pool from host cooldowns) and name
    their ``/healthz`` block in ``stats_key``. ``pool_label`` scopes the
    registry counters so both pools' respawn and hang telemetry coexist
    in one ``/metrics`` page.
    """

    hang_timeout: float | None = None
    stats_key: str

    def _init_supervision(self, pool_label: str,
                          hang_timeout: float | None = None,
                          metrics: MetricsRegistry | None = None) -> None:
        self.hang_timeout = hang_timeout
        self.pool_label = pool_label
        self._metrics = metrics if metrics is not None else get_registry()
        self._m_respawns = self._metrics.counter(
            "repro_dispatcher_respawns_total",
            "Worker respawns / host failures charged to the breaker",
            labelnames=("pool",),
        ).labels(pool=pool_label)
        self._m_hung = self._metrics.counter(
            "repro_dispatcher_hung_kills_total",
            "Workers/hosts declared hung by heartbeat age",
            labelnames=("pool",),
        ).labels(pool=pool_label)

    def circuit_open(self) -> bool:
        raise NotImplementedError

    def circuit_reset_seconds(self) -> float:
        return 0.0

    def supervisor_base(self) -> dict:
        """The shared stats block (key set: :data:`SUPERVISOR_BASE_KEYS`)."""
        return {
            "hung_kills": int(self._m_hung.value),
            "hang_timeout": self.hang_timeout,
            "circuit_open": self.circuit_open(),
            "circuit_reset_seconds": self.circuit_reset_seconds(),
        }


def engine_supervisor_stats(engine) -> dict:
    """Assemble the engine's ``/healthz`` fault-tolerance document.

    Engine-level counters plus the nested pool / journal views — the one
    place the three formerly-duplicated ``supervisor_stats()`` join up.
    """
    with engine._watch_lock:
        n_watches = len(engine._watches)
    m = engine.metrics
    stats = {
        "dispatcher": engine.dispatcher,
        "retries_scheduled": int(
            m.counter("repro_retries_scheduled_total").value),
        "degraded_jobs": int(m.counter("repro_degraded_dispatch_total").value),
        "draining": engine._draining,
        "recovery": dict(engine.recovery_stats),
        "watches": n_watches,
        "mutations": engine._mutations,
        "watch_emissions": engine._watch_emissions,
    }
    pool = engine._dispatcher
    if isinstance(pool, SupervisedPool):
        stats[pool.stats_key] = pool.supervisor_stats()
    if engine.journal is not None:
        stats["journal"] = engine.journal.stats()
    return stats
