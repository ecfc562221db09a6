"""Regression: the merged supervisor key sets can never drift apart again.

PRs 6-8 grew three near-identical ``supervisor_stats()`` (forked pool,
remote host pool, engine). They now share
:mod:`repro.jobs.supervise` — this suite pins :data:`SUPERVISOR_BASE_KEYS`
and each surface's merged key set, so a future field lands in the shared
helper (visible to every ``/healthz`` consumer) or loudly breaks here.
"""

import pytest

from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.dispatch import ForkedWorkerPool
from repro.jobs.remote import RemoteHostPool
from repro.jobs.supervise import (
    SUPERVISOR_BASE_KEYS,
    RollingBreaker,
    engine_supervisor_stats,
)
from repro.obs import MetricsRegistry

#: What RollingBreaker.stats() contributes on top of the base block.
BREAKER_KEYS = frozenset({
    "respawns", "respawn_budget", "respawn_window_seconds",
    "circuit_open", "circuit_reset_seconds",
})


def test_base_key_set_is_pinned():
    assert SUPERVISOR_BASE_KEYS == frozenset({
        "hung_kills", "hang_timeout", "circuit_open",
        "circuit_reset_seconds",
    })


def test_rolling_breaker_window_and_cooldown():
    clock = [0.0]
    breaker = RollingBreaker(budget=2, window=10.0, cooldown=5.0,
                             clock=lambda: clock[0])
    assert breaker.record() is False
    assert breaker.record() is False
    assert breaker.record() is True  # third failure inside the window
    assert breaker.open() and breaker.reset_seconds() == 5.0
    clock[0] = 6.0
    assert not breaker.open() and breaker.reset_seconds() == 0.0
    # Old failures age out of the window: one more does not re-open.
    clock[0] = 20.0
    assert breaker.record() is False
    assert breaker.count == 4  # lifetime count never resets
    assert set(breaker.stats()) == BREAKER_KEYS


def test_forked_pool_key_set(tmp_path):
    pool = ForkedWorkerPool(1, GraphCatalog(tmp_path / "cat"),
                            metrics=MetricsRegistry())
    try:
        stats = pool.supervisor_stats()
    finally:
        pool.close()
    assert set(stats) == BREAKER_KEYS | SUPERVISOR_BASE_KEYS | {"workers"}


def test_remote_pool_key_set(tmp_path):
    # Port 9 (discard) is never a live worker host: construction succeeds,
    # stats do not require a connection.
    pool = RemoteHostPool("127.0.0.1:9", GraphCatalog(tmp_path / "cat"),
                          metrics=MetricsRegistry())
    try:
        stats = pool.supervisor_stats()
    finally:
        pool.close()
    assert set(stats) == SUPERVISOR_BASE_KEYS | {
        "hosts", "up", "busy", "dispatched", "host_failures",
        "provisioning", "per_host",
    }


@pytest.fixture
def engine(tmp_path):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   metrics=MetricsRegistry()) as eng:
        yield eng


def test_engine_stats_use_the_shared_assembly(engine):
    stats = engine.supervisor_stats()
    assert stats == engine_supervisor_stats(engine)
    assert set(stats) >= {
        "dispatcher", "retries_scheduled", "degraded_jobs", "draining",
        "recovery", "watches", "mutations", "watch_emissions",
    }
    # Thread dispatch: no nested pool/journal blocks.
    assert "workers" not in stats and "hosts" not in stats


def test_engine_nests_the_forked_pool_block(tmp_path):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   dispatcher="process", metrics=MetricsRegistry()) as eng:
        stats = eng.supervisor_stats()
    assert set(stats["workers"]) == (
        BREAKER_KEYS | SUPERVISOR_BASE_KEYS | {"workers"})


def test_pools_report_respawns_into_the_registry(tmp_path):
    m = MetricsRegistry()
    pool = ForkedWorkerPool(1, GraphCatalog(tmp_path / "cat"), metrics=m)
    try:
        pool._respawn_after_failure(0)
    finally:
        pool.close()
    family = m.counter("repro_dispatcher_respawns_total",
                       labelnames=("pool",))
    assert family.labels(pool="forked").value == 1.0
    assert pool.supervisor_stats()["respawns"] == 1
