"""Retry, backoff, and supervision: transient faults never change answers.

The invariant every test here circles: a job that survives via retry must
produce a result **bit-identical** to the same job run with no fault at
all. Faults are injected deterministically through ``RunConfig.faults``
(see ``repro.faults``), armed per attempt, so the retried attempt always
runs clean — any divergence would mean retry state leaked into the
computation.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import JobFailedError, RetriesExhaustedError
from repro.faults import FaultPlan
from repro.generate.synthetic import grid_city, random_eulerian
from repro.jobs import DONE, FAILED, GraphCatalog, JobEngine
from repro.jobs.client import JobClient, JobClientError
from repro.jobs.dispatch import ForkedWorkerPool
from repro.jobs.remote import WorkerHost
from repro.jobs.server import make_server
from repro.obs import MetricsRegistry
from repro.pipeline import RunConfig
from repro.scenarios import run_scenario
from repro.scenarios.base import SCENARIOS, register_scenario
from repro.scenarios.circuit import CircuitScenario

# Each engine counts into its own registry, so the exact counts the
# tests read from supervisor_stats() are that engine's alone.


def _thread_engine(tmp_path, **kwargs) -> JobEngine:
    kwargs.setdefault("dispatchers", 1)
    kwargs.setdefault("pool_workers", 2)
    return JobEngine(GraphCatalog(tmp_path / "cat"),
                     metrics=MetricsRegistry(), **kwargs)


def _process_engine(tmp_path, n=1, **kwargs) -> JobEngine:
    return JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=n,
                     dispatcher="process", metrics=MetricsRegistry(),
                     **kwargs)


def _assert_same_circuits(ref, got):
    assert len(ref.circuits) == len(got.circuits)
    for a, b in zip(ref.circuits, got.circuits):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.edge_ids, b.edge_ids)


# ---------------------------------------------------------------------------
# In-process (thread dispatcher) retries
# ---------------------------------------------------------------------------


def test_transient_fault_retries_to_identical_result(tmp_path):
    g = random_eulerian(40, 4, 12, seed=21)
    config = RunConfig(n_parts=2, seed=0)
    ref = run_scenario(g, "circuit", config)
    with _thread_engine(tmp_path, retry_backoff=0.01) as engine:
        handle = engine.submit(
            "circuit", graph=g, max_retries=1,
            config=RunConfig(n_parts=2, seed=0,
                             faults=FaultPlan.parse("fail@at=1")),
        )
        got = handle.result(timeout=60)
        _assert_same_circuits(ref, got)
        assert ref.metrics == got.metrics
        job = engine.job(handle.job_id)
        assert job.state == DONE and job.attempt == 1
        passes = [p["pass"] for p in job.passes]
        assert "retry" in passes
        retry = next(p for p in job.passes if p["pass"] == "retry")
        assert "injected" in retry["error"]
        assert engine.supervisor_stats()["retries_scheduled"] == 1


def test_no_retry_budget_means_terminal_failure(tmp_path):
    g = random_eulerian(30, 3, 10, seed=22)
    with _thread_engine(tmp_path) as engine:
        handle = engine.submit(
            "circuit", graph=g,
            config=RunConfig(n_parts=2, faults=FaultPlan.parse("fail@at=0")),
        )
        with pytest.raises(JobFailedError, match="injected"):
            handle.result(timeout=60)
        assert engine.job(handle.job_id).state == FAILED


def test_exhausted_budget_surfaces_last_error(tmp_path):
    g = random_eulerian(30, 3, 10, seed=23)
    with _thread_engine(tmp_path, retry_backoff=0.01) as engine:
        handle = engine.submit(
            "circuit", graph=g, max_retries=2,
            config=RunConfig(
                n_parts=2, faults=FaultPlan.parse("fail@at=0,attempts=3")),
        )
        with pytest.raises(JobFailedError, match="injected"):
            handle.result(timeout=60)
        job = engine.job(handle.job_id)
        assert job.state == FAILED and job.attempt == 2
        assert [p["pass"] for p in job.passes].count("retry") == 2


def test_backoff_is_exponential_and_deterministic(tmp_path):
    g = random_eulerian(30, 3, 10, seed=24)
    with _thread_engine(tmp_path, retry_backoff=0.01,
                        retry_backoff_max=5.0) as engine:
        handle = engine.submit(
            "circuit", graph=g, max_retries=2,
            config=RunConfig(
                n_parts=2, faults=FaultPlan.parse("fail@at=0,attempts=2")),
        )
        handle.result(timeout=60)
        job = engine.job(handle.job_id)
        backoffs = [p["backoff_seconds"] for p in job.passes
                    if p["pass"] == "retry"]
        assert len(backoffs) == 2
        # base*2^n plus bounded jitter: strictly growing, never > 2x base term.
        assert 0.01 <= backoffs[0] <= 0.02
        assert 0.02 <= backoffs[1] <= 0.04


class _BrokenPipeOnce(CircuitScenario):
    """A circuit whose first reduce raises ``BrokenPipeError``.

    Registered before the engine forks its workers, so a forked worker
    counts its own calls: its retry runs the second one.
    """

    name = "test-broken-pipe-once"

    def __init__(self):
        self.calls = 0

    def reduce(self, graph, config):
        self.calls += 1
        if self.calls == 1:
            raise BrokenPipeError("injected broken pipe")
        return super().reduce(graph, config)


@pytest.fixture
def broken_pipe_once():
    register_scenario(_BrokenPipeOnce())
    yield _BrokenPipeOnce.name
    SCENARIOS.pop(_BrokenPipeOnce.name, None)


@pytest.mark.parametrize("mode", ["thread", "process", "remote"])
def test_broken_pipe_retries_on_every_dispatcher(tmp_path, mode,
                                                 broken_pipe_once):
    """One transient rule: a ``BrokenPipeError`` inside the job retries
    whichever dispatcher runs it."""
    g = random_eulerian(40, 4, 12, seed=28)
    config = RunConfig(n_parts=2, seed=0)
    ref = run_scenario(g, "circuit", config)
    host = WorkerHost(tmp_path / "host").start() if mode == "remote" else None
    try:
        engine = JobEngine(
            GraphCatalog(tmp_path / "cat"), dispatchers=1, dispatcher=mode,
            hosts=[host.address] if host is not None else None,
            retry_backoff=0.01,
        )
        with engine:
            handle = engine.submit(broken_pipe_once, graph=g, config=config,
                                   max_retries=1)
            got = handle.result(timeout=120)
            job = engine.job(handle.job_id)
        assert job.state == DONE and job.attempt == 1
        retry = next(p for p in job.passes if p["pass"] == "retry")
        assert "BrokenPipeError" in retry["error"]
        _assert_same_circuits(ref, got)
    finally:
        if host is not None:
            host.close()


# ---------------------------------------------------------------------------
# Forked workers: kills, hangs, breaker
# ---------------------------------------------------------------------------


def test_worker_kill_retries_to_identical_result(tmp_path):
    g = random_eulerian(60, 5, 16, seed=25)
    config = RunConfig(n_parts=4, seed=0)
    ref = run_scenario(g, "circuit", config)
    with _process_engine(tmp_path, retry_backoff=0.01) as engine:
        victim = engine._dispatcher._workers[0][0].pid
        handle = engine.submit(
            "circuit", graph=g, max_retries=1,
            config=RunConfig(n_parts=4, seed=0,
                             faults=FaultPlan.parse("worker_kill@at=1")),
        )
        got = handle.result(timeout=120)
        _assert_same_circuits(ref, got)
        job = engine.job(handle.job_id)
        assert job.state == DONE and job.attempt == 1
        # The kill was real: the slot runs a different pid now.
        assert engine._dispatcher._workers[0][0].pid != victim
        assert engine.supervisor_stats()["workers"]["respawns"] >= 1


def test_kill_at_every_superstep_is_bit_identical(tmp_path):
    """The chaos sweep: SIGKILL the worker at each superstep boundary in
    turn; every retried run must match the unfaulted reference exactly."""
    g = grid_city(6, 6)
    config = RunConfig(n_parts=2, seed=0)
    ref = run_scenario(g, "circuit", config)
    with _process_engine(tmp_path, retry_backoff=0.01) as engine:
        key = engine.catalog.put(g)
        boundary, kills = 0, 0
        while True:
            handle = engine.submit(
                "circuit", graph_key=key, max_retries=1,
                config=RunConfig(
                    n_parts=2, seed=0,
                    faults=FaultPlan.parse(f"worker_kill@at={boundary}")),
            )
            got = handle.result(timeout=120)
            _assert_same_circuits(ref, got)
            assert ref.metrics == got.metrics
            if engine.job(handle.job_id).attempt == 0:
                break  # boundary is past the last superstep: ran unfaulted
            kills += 1
            boundary += 1
            assert boundary < 50, "superstep sweep never terminated"
        # The run really has safe points, and we killed at every one.
        assert kills >= 2
        assert engine.supervisor_stats()["workers"]["respawns"] == kills


def test_hung_worker_is_detected_killed_and_job_retried(tmp_path):
    g = random_eulerian(40, 4, 12, seed=26)
    with _process_engine(tmp_path, hang_timeout=0.5,
                         retry_backoff=0.01) as engine:
        handle = engine.submit(
            "circuit", graph=g, max_retries=1,
            config=RunConfig(n_parts=2,
                             faults=FaultPlan.parse("slow@at=1,delay=30")),
        )
        got = handle.result(timeout=120)
        assert got.circuits
        stats = engine.supervisor_stats()["workers"]
        assert stats["hung_kills"] >= 1
        assert engine.job(handle.job_id).attempt == 1


def test_respawn_budget_opens_circuit_breaker(tmp_path):
    pool = ForkedWorkerPool(1, GraphCatalog(tmp_path / "cat"),
                            respawn_budget=2, respawn_window=60.0,
                            breaker_cooldown=60.0, metrics=MetricsRegistry())
    try:
        assert not pool.circuit_open()
        pool._respawn_after_failure(0)
        pool._respawn_after_failure(0)
        assert not pool.circuit_open()  # at budget, not past it
        pool._respawn_after_failure(0)
        assert pool.circuit_open()
        stats = pool.supervisor_stats()
        assert stats["circuit_open"] is True
        assert stats["respawns"] == 3
        assert stats["circuit_reset_seconds"] > 0
    finally:
        pool.close()


def test_open_breaker_degrades_to_in_process_dispatch(tmp_path):
    g = random_eulerian(40, 4, 12, seed=27)
    config = RunConfig(n_parts=2, seed=0)
    ref = run_scenario(g, "circuit", config)
    with _process_engine(tmp_path) as engine:
        engine._dispatcher._breaker._broken_until = time.monotonic() + 60.0
        handle = engine.submit("circuit", graph=g, config=config)
        got = handle.result(timeout=120)
        _assert_same_circuits(ref, got)  # degraded, not degraded-and-wrong
        job = engine.job(handle.job_id)
        assert job.state == DONE
        assert any(p["pass"] == "degraded_dispatch" for p in job.passes)
        assert engine.supervisor_stats()["degraded_jobs"] == 1


# ---------------------------------------------------------------------------
# Client-side budgets
# ---------------------------------------------------------------------------


def _refused_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]  # released on close: connects are refused


def test_client_retries_connection_errors_then_gives_up():
    client = JobClient(f"http://127.0.0.1:{_refused_port()}",
                       timeout=0.5, retry_seconds=0.3)
    start = time.monotonic()
    with pytest.raises(RetriesExhaustedError) as exc:
        client.health()
    assert time.monotonic() - start < 10
    assert exc.value.budget_seconds == 0.3
    assert exc.value.last_error is not None


def test_client_honors_retry_after_on_503(tmp_path):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_workers=0)
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        key = engine.catalog.put(grid_city(4, 4))
        engine.drain(timeout=1.0)
        client = JobClient(f"http://{host}:{port}", retry_seconds=0.5)
        start = time.monotonic()
        with pytest.raises(RetriesExhaustedError) as exc:
            client.submit("circuit", graph_key=key)
        # The server said Retry-After: 1 — past the 0.5s budget, so the
        # client gives up immediately instead of sleeping the hint out.
        assert time.monotonic() - start < 1.0
        assert isinstance(exc.value.last_error, JobClientError)
        assert exc.value.last_error.status == 503
        assert exc.value.last_error.retry_after == 1.0
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


def test_client_without_budget_raises_immediately(tmp_path):
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                       pool_workers=0)
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        key = engine.catalog.put(grid_city(4, 4))
        engine.drain(timeout=1.0)
        client = JobClient(f"http://{host}:{port}")  # no retry budget
        with pytest.raises(JobClientError) as exc:
            client.submit("circuit", graph_key=key)
        assert exc.value.status == 503
    finally:
        server.shutdown()
        server.server_close()
        engine.close()
