"""Pre-forked process dispatchers: parity, cancellation, crash recovery.

The process-dispatcher mode must be observationally identical to the
thread mode — same results, same artifact schema, same cancellation and
deadline semantics — while actually running jobs in forked worker
processes against shared-memory graph segments. These tests pin that
contract plus the failure modes threads don't have: a worker killed
mid-job must fail only that job, and the pool must respawn the slot.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bsp import shm
from repro.errors import JobCancelledError, JobFailedError
from repro.generate.synthetic import grid_city, random_eulerian
from repro.jobs import CANCELLED, DONE, FAILED, GraphCatalog, JobEngine
from repro.jobs.dispatch import FlagToken, ForkedWorkerPool
from repro.jobs.server import JobApi
from repro.obs import MetricsRegistry
from repro.pipeline import RunConfig
from repro.scenarios import run_scenario
from repro.scenarios.base import SCENARIOS, Scenario, register_scenario

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="process dispatchers need POSIX shm"
)


def _process_engine(tmp_path, n=2, **kwargs) -> JobEngine:
    return JobEngine(
        GraphCatalog(tmp_path / "cat"),
        dispatchers=n,
        dispatcher="process",
        **kwargs,
    )


class _SpinScenario(Scenario):
    """Touches a marker file, then spins at a cancellation safe point.

    Registered *before* the engine forks its workers, so the forked
    interpreters inherit it; the marker file is the only cross-process
    signal a forked scenario can give the test.
    """

    name = "test-spin"

    def __init__(self, marker: str):
        self.marker = marker

    def reduce(self, graph, config):
        Path(self.marker).touch()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            time.sleep(0.005)
            if config.cancel is not None:
                config.cancel.check("spin")
        raise AssertionError("test never cancelled the spinner")

    def postprocess(self, graph, config, subs, contexts):
        return [], {}


@pytest.fixture
def spin_scenario(tmp_path):
    marker = tmp_path / "spin.entered"
    register_scenario(_SpinScenario(str(marker)))
    yield marker
    SCENARIOS.pop("test-spin", None)


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# Parity with the thread dispatcher
# ---------------------------------------------------------------------------


def test_forked_jobs_match_serial_runs(tmp_path):
    graphs = {
        "grid": grid_city(6, 6),
        "rand": random_eulerian(60, 5, 16, seed=2),
    }
    config = RunConfig(n_parts=4, seed=0)
    with _process_engine(tmp_path, n=2) as engine:
        handles = {
            name: engine.submit("circuit", graph=g, config=config, name=name)
            for name, g in graphs.items()
        }
        for name, handle in handles.items():
            got = handle.result(timeout=120)
            ref = run_scenario(graphs[name], "circuit", config)
            assert len(ref.circuits) == len(got.circuits)
            for a, b in zip(ref.circuits, got.circuits):
                assert np.array_equal(a.vertices, b.vertices)
                assert np.array_equal(a.edge_ids, b.edge_ids)
            assert ref.metrics == got.metrics
            job = engine.job(handle.job_id)
            assert job.state == DONE
            passes = [p["pass"] for p in job.passes]
            assert "share_graph" in passes and "load_graph" in passes


def test_forked_worker_attaches_graph_segment(tmp_path):
    with _process_engine(tmp_path, n=1) as engine:
        handle = engine.submit("circuit", graph=grid_city(8, 8),
                               config=RunConfig(n_parts=4))
        handle.result(timeout=120)
        job = engine.job(handle.job_id)
        load = next(p for p in job.passes if p["pass"] == "load_graph")
        assert load["source"] == "segment"  # zero-copy, not NPZ deserialize
        stats = engine.segment_stats()
        assert stats["segments"] >= 1 and stats["attaches"] >= 1


def test_worker_catalog_lookups_count_on_the_engines_catalog(tmp_path):
    """A forked worker's catalog lookups ride home with its spec-out: two
    runs of one graph count the worker's two partition-map hits, and
    /metrics renders the same count per kind as /catalog."""
    config = RunConfig(n_parts=4, seed=0)
    with _process_engine(tmp_path, n=1) as engine:
        for _ in range(2):
            engine.submit("circuit", graph=grid_city(6, 6),
                          config=config).result(timeout=120)
        api = JobApi(engine)
        _, catalog = api.handle("GET", "/catalog")
        _, page = api.handle("GET", "/metrics")
    stats = catalog["stats"]
    assert (stats["graph_hits"], stats["partition_hits"],
            stats["partition_misses"]) == (2, 3, 1)
    rendered = {}
    for line in page.splitlines():
        match = re.fullmatch(
            r'repro_catalog_events_total\{kind="(\w+)"\} (\S+)', line)
        if match:
            assert match.group(1) not in rendered  # one series per kind
            rendered[match.group(1)] = float(match.group(2))
    assert rendered == {kind: float(n) for kind, n in stats.items()}


# ---------------------------------------------------------------------------
# Cancellation and deadlines (PR 5 semantics, now across processes)
# ---------------------------------------------------------------------------


def test_cancel_running_forked_job(tmp_path, spin_scenario):
    from repro.graph.graph import Graph

    tri = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with _process_engine(tmp_path, n=1) as engine:
        handle = engine.submit("test-spin", graph=tri)
        _wait_for(spin_scenario)  # the job is RUNNING inside the worker
        assert engine.cancel(handle.job_id) is True
        with pytest.raises(JobCancelledError):
            handle.result(timeout=60)
        assert engine.job(handle.job_id).state == CANCELLED
        # The worker survived the cancellation and takes the next job.
        ok = engine.submit("circuit", graph=grid_city(4, 4),
                           config=RunConfig(n_parts=2))
        assert ok.result(timeout=120).circuits


def test_forked_job_deadline_fails_job(tmp_path, spin_scenario):
    from repro.graph.graph import Graph

    tri = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with _process_engine(tmp_path, n=1) as engine:
        handle = engine.submit("test-spin", graph=tri, timeout_seconds=0.2)
        with pytest.raises(JobFailedError, match="deadline"):
            handle.result(timeout=60)
        assert engine.job(handle.job_id).state == FAILED


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------


def test_killed_worker_fails_job_and_respawns(tmp_path, spin_scenario):
    from repro.graph.graph import Graph

    tri = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with _process_engine(tmp_path, n=1) as engine:
        victim_pid = engine._dispatcher._workers[0][0].pid
        handle = engine.submit("test-spin", graph=tri)
        _wait_for(spin_scenario)
        os.kill(victim_pid, signal.SIGKILL)
        with pytest.raises(JobFailedError, match="died mid-job"):
            handle.result(timeout=60)
        # The slot respawned: a fresh pid, and it serves the next job.
        assert engine._dispatcher._workers[0][0].pid != victim_pid
        ok = engine.submit("circuit", graph=grid_city(4, 4),
                           config=RunConfig(n_parts=2))
        assert ok.result(timeout=120).circuits


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------


def test_forked_pool_close_reaps_workers_and_flags(tmp_path):
    before = {p.pid for p in multiprocessing.active_children()}
    pool = ForkedWorkerPool(2, GraphCatalog(tmp_path / "cat"))
    flags_segment = pool.flags.descriptor["segment"]
    spawned = [p.pid for p, _ in pool._workers]
    assert all(pid not in before for pid in spawned)
    pool.close()
    pool.close()  # idempotent
    after = {p.pid for p in multiprocessing.active_children()}
    assert not any(pid in after for pid in spawned)
    assert flags_segment not in shm.leaked_segments()
    with pytest.raises(RuntimeError):
        pool.run_job(None, {}, 0)


def test_engine_close_reaps_forked_workers(tmp_path):
    engine = _process_engine(tmp_path, n=2)
    pids = [p.pid for p, _ in engine._dispatcher._workers]
    engine.close()
    alive = {p.pid for p in multiprocessing.active_children()}
    assert not any(pid in alive for pid in pids)
    engine.close()  # idempotent


def test_respawn_reaps_the_live_worker_it_replaces(tmp_path):
    """Respawning a slot whose worker still runs kills and joins that
    worker first, so no respawn leaves a process behind close()."""
    pool = ForkedWorkerPool(1, GraphCatalog(tmp_path / "cat"),
                            metrics=MetricsRegistry())
    pids = {pool._workers[0][0].pid}
    try:
        for _ in range(3):
            pool._respawn_after_failure(0)
            pids.add(pool._workers[0][0].pid)
    finally:
        pool.close()
    assert len(pids) == 4
    left = [p for p in multiprocessing.active_children()
            if p.name.startswith("job-worker-")]
    assert left == []


def test_forked_pool_validates_args(tmp_path):
    with pytest.raises(ValueError):
        ForkedWorkerPool(0, GraphCatalog(tmp_path))
    with pytest.raises(ValueError):
        JobEngine(GraphCatalog(tmp_path / "cat"), dispatcher="coroutine")


# ---------------------------------------------------------------------------
# FlagToken semantics
# ---------------------------------------------------------------------------


def test_flag_token_mirrors_cancel_token_semantics():
    from repro.errors import RunCancelledError

    flags = shm.CancelFlags.create(2)
    try:
        token = FlagToken(flags, 0, timeout_seconds=None)
        assert not token.should_stop
        token.check("anywhere")  # no flag, no deadline: a no-op
        flags.set(0)
        assert token.cancelled and token.should_stop
        with pytest.raises(RunCancelledError) as exc:
            token.check("superstep")
        assert exc.value.reason == "cancel"

        # An expired deadline loses to an explicit cancel (same as
        # CancelToken) — and wins when only the deadline fired.
        expired = FlagToken(flags, 1, timeout_seconds=1e-9)
        time.sleep(0.002)
        with pytest.raises(RunCancelledError) as exc:
            expired.check("superstep")
        assert exc.value.reason == "timeout"
    finally:
        flags.close()


def test_flag_token_pickles_inert():
    import pickle

    flags = shm.CancelFlags.create(1)
    try:
        flags.set(0)
        token = FlagToken(flags, 0, timeout_seconds=5.0)
        clone = pickle.loads(pickle.dumps(token))
        assert clone.timeout_seconds == 5.0
        assert not clone.cancelled and not clone.should_stop
        clone.check("anywhere")  # revived tokens never fire
    finally:
        flags.close()
