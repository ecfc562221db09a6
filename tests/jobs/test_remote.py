"""Multi-host execution: sharded catalogs, the remote dispatcher, host death.

The acceptance contract for the distributed layer: a 2-host loopback
cluster produces jobs bit-identical to the in-process engine, survives a
SIGKILL'd worker host (the job retries on the survivor and the result is
still bit-identical), leaks no shared-memory segments, and degrades to
in-process execution when every host is unreachable. A superstep program
installed on a host lives exactly as long as the connection that
installed it.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.bsp import shm
from repro.bsp.engine import ComputeResult
from repro.bsp.executors import RemoteExecutor
from repro.bsp.transport import FrameConnection
from repro.errors import BSPError, TransientJobError
from repro.faults import FaultPlan
from repro.generate.synthetic import random_eulerian
from repro.jobs import (
    CANCELLED,
    DONE,
    GraphCatalog,
    JobEngine,
    RemoteHostPool,
    WorkerHost,
    graph_key,
    shard_of,
)
from repro.pipeline import RunConfig
from repro.scenarios import run_scenario

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture()
def graph():
    return random_eulerian(60, 5, 16, seed=2)


@pytest.fixture()
def two_hosts(tmp_path):
    hosts = [WorkerHost(tmp_path / f"host{i}").start() for i in range(2)]
    yield hosts
    for h in hosts:
        h.close()


def assert_same_result(a, b):
    assert len(a.circuits) == len(b.circuits)
    for ca, cb in zip(a.circuits, b.circuits):
        np.testing.assert_array_equal(ca.vertices, cb.vertices)
        np.testing.assert_array_equal(ca.edge_ids, cb.edge_ids)
    assert a.metrics == b.metrics


# ---------------------------------------------------------------------------
# content-hash sharding + catalog provisioning
# ---------------------------------------------------------------------------


def test_shard_of_is_deterministic_and_total():
    import hashlib

    keys = [hashlib.sha256(str(i).encode()).hexdigest()[:16]
            for i in range(64)]
    for n in (1, 2, 3, 7):
        slots = [shard_of(k, n) for k in keys]
        assert slots == [shard_of(k, n) for k in keys]  # stable
        assert all(0 <= s < n for s in slots)
    assert len({shard_of(k, 4) for k in keys}) == 4  # actually spreads
    with pytest.raises(ValueError):
        shard_of(keys[0], 0)


def test_catalog_export_put_bytes_roundtrip(tmp_path, graph):
    src = GraphCatalog(tmp_path / "src")
    dst = GraphCatalog(tmp_path / "dst")
    key = src.put(graph)
    data = src.export_bytes(key)
    assert dst.put_bytes(data) == key  # content hash survives the wire
    got = dst.get(key)
    np.testing.assert_array_equal(graph.edge_u, got.edge_u)
    np.testing.assert_array_equal(graph.edge_v, got.edge_v)
    with pytest.raises(KeyError):
        src.export_bytes("0" * 16)


def test_put_bytes_rekeys_corrupted_transfer(tmp_path, graph):
    """A corrupted payload must key to *its own* content, never the
    original key — transfer damage cannot poison a shard."""
    src = GraphCatalog(tmp_path / "src")
    dst = GraphCatalog(tmp_path / "dst")
    key = src.put(graph)
    other = random_eulerian(40, 4, 10, seed=9)
    impostor = GraphCatalog(tmp_path / "tmp")
    data = impostor.export_bytes(impostor.put(other))
    assert dst.put_bytes(data) != key


def test_hosts_build_partition_local_shards(tmp_path, two_hosts, graph):
    """After a spread of jobs, each host's catalog holds exactly the
    graphs whose content hash homes on it (plus nothing else)."""
    graphs = [random_eulerian(30 + 6 * i, 3, 8, seed=i) for i in range(6)]
    with JobEngine(
        tmp_path / "coord", dispatcher="remote",
        hosts=[h.address for h in two_hosts],
    ) as engine:
        # Sequential submission: the home host is always free, so every
        # job lands on its shard (concurrent load may steal — that's the
        # liveness half of the placement contract, not tested here).
        for g in graphs:
            engine.submit(
                "circuit", graph=g, config=RunConfig(n_parts=2)
            ).result(timeout=60)
    for i, host in enumerate(two_hosts):
        homed = {graph_key(g) for g in graphs
                 if shard_of(graph_key(g), 2) == i}
        assert homed <= set(host.catalog.keys())


# ---------------------------------------------------------------------------
# remote dispatcher parity
# ---------------------------------------------------------------------------


def test_remote_dispatcher_matches_serial(tmp_path, two_hosts, graph):
    config = RunConfig(n_parts=4, seed=0)
    serial = run_scenario(graph, "circuit", config)
    with JobEngine(
        tmp_path / "coord", dispatcher="remote",
        hosts=[h.address for h in two_hosts],
    ) as engine:
        handles = [
            engine.submit("circuit", graph=graph, config=config)
            for _ in range(6)
        ]
        results = [h.result(timeout=60) for h in handles]
        stats = engine.supervisor_stats()
    assert stats["dispatcher"] == "remote"
    assert stats["hosts"]["dispatched"] == 6
    assert stats["hosts"]["host_failures"] == 0
    for res in results:
        assert_same_result(serial, res)


@pytest.mark.skipif(not shm.shm_available(), reason="needs /dev/shm")
def test_remote_job_reads_the_host_catalog_not_coordinator_shm(
        tmp_path, two_hosts, graph):
    """A segment name only means something on the coordinator's machine:
    a remote job is provisioned into the host's catalog and leaves no
    graph segment behind on the coordinator."""
    with JobEngine(
        tmp_path / "coord", dispatcher="remote",
        hosts=[h.address for h in two_hosts],
    ) as engine:
        before = set(shm.leaked_segments())
        handle = engine.submit("circuit", graph=graph,
                               config=RunConfig(n_parts=4))
        handle.result(timeout=60)
        job = engine.job(handle.job_id)
        assert engine.segment_stats()["segments"] == 0
        assert set(shm.leaked_segments()) - before == set()
    sources = [p["source"] for p in job.passes if p["pass"] == "load_graph"]
    assert sources and "segment" not in sources
    assert "share_graph" not in [p["pass"] for p in job.passes]


def test_remote_dispatcher_requires_hosts(tmp_path):
    with pytest.raises(ValueError, match="at least one worker host"):
        JobEngine(tmp_path / "coord", dispatcher="remote")


def test_unknown_dispatcher_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown dispatcher"):
        JobEngine(tmp_path / "coord", dispatcher="carrier-pigeon")


def test_remote_cancel_reaches_running_job(tmp_path, two_hosts, graph):
    slow = FaultPlan.parse("slow@at=1,delay=0.2;slow@at=2,delay=0.2;"
                           "slow@at=3,delay=0.2")
    with JobEngine(
        tmp_path / "coord", dispatcher="remote",
        hosts=[h.address for h in two_hosts],
    ) as engine:
        handle = engine.submit(
            "circuit", graph=graph,
            config=RunConfig(n_parts=4, faults=slow),
        )
        deadline = time.monotonic() + 10
        while engine.job(handle.job_id).state != "RUNNING":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        assert engine.cancel(handle.job_id)
        deadline = time.monotonic() + 30
        while engine.job(handle.job_id).state not in (CANCELLED, DONE):
            assert time.monotonic() < deadline, "cancel never landed"
            time.sleep(0.05)
        # Cooperative cancel is racy-by-design near the end of a run; what
        # must hold is that the job terminated and nothing leaked.
        assert engine.job(handle.job_id).state in (CANCELLED, DONE)


def test_all_hosts_down_degrades_to_in_process(tmp_path, graph):
    """With every host unreachable, the first attempt fails transiently
    and the retry — finding the circuit open — runs in-process."""
    config = RunConfig(n_parts=2, seed=0)
    serial = run_scenario(graph, "circuit", config)
    with JobEngine(
        tmp_path / "coord", dispatcher="remote",
        hosts="127.0.0.1:9", default_max_retries=2,  # port 9: discard, dead
    ) as engine:
        handle = engine.submit("circuit", graph=graph, config=config)
        res = handle.result(timeout=60)
        stats = engine.supervisor_stats()
    assert_same_result(serial, res)
    assert stats["retries_scheduled"] >= 1
    assert stats["degraded_jobs"] >= 1
    assert stats["hosts"]["host_failures"] >= 1


def test_host_pool_rejects_empty_hosts(tmp_path):
    with pytest.raises(ValueError, match="at least one worker host"):
        RemoteHostPool(None, GraphCatalog(tmp_path / "cat"))


# ---------------------------------------------------------------------------
# superstep programs on a host: scoped to the installing connection
# ---------------------------------------------------------------------------

#: Weak references to the tables of every program a host unpickled.
_INSTALLED_TABLES: list = []


class TableProgram:
    """Module-level so a host can unpickle it; records a weak reference to
    its table each time a host installs a copy."""

    def __init__(self):
        self.table = np.arange(1 << 12, dtype=np.int64)

    def __setstate__(self, state):
        self.__dict__.update(state)
        _INSTALLED_TABLES.append(weakref.ref(self.table))

    def __call__(self, pid, state, messages, rec, superstep):
        return ComputeResult(state=int(self.table[pid]), halt=True)


def test_closed_remote_executor_leaves_no_program_on_the_host(tmp_path):
    _INSTALLED_TABLES.clear()
    with WorkerHost(tmp_path / "h") as host:
        ex = RemoteExecutor([host.address])
        try:
            ex.start(TableProgram())
            out = ex.run_superstep([(pid, None, [], 0) for pid in range(3)])
        finally:
            ex.close()
        assert sorted((pid, res.state) for pid, _, res in out) == [
            (0, 0), (1, 1), (2, 2)]
        assert len(_INSTALLED_TABLES) == 1
        deadline = time.monotonic() + 10
        while _INSTALLED_TABLES[0]() is not None:
            assert time.monotonic() < deadline, "host kept the program"
            time.sleep(0.02)
            gc.collect()


def test_task_without_an_installed_program_is_an_error(tmp_path):
    with WorkerHost(tmp_path / "h") as host:
        conn = FrameConnection.open(host.address)
        try:
            reply = conn.request({"op": "task", "task": (0, None, [], 0)})
        finally:
            conn.close()
        assert reply["ok"] is False
        assert "no superstep program" in reply["error"]

        # A coordinator whose connection carries no program fails the
        # superstep instead of running or replaying anything.
        ex = RemoteExecutor([host.address])
        try:
            ex.start(TableProgram())
            ex._conns[0].close()
            ex._conns[0] = FrameConnection.open(host.address)
            with pytest.raises(BSPError, match="no superstep program"):
                ex.run_superstep([(0, None, [], 0)])
        finally:
            ex.close()


# ---------------------------------------------------------------------------
# host death: the acceptance scenario
# ---------------------------------------------------------------------------


def _spawn_cli_worker(tmp_path, name):
    """A dedicated `repro-euler worker` process (REPRO_FAULT_HOST armed:
    host_kill faults SIGKILL it for real)."""
    port_file = tmp_path / f"{name}.port"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--cache-root", str(tmp_path / name),
         "--port-file", str(port_file)],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while not port_file.exists() or len(port_file.read_text().split()) < 3:
        assert time.monotonic() < deadline, "worker never came up"
        time.sleep(0.05)
    host, port, pid = port_file.read_text().split()
    return proc, f"{host}:{port}", int(pid)


@pytest.mark.skipif(not shm.shm_available(), reason="needs /dev/shm")
def test_sigkilled_host_job_retries_bit_identical(tmp_path, graph):
    """SIGKILL one of two worker hosts mid-job (injected host_kill): the
    coordinator re-dispatches to the survivor, the final result is
    bit-identical to an unfaulted run, and after the janitor sweep the
    dead host's segments are gone."""
    config = RunConfig(n_parts=4, seed=0)
    serial = run_scenario(graph, "circuit", config)

    p1, addr1, pid1 = _spawn_cli_worker(tmp_path, "w1")
    p2, addr2, pid2 = _spawn_cli_worker(tmp_path, "w2")
    procs = {0: p1, 1: p2}
    try:
        # Arm the kill on whichever host the graph homes on, so the first
        # dispatch (home-shard placement) is the one that dies.
        faulted = FaultPlan.parse("host_kill@at=2")
        with JobEngine(
            tmp_path / "coord", dispatcher="remote",
            hosts=f"{addr1},{addr2}", default_max_retries=2,
        ) as engine:
            handle = engine.submit(
                "circuit", graph=graph,
                config=RunConfig(n_parts=4, seed=0, faults=faulted),
            )
            res = handle.result(timeout=120)
            job = engine.job(handle.job_id)
            stats = engine.supervisor_stats()

        assert job.state == DONE
        assert job.attempt >= 1, "host death should have forced a retry"
        assert stats["hosts"]["host_failures"] >= 1
        passes = [p["pass"] for p in job.passes]
        assert "host_failure" in passes or "retry" in passes
        assert_same_result(serial, res)

        home = shard_of(graph_key(graph), 2)
        assert procs[home].wait(timeout=30) is not None, "faulted host survived"
    finally:
        for p in (p1, p2):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in (p1, p2):
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                p.kill()
                p.wait(timeout=10)

    # The SIGKILL'd host could not run cleanup; the janitor reclaims its
    # segments by creator pid, leaving /dev/shm clean (the suite's autouse
    # leak audit then sees nothing new).
    shm.sweep_stale_segments()
    leaked = [n for n in shm.leaked_segments()
              if shm.segment_creator_pid(n) in (pid1, pid2)]
    assert leaked == []


def test_transient_error_taxonomy():
    assert issubclass(TransientJobError, Exception)
    err = TransientJobError("host gone")
    assert "host gone" in str(err)
