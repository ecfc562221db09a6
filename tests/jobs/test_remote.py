"""Multi-host execution: sharded catalogs, the remote dispatcher, host death.

The acceptance contract for the distributed layer: a 2-host loopback
cluster produces jobs bit-identical to the in-process engine, survives a
SIGKILL'd worker host (the job retries on the survivor and the result is
still bit-identical), leaves nothing in /dev/shm, and degrades to
in-process execution when every host is unreachable. A superstep program
installed on a host lives exactly as long as the connection that
installed it.
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.bsp import shm, transport
from repro.bsp.engine import ComputeResult
from repro.bsp.executors import RemoteExecutor
from repro.bsp.transport import FrameConnection
from repro.core import find_euler_circuit
from repro.errors import BSPError, FrameTooLargeError, TransientJobError
from repro.faults import FaultPlan
from repro.generate.eulerize import eulerian_rmat
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
from repro.obs import MetricsRegistry, diff_state, get_registry
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
        hosts=[h.address for h in two_hosts], metrics=MetricsRegistry(),
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


def test_remote_job_reads_the_host_catalog_not_coordinator_shm(
        tmp_path, two_hosts, graph):
    """A remote job is provisioned into the host's catalog and loads its
    graph there; nothing lands in /dev/shm on either side."""
    with JobEngine(
        tmp_path / "coord", dispatcher="remote",
        hosts=[h.address for h in two_hosts],
    ) as engine:
        before = set(shm.leaked_segments())
        handle = engine.submit("circuit", graph=graph,
                               config=RunConfig(n_parts=4))
        handle.result(timeout=60)
        job = engine.job(handle.job_id)
        assert set(shm.leaked_segments()) - before == set()
    sources = [p["source"] for p in job.passes if p["pass"] == "load_graph"]
    assert sources and set(sources) <= {"npz", "cache"}


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
        metrics=MetricsRegistry(),
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


class InflateProgram:
    """Module-level so a host can unpickle it: replies to task state ``n``
    with ``n`` int64 zeros; ``ballast`` bytes ride in its install frame."""

    def __init__(self, ballast: int = 0):
        self.ballast = bytes(ballast)

    def __call__(self, pid, state, messages, rec, superstep):
        return ComputeResult(state=np.zeros(state, dtype=np.int64), halt=True)


def test_frames_past_the_cap_fail_the_run_and_are_not_transient(
        tmp_path, monkeypatch):
    """A frame over MAX_FRAME_BYTES is refused by its sender before a byte
    is written, so the run fails with the frame's size and the cap, not
    as a lost host (a TransientJobError the job layer would retry to the
    same end): an install frame, a task frame, and a host's reply frame.
    Each connection stays usable afterwards."""
    cap = 1 << 18
    monkeypatch.setattr(transport, "MAX_FRAME_BYTES", cap)
    too_large = f"exceeds the {cap}-byte cap"
    with WorkerHost(tmp_path / "h") as host:
        ex = RemoteExecutor([host.address])
        try:
            with pytest.raises(FrameTooLargeError, match=too_large):
                ex.start(InflateProgram(ballast=cap))
        finally:
            ex.close()

        ex = RemoteExecutor([host.address])
        try:
            ex.start(InflateProgram())
            # Every frame of a superstep is encoded before any is sent: the
            # small task does not go out either, and no host owes a reply.
            with pytest.raises(FrameTooLargeError, match=too_large):
                ex.run_superstep([(0, 1, [], 0), (1, np.zeros(cap // 8), [], 0)])
            (_, _, res), = ex.run_superstep([(0, 2, [], 0)])
            assert res.state.tolist() == [0, 0]
            with pytest.raises(BSPError, match=f"FrameTooLargeError.*{too_large}"):
                ex.run_superstep([(0, cap // 8, [], 0)])
            (_, _, res), = ex.run_superstep([(0, 3, [], 0)])
            assert res.state.tolist() == [0, 0, 0]
        finally:
            ex.close()


def _host_that_drops_its_first_task(listener: socket.socket) -> None:
    """Accept one coordinator, install its program, then close the
    connection after the first task frame's header."""
    sock, _ = listener.accept()
    conn = FrameConnection(sock)
    try:
        conn.recv()
        conn.send({"ok": True})
        sock.recv(16)
    finally:
        conn.close()


def test_host_lost_mid_superstep_fails_it_as_transient():
    """A host that goes away while its task frames are still being sent
    fails the superstep with TransientJobError, within a bounded time: the
    sender's failed write and the receiving loop's end-of-stream both end
    it, and close() still joins the sender."""
    import threading

    listener = socket.create_server(("127.0.0.1", 0))
    host = threading.Thread(target=_host_that_drops_its_first_task,
                            args=(listener,), daemon=True)
    host.start()
    ex = RemoteExecutor([listener.getsockname()[:2]])
    big = np.arange(1 << 21, dtype=np.int64)  # 16 MiB: still sending when the host goes
    done: dict = {}

    def run():
        try:
            ex.run_superstep([(0, big, [], 0), (1, big, [], 0)])
        except BaseException as exc:  # read below
            done["exc"] = exc

    try:
        ex.start(TableProgram())
        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "a superstep on a lost host never ended"
        assert isinstance(done.get("exc"), TransientJobError)
        assert "disconnected mid-superstep" in str(done["exc"])
    finally:
        ex.close()
        listener.close()
        host.join(timeout=10)
    assert not host.is_alive()


# ---------------------------------------------------------------------------
# the remote wire: packed columns plus a fixed framing allowance
# ---------------------------------------------------------------------------

#: Framing allowance per frame on the remote wire: header, buffer length
#: prefixes and the pickled task/result *structure* (not its array
#: payload). Measured ~1.3 KB/frame on the scale-13 input below, ~4.5
#: KB/frame at scale 15 and ~13.7 KB/frame on rmat500k (~0.3% of payload:
#: structure grows with fragment count, far sublinear in bytes); a
#: payload-re-encoding regression inflates this by 10-100x, which is what
#: the cap catches. Byte counts are deterministic, so the budget needs no
#: machine-speed scaling.
FRAME_OVERHEAD_CAP = 16384


def test_remote_run_ships_packed_columns_with_fixed_framing(two_hosts):
    """Everything a remote run puts on the wire beyond its raw packed
    buffers fits a fixed per-frame allowance: table columns and pickled
    superstep messages ship out of band, never re-encoded in the meta.
    Both hosts are in-process, so one registry diff sees both directions.
    """
    g, _ = eulerian_rmat(13, avg_degree=4.0, seed=7)
    serial = find_euler_circuit(g, n_parts=8, partitioner="hash", seed=0)
    registry = get_registry()
    before = registry.state()
    res = find_euler_circuit(g, n_parts=8, partitioner="hash", seed=0,
                             executor="remote",
                             hosts=[h.address for h in two_hosts])
    counters = diff_state(before, registry.state())["counters"]
    messages, total, buffers = (
        int(sum(counters[f"repro_wire_{name}_total"]["children"].values()))
        for name in ("messages", "bytes", "buffer_bytes")
    )
    assert messages > 0
    assert total - buffers <= messages * FRAME_OVERHEAD_CAP
    np.testing.assert_array_equal(serial.circuit.vertices,
                                  res.circuit.vertices)
    np.testing.assert_array_equal(serial.circuit.edge_ids,
                                  res.circuit.edge_ids)


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
    host, port, _ = port_file.read_text().split()
    return proc, f"{host}:{port}"


def test_sigkilled_host_job_retries_bit_identical(tmp_path):
    """A short soak over two worker host processes, one job of which
    SIGKILLs its host mid-job (injected host_kill): that job retries on the
    survivor, every job on either graph ends DONE and bit-identical to its
    serial run, the jobs after the kill all run on the survivor, and
    neither host, killed or stopped, leaves a segment behind."""
    graphs = [random_eulerian(60 + 10 * i, 5, 16, seed=i) for i in range(2)]
    config = RunConfig(n_parts=4, seed=0)
    serial = [run_scenario(g, "circuit", config) for g in graphs]

    before = set(shm.leaked_segments())
    p1, addr1 = _spawn_cli_worker(tmp_path, "w1")
    p2, addr2 = _spawn_cli_worker(tmp_path, "w2")
    procs = {0: p1, 1: p2}
    try:
        with JobEngine(
            tmp_path / "coord", dispatcher="remote",
            hosts=f"{addr1},{addr2}", default_max_retries=2,
            metrics=MetricsRegistry(),
        ) as engine:
            def run_all(jobs):
                """Submit ``(graph index, faults)`` jobs, check each ends
                DONE and equal to its serial run; returns the jobs."""
                handles = [
                    (gi, engine.submit("circuit", graph=graphs[gi],
                                       config=replace(config, faults=f)))
                    for gi, f in jobs
                ]
                for gi, handle in handles:
                    assert_same_result(serial[gi], handle.result(timeout=120))
                    assert engine.job(handle.job_id).state == DONE
                return [engine.job(h.job_id) for _, h in handles]

            run_all([(0, None), (1, None), (0, None), (1, None)])
            # Alone in the engine, the faulted job goes to its graph's home
            # host (home-shard placement), so that host is the one that dies.
            [job] = run_all([(0, FaultPlan.parse("host_kill@at=2"))])
            home = shard_of(graph_key(graphs[0]), 2)
            assert procs[home].wait(timeout=30) is not None, \
                "faulted host survived"
            assert job.attempt >= 1, "host death should have forced a retry"
            passes = [p["pass"] for p in job.passes]
            assert "host_failure" in passes or "retry" in passes
            hosts = engine.supervisor_stats()["hosts"]
            assert hosts["host_failures"] >= 1
            at_kill = [h["jobs"] for h in hosts["per_host"]]

            run_all([(i % 2, None) for i in range(6)])
            after = [h["jobs"] for h in
                     engine.supervisor_stats()["hosts"]["per_host"]]
        assert after[home] == at_kill[home]
        assert after[1 - home] == at_kill[1 - home] + 6
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

    # The SIGKILL'd host ran no cleanup, and needed none.
    assert sorted(set(shm.leaked_segments()) - before) == []


def test_transient_error_taxonomy():
    assert issubclass(TransientJobError, Exception)
    err = TransientJobError("host gone")
    assert "host gone" in str(err)
