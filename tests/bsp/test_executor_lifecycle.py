"""Executor pool lifecycle: close semantics, context managers, leak regression.

A long-lived service cycles through many runs; any backend that leaks a
thread or a worker process per run will eventually take the host down.
These tests pin the contract: ``close()`` reaps every worker, is
idempotent, and the shared pool outlives its sessions; the remote backend
starts its threads once, in ``start``, and none per superstep.
"""

import multiprocessing
import threading
import time

import pytest

from repro.bsp.accounting import PartitionStepRecord
from repro.bsp.engine import BSPEngine, ComputeResult
from repro.bsp.executors import (
    ProcessExecutor,
    RemoteExecutor,
    SerialExecutor,
    SharedPool,
    ThreadExecutor,
    run_task,
)
from repro.jobs.remote import WorkerHost


def _echo(pid, state, messages, record, superstep):
    return ComputeResult(state=(state or 0) + 1, halt=True)


def _run_engine(executor):
    engine = BSPEngine(executor=executor)
    states, _ = engine.run({0: 0, 1: 0}, _echo, max_supersteps=3)
    return states


def _alive_worker_threads():
    return [t for t in threading.enumerate() if "ThreadPoolExecutor" in t.name]


def _remote_senders():
    return [t for t in threading.enumerate() if t.name.startswith("remote-send")]


@pytest.fixture()
def hosts(tmp_path):
    """Two in-process worker hosts' addresses."""
    with WorkerHost(tmp_path / "h0") as h0, WorkerHost(tmp_path / "h1") as h1:
        yield [h0.address, h1.address]


def test_thread_executor_close_reaps_threads():
    before = len(_alive_worker_threads())
    ex = ThreadExecutor(max_workers=4)
    ex.start(_echo)
    ex.run_superstep([(0, None, [], 0)])
    assert len(_alive_worker_threads()) > before
    ex.close()
    assert len(_alive_worker_threads()) == before
    ex.close()  # idempotent


def test_process_executor_close_reaps_children():
    before = len(multiprocessing.active_children())
    ex = ProcessExecutor(max_workers=2)
    ex.start(_echo)
    ex.run_superstep([(0, None, [], 0)])
    ex.close()
    assert len(multiprocessing.active_children()) == before
    ex.close()  # idempotent


def test_remote_executor_threads_are_fixed_from_start_to_close(hosts, monkeypatch):
    """One sender per host, started once: no superstep starts a thread
    (replies are read on the calling thread), and close joins them all."""
    before = threading.active_count()
    ex = RemoteExecutor(hosts)
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    try:
        ex.start(_echo)
        senders = _remote_senders()
        assert len(senders) == 2
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        counts = [threading.active_count()]
        for superstep in range(4):
            tasks = [(pid, superstep, [], superstep) for pid in range(4)]
            out = sorted(ex.run_superstep(tasks))
            assert [(pid, res.state) for pid, _, res in out] == [
                (pid, superstep + 1) for pid in range(4)]
            counts.append(threading.active_count())
    finally:
        ex.close()
    assert counts == [counts[0]] * 5 and counts[0] > before
    assert started == []
    assert not any(t.is_alive() for t in senders) and not _remote_senders()
    ex.close()  # idempotent


@pytest.mark.parametrize(
    "cls", [SerialExecutor, ThreadExecutor, ProcessExecutor, RemoteExecutor])
def test_executors_are_context_managers(cls, request):
    if cls is RemoteExecutor:
        ex = cls(request.getfixturevalue("hosts"))
    else:
        ex = cls(max_workers=2)
    with ex:
        ex.start(_echo)
        (pid, rec, res) = ex.run_superstep([(0, None, [], 0)])[0]
        assert pid == 0 and isinstance(rec, PartitionStepRecord)
        assert res.state == 1
    assert not _remote_senders()


def test_engine_leak_regression_many_runs():
    """100 engine runs on pooled backends must not accumulate threads."""
    baseline = threading.active_count()
    for _ in range(100):
        _run_engine("thread")
    assert threading.active_count() <= baseline + 1


def test_remote_engine_runs_leave_no_thread_on_either_side(hosts):
    """Engine runs on the remote backend leave no sender behind, and each
    host ends the connection thread of a closed executor."""
    baseline = threading.active_count()
    for _ in range(20):
        assert _run_engine(RemoteExecutor(hosts)) == {0: 1, 1: 1}
    assert not _remote_senders()
    deadline = time.monotonic() + 10
    while threading.active_count() > baseline:
        assert time.monotonic() < deadline, "threads outlived their runs"
        time.sleep(0.02)


def test_shared_pool_outlives_sessions_and_closes_once():
    before = len(_alive_worker_threads())
    pool = SharedPool(max_workers=3)
    s1, s2 = pool.session(), pool.session()
    s1.start(_echo)
    s2.start(_echo)
    assert s1.run_superstep([(0, None, [], 0)])[0][2].state == 1
    s1.close()  # a session close must NOT touch the shared workers
    assert not pool.closed
    assert s2.run_superstep([(1, None, [], 0)])[0][0] == 1
    pool.close()
    assert pool.closed
    assert len(_alive_worker_threads()) == before
    pool.close()  # idempotent
    with pytest.raises(RuntimeError):
        pool.session()
    with pytest.raises(RuntimeError):
        s2.run_superstep([(0, None, [], 0)])


def test_shared_pool_context_manager_and_engine_runs():
    with SharedPool(max_workers=2) as pool:
        for _ in range(5):
            states = _run_engine(pool.session())
            assert states == {0: 1, 1: 1}
    assert pool.closed


def test_shared_pool_rejects_bad_args():
    with pytest.raises(ValueError):
        SharedPool(max_workers=0)


def test_run_task_records_unaccounted_time():
    pid, rec, res = run_task(_echo, (7, None, [], 2))
    assert pid == 7 and rec.pid == 7 and rec.superstep == 2
    assert res.state == 1
