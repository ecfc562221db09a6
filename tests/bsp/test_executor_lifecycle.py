"""Executor pool lifecycle: close semantics, context managers, leak regression.

A long-lived service cycles through many runs; any backend that leaks a
thread or a worker process per run will eventually take the host down.
These tests pin the contract: ``close()`` reaps every worker, is
idempotent, and the shared pool outlives its sessions.
"""

import multiprocessing
import threading

import pytest

from repro.bsp.accounting import PartitionStepRecord
from repro.bsp.engine import BSPEngine, ComputeResult
from repro.bsp.executors import (
    ProcessExecutor,
    SerialExecutor,
    SharedPool,
    ThreadExecutor,
    run_task,
)


def _echo(pid, state, messages, record, superstep):
    return ComputeResult(state=(state or 0) + 1, halt=True)


def _run_engine(executor):
    engine = BSPEngine(executor=executor)
    states, _ = engine.run({0: 0, 1: 0}, _echo, max_supersteps=3)
    return states


def _alive_worker_threads():
    return [t for t in threading.enumerate() if "ThreadPoolExecutor" in t.name]


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


@pytest.mark.parametrize("cls", [SerialExecutor, ThreadExecutor, ProcessExecutor])
def test_executors_are_context_managers(cls):
    with cls(max_workers=2) as ex:
        ex.start(_echo)
        (pid, rec, res) = ex.run_superstep([(0, None, [], 0)])[0]
        assert pid == 0 and isinstance(rec, PartitionStepRecord)
        assert res.state == 1


def test_engine_leak_regression_many_runs():
    """100 engine runs on pooled backends must not accumulate threads."""
    baseline = threading.active_count()
    for _ in range(100):
        _run_engine("thread")
    assert threading.active_count() <= baseline + 1


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
