"""Executor pool lifecycle: close semantics, context managers, leak regression.

A long-lived service cycles through many runs; any backend that leaks a
thread or a worker process per run will eventually take the host down.
These tests pin the contract: ``close()`` reaps every worker, is
idempotent, and the shared pool outlives its sessions.
"""

import multiprocessing
import threading

import pytest

from repro.bsp import shm
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
    pool = SharedPool("thread", max_workers=3)
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
    with SharedPool("thread", max_workers=2) as pool:
        for _ in range(5):
            states = _run_engine(pool.session())
            assert states == {0: 1, 1: 1}
    assert pool.closed


def test_shared_process_pool_caches_program():
    before = len(multiprocessing.active_children())
    with SharedPool("process", max_workers=2) as pool:
        for _ in range(3):
            states = _run_engine(pool.session())
            assert states == {0: 1, 1: 1}
        assert len(multiprocessing.active_children()) == before + 2
    assert len(multiprocessing.active_children()) == before


@pytest.mark.skipif(not shm.shm_available(), reason="needs /dev/shm")
def test_shared_process_pool_keeps_no_finished_program():
    """Every run's program has its own key (Setup mints a run token), so a
    segment left behind is never looked up again: a session unpublishes
    its program when the run ends."""
    from repro.generate.synthetic import grid_city
    from repro.pipeline import RunConfig, run_pipeline

    with SharedPool("process", max_workers=2) as pool:
        for _ in range(3):
            run_pipeline(grid_city(6, 6), RunConfig(n_parts=4, pool=pool))
        stats = pool.segment_stats()
    assert stats["attaches"] >= 3  # the programs did go through segments
    assert stats["segments"] == 0


def test_shared_pool_replays_only_the_tasks_that_missed_the_segment(monkeypatch):
    """A superstep program drops each level-0 table after its last reader,
    so no task may run twice: when one worker finds the program segment
    gone, only that task is replayed on the raw wire."""
    from repro.bsp import executors

    runs = []

    def task_missing_pid1(arg):
        key, (kind, _), task = arg
        if kind == "seg" and task[0] == 1:
            raise executors.ProgramSegmentGone(key)
        runs.append((task[0], kind))
        return task[0]

    monkeypatch.setattr(executors, "_shared_process_task", task_missing_pid1)
    with SharedPool("thread", max_workers=2) as pool:
        monkeypatch.setattr(pool, "_program_wire", lambda key, payload: ("seg", None))
        out = pool._map_process("k", b"", [(pid, None, [], 0) for pid in range(3)])
    assert out == [0, 1, 2]
    assert sorted(runs) == [(0, "seg"), (1, "raw"), (2, "seg")]


def test_shared_pool_rejects_bad_args():
    with pytest.raises(ValueError):
        SharedPool("fiber")
    with pytest.raises(ValueError):
        SharedPool("thread", max_workers=0)


def test_run_task_records_unaccounted_time():
    pid, rec, res = run_task(_echo, (7, None, [], 2))
    assert pid == 7 and rec.pid == 7 and rec.superstep == 2
    assert res.state == 1
