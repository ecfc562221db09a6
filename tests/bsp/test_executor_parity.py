"""Executor parity: serial, thread and process backends are interchangeable.

The contract the executor layer advertises: the *outcome* of a BSP run —
circuit, fragment store, per-level census — is identical under every
backend; only wall-clock interleaving and serialization cost differ.

Representation parity rides on the same contract: ``golden_dataplane.json``
pins the circuits and fragment censuses the *seed* tuple-based data plane
produced (regenerate with ``make_golden_dataplane.py`` — see its docstring
for when that is legitimate), and every backend of the columnar data plane
must reproduce them bit for bit.
"""

import json

import numpy as np
import pytest

from repro.bsp import (
    EXECUTORS,
    BSPEngine,
    ComputeResult,
    SharedPool,
    make_executor,
    shm,
)
from repro import kernels
from repro.core import find_euler_circuit, phase1, verify_circuit
from repro.errors import UnknownExecutorError
from repro.generate.synthetic import grid_city, random_eulerian
from repro.jobs.remote import WorkerHost
from repro.pipeline import RunConfig, run_pipeline
from repro.pipeline import program as pipeline_program
from repro.pipeline import setup as pipeline_setup
from tests.bsp.make_golden_dataplane import FIXTURE, fingerprint, golden_graphs
from tests.helpers import fragment_census

BACKENDS = sorted(EXECUTORS)  # process, remote, serial, thread

GOLDEN = json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def remote_hosts(tmp_path_factory):
    """Two loopback worker hosts, so ``remote`` joins the parity matrix."""
    hosts = [
        WorkerHost(tmp_path_factory.mktemp(f"host{i}")).start()
        for i in range(2)
    ]
    yield [h.address for h in hosts]
    for h in hosts:
        h.close()


def _run(g, backend, remote_hosts, **kw):
    hosts = remote_hosts if backend == "remote" else None
    return find_euler_circuit(g, executor=backend, hosts=hosts, **kw)


@pytest.fixture(scope="module")
def graphs():
    return {
        "grid": grid_city(6, 6),
        "rand": random_eulerian(60, n_walks=5, walk_len=18, seed=1),
    }


@pytest.mark.parametrize("name", ["grid", "rand"])
def test_same_circuit_and_census_on_every_backend(graphs, name, remote_hosts):
    g = graphs[name]
    results = {
        backend: _run(
            g, backend, remote_hosts, n_parts=4, seed=0, engine_workers=3,
            validate=True,
        )
        for backend in BACKENDS
    }
    base = results["serial"]
    verify_circuit(g, base.circuit)
    for backend, res in results.items():
        assert np.array_equal(base.circuit.vertices, res.circuit.vertices), backend
        assert np.array_equal(base.circuit.edge_ids, res.circuit.edge_ids), backend
        assert fragment_census(base.store) == fragment_census(res.store), backend


@pytest.mark.parametrize("strategy", ["eager", "proposed"])
def test_process_backend_matches_serial_per_strategy(graphs, strategy):
    g = graphs["grid"]
    a = find_euler_circuit(g, n_parts=8, seed=2, strategy=strategy)
    b = find_euler_circuit(
        g, n_parts=8, seed=2, strategy=strategy, executor="process",
        engine_workers=2,
    )
    assert np.array_equal(a.circuit.vertices, b.circuit.vertices)
    assert fragment_census(a.store) == fragment_census(b.store)
    # The per-level census the Fig. 9 table reads is also identical.
    assert a.report.census_rows() == b.report.census_rows()


def test_census_identical_across_backends(graphs, remote_hosts):
    g = graphs["rand"]
    rows = {
        backend: _run(
            g, backend, remote_hosts, n_parts=4, seed=0, engine_workers=2
        ).report.census_rows()
        for backend in BACKENDS
    }
    assert (
        rows["serial"] == rows["thread"] == rows["process"] == rows["remote"]
    )


@pytest.mark.parametrize("workers", [pytest.param(3, id="thread")])
def test_shared_pool_repeated_runs_match_serial(graphs, workers):
    """Three identical runs on one shared pool each equal a serial run.

    A program drops its level-0 tables as it runs, so each run must get
    its own program: a later identical run may never read an emptied one.
    """
    g = graphs["grid"]
    before = set(shm.leaked_segments())
    ref = find_euler_circuit(g, n_parts=4, seed=0, executor="serial")
    with SharedPool(max_workers=workers) as pool:
        for _ in range(3):
            ctx = run_pipeline(g, RunConfig(n_parts=4, seed=0, pool=pool))
            np.testing.assert_array_equal(
                ref.circuit.vertices, ctx.circuit.vertices
            )
            np.testing.assert_array_equal(
                ref.circuit.edge_ids, ctx.circuit.edge_ids
            )
            assert fragment_census(ref.store) == fragment_census(ctx.store)
    assert sorted(set(shm.leaked_segments()) - before) == []


def test_unknown_executor_rejected(graphs):
    with pytest.raises(ValueError, match="unknown executor"):
        find_euler_circuit(graphs["grid"], executor="spark")


def test_unknown_executor_error_is_typed_and_lists_backends():
    with pytest.raises(UnknownExecutorError) as exc_info:
        make_executor("spark")
    err = exc_info.value
    assert isinstance(err, ValueError)
    assert err.name == "spark"
    assert err.choices == sorted(EXECUTORS)
    for backend in EXECUTORS:
        assert backend in str(err)


def test_make_executor_defaults():
    assert make_executor(None, 1).name == "serial"
    assert make_executor(None, 4).name == "thread"
    assert make_executor("process", 2).name == "process"


@pytest.fixture(scope="module", name="golden_graphs")
def golden_graphs_fixture():
    return golden_graphs()


def _check_golden(case, res):
    """The run's fingerprint, computed by the fixture's own generator."""
    assert fingerprint(res) == GOLDEN["cases"][case], f"{case} diverged"


@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
@pytest.mark.parametrize("backend", BACKENDS)
def test_columnar_path_matches_seed_goldens(
    golden_graphs, case, backend, remote_hosts
):
    """Bit-identical circuits and fragment censuses vs the recorded seed
    (tuple-representation) outputs, on every executor backend."""
    strategy = case.split("/")[1].rsplit("-", 1)[0]
    res = _run(
        golden_graphs[case.split("/")[0]], backend, remote_hosts, n_parts=4,
        seed=0, strategy=strategy, engine_workers=2, validate=True,
        verify=True,
    )
    _check_golden(case, res)


@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
@pytest.mark.parametrize("walk", ["native", "reference"])
def test_seed_goldens_on_both_phase1_walks(golden_graphs, case, walk,
                                           monkeypatch):
    """The native Phase-1 kernel and the Python reference walk both
    reproduce the goldens (the other backends run whichever loaded)."""
    if walk == "reference":
        monkeypatch.setattr(kernels, "load", lambda: None)
    elif kernels.load() is None:
        pytest.skip("no working C compiler: the native walk is unavailable")
    strategy = case.split("/")[1].rsplit("-", 1)[0]
    res = find_euler_circuit(
        golden_graphs[case.split("/")[0]], n_parts=4, seed=0,
        strategy=strategy, validate=True, verify=True,
    )
    _check_golden(case, res)


_WALK_TABLES = ("offsets", "slot_enc", "slot_next", "eu_loc", "ob", "eb",
                "vert_ids")


@pytest.mark.parametrize("case", ["rmat10/eager-p4", "rmat10/proposed-p4"])
def test_run_tables_are_int32_and_keep_the_goldens(golden_graphs, case,
                                                   monkeypatch):
    """On an ordinary graph every non-empty held index table of a run is
    int32 — the level-0 held rows, each merged state's held rows, the
    deferred extras and the Phase-1 walk tables — and the circuit and
    census still match their goldens."""
    seen: dict[str, set] = {}

    def note(table, *arrays):
        seen.setdefault(table, set()).update(
            a.dtype for a in arrays if a is not None and a.size)

    setup_run = pipeline_setup.Setup.run

    def recording_setup(self, graph, ctx):
        program = setup_run(self, graph, ctx)
        note("held0", *program.held0.values())
        note("extras", *program.extras.values())
        return program

    merge = pipeline_program.merge_states

    def recording_merge(*args, **kwargs):
        out = merge(*args, **kwargs)
        note("merged held", out[0].held)
        return out

    build = phase1._build_walk_tables

    def recording_build(edges, rdeg):
        tables = build(edges, rdeg)
        note("walk tables", *(getattr(tables, n) for n in _WALK_TABLES))
        return tables

    monkeypatch.setattr(pipeline_setup.Setup, "run", recording_setup)
    monkeypatch.setattr(pipeline_program, "merge_states", recording_merge)
    monkeypatch.setattr(phase1, "_build_walk_tables", recording_build)
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", 0)  # build every table
    strategy = case.split("/")[1].rsplit("-", 1)[0]
    res = find_euler_circuit(
        golden_graphs["rmat10"], n_parts=4, seed=0, strategy=strategy,
        validate=True, verify=True,
    )
    int32 = {np.dtype(np.int32)}
    expected = {"held0": int32, "walk tables": int32}
    if strategy == "proposed":
        # Deferred rows ship in as extras at the merge that makes them
        # local, so every merged state's held table is empty.
        expected["extras"] = int32
    else:
        expected["merged held"] = int32
    assert {k: v for k, v in seen.items() if v} == expected
    _check_golden(case, res)


class Doubler:
    """Module-level so the process backend can pickle it."""

    def __call__(self, pid, state, msgs, rec, step):
        n = (state or 0) + sum(msgs) if msgs else (state or 0) + pid + 1
        return ComputeResult(state=n, halt=n >= 6)


def test_generic_program_on_process_backend():
    """The engine itself (not just the Euler pipeline) runs out of process:
    a picklable accumulator program produces the same states."""
    serial, _ = BSPEngine(executor="serial").run({0: 0, 1: 0}, Doubler())
    procs, _ = BSPEngine(max_workers=2, executor="process").run({0: 0, 1: 0}, Doubler())
    assert serial == procs


class EchoState:
    """Module-level so the remote host can unpickle it; ships the (big)
    state straight back as the result."""

    def __call__(self, pid, state, msgs, rec, step):
        return ComputeResult(state=state, halt=True)


def test_remote_frames_larger_than_socket_buffers_do_not_deadlock(tmp_path):
    """Regression: the remote executor pipelines a burst of task frames
    down one socket per host. Sending the whole burst before reading any
    reply deadlocks once frames outgrow the kernel socket buffers — the
    host blocks sending reply 1 to a peer still blocked sending task 2.
    Replies must be drained concurrently with the sending: with one host,
    and with two, whose reply frames interleave on one receiving loop."""
    import threading

    from repro.bsp.executors import RemoteExecutor

    big = np.arange(1 << 21, dtype=np.int64)  # 16 MiB per frame, each way
    with WorkerHost(tmp_path / "h0") as h0, WorkerHost(tmp_path / "h1") as h1:
        for addrs in ([h0.address], [h0.address, h1.address]):
            ex = RemoteExecutor(addrs)
            try:
                ex.start(EchoState())
                pids = range(2 * len(addrs) + 1)
                # A distinct zero-copy view per task: each reply must carry
                # its own frame's buffer back, not another task's.
                tasks = [(pid, {"arr": big[pid:], "pid": pid}, [], 0)
                         for pid in pids]
                done: dict = {}

                def run():
                    done["out"] = ex.run_superstep(tasks)

                t = threading.Thread(target=run, daemon=True)
                t.start()
                t.join(timeout=120)
                assert not t.is_alive(), f"remote superstep deadlocked on {len(addrs)} host(s)"
                out = sorted(done.pop("out"), key=lambda triple: triple[0])
                assert [pid for pid, _, _ in out] == list(pids)
                for pid, _, res in out:
                    assert res.state["pid"] == pid
                    np.testing.assert_array_equal(res.state["arr"], big[pid:])
                del out
            finally:
                ex.close()
