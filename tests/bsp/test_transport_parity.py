"""Transport parity: pickle and shm message planes are interchangeable.

The transport contract: how superstep messages cross a process boundary
(portable pickle bytes vs single-copy shared-memory segments) must never
change the run's outcome. Every (backend, transport) pair — including the
shared pools the job engine uses — must produce the bit-identical circuit
and fragment census, and the shm transport must leave ``/dev/shm`` exactly
as it found it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bsp import shm
from repro.bsp.executors import SharedPool
from repro.core import find_euler_circuit, verify_circuit
from repro.generate.synthetic import grid_city, random_eulerian
from repro.graph.graph import Graph
from repro.pipeline import RunConfig, run_pipeline

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory not available"
)


@pytest.fixture(autouse=True)
def no_new_segments():
    before = set(shm.leaked_segments())
    yield
    leaked = sorted(set(shm.leaked_segments()) - before)
    assert leaked == [], f"run leaked shm segments: {leaked}"


@pytest.fixture(scope="module")
def graphs() -> dict[str, Graph]:
    return {
        "grid": grid_city(6, 6),
        "rand": random_eulerian(60, n_walks=5, walk_len=18, seed=1),
    }


def _census(store):
    return sorted(
        (f.fid, f.kind, f.level, f.pid, f.src, f.dst, f.n_edges)
        for f in store.all_fragments()
    )


@needs_shm
@pytest.mark.parametrize("name", ["grid", "rand"])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_shm_transport_matches_pickle(graphs, name, backend):
    g = graphs[name]
    ref = find_euler_circuit(g, n_parts=4, seed=0, executor=backend,
                             engine_workers=3, transport="pickle")
    res = find_euler_circuit(g, n_parts=4, seed=0, executor=backend,
                             engine_workers=3, transport="shm")
    verify_circuit(g, res.circuit)
    np.testing.assert_array_equal(ref.circuit.vertices, res.circuit.vertices)
    np.testing.assert_array_equal(ref.circuit.edge_ids, res.circuit.edge_ids)
    assert _census(ref.store) == _census(res.store)


@needs_shm
@pytest.mark.parametrize("kind", ["thread", "process"])
def test_shared_pool_shm_transport_parity(graphs, kind):
    g = graphs["grid"]
    ref = find_euler_circuit(g, n_parts=4, seed=0, executor="serial")
    with SharedPool(kind, max_workers=3) as pool:
        for _ in range(3):
            ctx = run_pipeline(
                g, RunConfig(n_parts=4, seed=0, pool=pool, transport="shm")
            )
            np.testing.assert_array_equal(
                ref.circuit.vertices, ctx.circuit.vertices
            )
            np.testing.assert_array_equal(
                ref.circuit.edge_ids, ctx.circuit.edge_ids
            )
            assert _census(ref.store) == _census(ctx.store)
        if kind == "process":
            stats = pool.segment_stats()
            assert stats["attaches"] >= 1  # program payload went zero-copy
    # Pool close releases the program-payload segments with it.
    assert pool.segment_stats() == {"segments": 0, "bytes": 0, "attaches": 0}


def test_default_transport_is_pickle():
    assert RunConfig().transport_name == "pickle"
    with pytest.raises(ValueError):
        RunConfig(transport="carrier-pigeon").transport_name


# -- task-transport matrix ---------------------------------------------------
#
# The per-task wire codec (repro.bsp.transport) is orthogonal to the message
# transport above: it governs how SuperstepTask payloads and results cross
# the executor boundary. Every codec must be invisible in the output.

TASK_TRANSPORTS = ["memory", "pickle", "shm", "socket"]


@pytest.mark.parametrize("name", ["grid", "rand"])
@pytest.mark.parametrize("task_transport", TASK_TRANSPORTS)
def test_task_transport_matrix_bit_identical(graphs, name, task_transport):
    if task_transport == "shm" and not shm.shm_available():
        pytest.skip("POSIX shared memory not available")
    g = graphs[name]
    ref = find_euler_circuit(g, n_parts=4, seed=0)
    res = find_euler_circuit(g, n_parts=4, seed=0,
                             task_transport=task_transport)
    verify_circuit(g, res.circuit)
    np.testing.assert_array_equal(ref.circuit.vertices, res.circuit.vertices)
    np.testing.assert_array_equal(ref.circuit.edge_ids, res.circuit.edge_ids)
    assert _census(ref.store) == _census(res.store)


@pytest.mark.parametrize("task_transport", TASK_TRANSPORTS)
def test_task_transport_matrix_on_thread_backend(graphs, task_transport):
    if task_transport == "shm" and not shm.shm_available():
        pytest.skip("POSIX shared memory not available")
    g = graphs["rand"]
    ref = find_euler_circuit(g, n_parts=4, seed=0)
    res = find_euler_circuit(g, n_parts=4, seed=0, executor="thread",
                             engine_workers=3, task_transport=task_transport)
    np.testing.assert_array_equal(ref.circuit.vertices, res.circuit.vertices)
    np.testing.assert_array_equal(ref.circuit.edge_ids, res.circuit.edge_ids)
    assert _census(ref.store) == _census(res.store)


def test_remote_loopback_matches_serial(graphs, tmp_path):
    """The socket-framed remote backend joins the same parity contract."""
    from repro.jobs.remote import WorkerHost

    g = graphs["rand"]
    ref = find_euler_circuit(g, n_parts=4, seed=0)
    with WorkerHost(tmp_path / "a") as h1, WorkerHost(tmp_path / "b") as h2:
        res = find_euler_circuit(
            g, n_parts=4, seed=0, executor="remote",
            hosts=[h1.address, h2.address],
        )
    np.testing.assert_array_equal(ref.circuit.vertices, res.circuit.vertices)
    np.testing.assert_array_equal(ref.circuit.edge_ids, res.circuit.edge_ids)
    assert _census(ref.store) == _census(res.store)


@needs_shm
def test_transport_survives_cancellation_cleanup(graphs):
    """A run killed at a superstep boundary sweeps its message segments."""
    from repro.errors import RunCancelledError
    from repro.pipeline.cancel import CancelToken

    g = graphs["rand"]
    token = CancelToken(timeout_seconds=1e-9)  # expires at the first check
    with pytest.raises(RunCancelledError):
        run_pipeline(
            g,
            RunConfig(n_parts=4, seed=0, executor="process", workers=3,
                      transport="shm", cancel=token),
        )
    # the autouse fixture asserts no stranded repro_m* message segments
