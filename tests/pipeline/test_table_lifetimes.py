"""Run-table lifetimes: one copy of every table, none kept past its last reader.

A run's static tables are the level-0 local edge ids, remote-degree tables
and held half-edge rows (built once by Setup), plus the CSR the
partitioner reads. These tests pin who owns each table and when it goes:
the program drops a partition's level-0 entries once their last reader
has run — in the process that ran it, at commit in a coordinator whose
partitions ran elsewhere, and all at once in a remote coordinator when
every host has the program — a CSR built for Setup does not outlive
Setup, Setup's Eulerian check and placement hold their outputs plus O(n),
the pickled program and the remote install frame (what process and
remote workers install) carry each table once, a run's traced peak and
what a finished run retains stay within per-edge budgets, and the
fragment store holds one block per Phase-1 run.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.bsp.accounting import CAT_PHASE1
from repro.bsp.engine import BSPEngine
from repro.bsp.executors import RemoteExecutor
from repro.bsp.transport import encode_frame
from repro.core import phase1
from repro.core.improvements import plan_remote_placement
from repro.core.merge_tree import build_merge_tree
from repro.core.pathmap import FragmentStore
from repro.generate.eulerize import eulerian_rmat
from repro.generate.synthetic import grid_city
from repro.graph.graph import Graph
from repro.graph.metagraph import build_metagraph
from repro.graph.properties import check_eulerian
from repro.jobs.remote import WorkerHost
from repro.partitioning import partition
from repro.pipeline import Reconstruct, RunConfig, RunContext, Setup, run_pipeline


def _fresh(graph: Graph) -> Graph:
    """The same edges in a new Graph object (no cached CSR)."""
    return Graph(graph.n_vertices, graph.edge_u, graph.edge_v)


def _setup(graph: Graph, config: RunConfig):
    ctx = RunContext.for_graph(graph, config)
    ctx.store = FragmentStore()
    return ctx, Setup().run(graph, ctx)


def _table_bytes(graph: Graph, program) -> int:
    """The graph's endpoints plus every partition's L_i, remote-degree
    table and held rows: what a worker must receive once."""
    return (
        graph.edge_u.nbytes + graph.edge_v.nbytes
        + sum(a.nbytes for table in (program.local0, program.rdeg0, program.held0)
              for a in table.values())
    )


def test_program_drops_each_level0_table_after_its_last_reader():
    graph = grid_city(8, 8)
    ctx, program = _setup(graph, RunConfig(n_parts=4))
    assert set(program.local0) == set(program.rdeg0) == set(range(4))
    seen = []

    def compute(pid, state, messages, rec, superstep):
        res = program(pid, state, messages, rec, superstep)
        seen.append((superstep, pid, res.state,
                     set(program.local0), set(program.held0)))
        return res

    ctx.final_states, ctx.run_stats = BSPEngine().run(
        {pid: None for pid in range(4)}, compute,
        max_supersteps=len(ctx.tree.levels) + 3,
        on_commit=program.make_commit(ctx.store),
    )
    for superstep, pid, state, local0, held0 in seen:
        if superstep == 0:
            # L_i and the degree table are read once, at level 0 ...
            assert pid not in local0 and pid not in program.rdeg0
            # ... but the held rows stay until a merge consumes them, so
            # a by-reference ship can still resolve against them.
            assert pid in held0
        elif state is not None and state.level == superstep:
            assert not set(state.member_leaves) & held0
    assert program.local0 == program.rdeg0 == program.held0 == {}
    Reconstruct().run(graph, ctx)
    reference = run_pipeline(_fresh(graph), RunConfig(n_parts=4))
    np.testing.assert_array_equal(ctx.circuit.edge_ids, reference.circuit.edge_ids)


def test_deferred_extras_are_dropped_by_the_merge_they_feed():
    graph = grid_city(8, 8)
    config = RunConfig(n_parts=4, strategy="proposed")
    ctx, program = _setup(graph, config)
    assert program.extras  # the deferred strategy plans shipments
    BSPEngine().run({pid: None for pid in range(4)}, program,
                    max_supersteps=len(ctx.tree.levels) + 3,
                    on_commit=program.make_commit(ctx.store))
    assert program.extras == {}


def test_remote_coordinator_drops_each_table_at_commit(tmp_path):
    """The coordinator of a remote run never calls its program, so the
    compute-time pops never run there; the commit hook drops each table
    once the superstep that read it has committed."""
    graph = grid_city(8, 8)
    ctx, program = _setup(graph, RunConfig(n_parts=4, strategy="proposed"))
    assert program.extras and program.held0
    commit = program.make_commit(ctx.store)
    committed = []

    def on_commit(pid, rec, res, superstep):
        commit(pid, rec, res, superstep)
        committed.append((pid, superstep))
        if superstep == 0:
            assert pid not in program.local0 and pid not in program.rdeg0
        else:  # superstep 0 has committed
            assert program.local0 == program.rdeg0 == {}
        assert (pid, superstep) not in program.extras

    with WorkerHost(tmp_path / "a") as h1, WorkerHost(tmp_path / "b") as h2:
        engine = BSPEngine(executor="remote", hosts=[h1.address, h2.address])
        ctx.final_states, ctx.run_stats = engine.run(
            {pid: None for pid in range(4)}, program,
            max_supersteps=len(ctx.tree.levels) + 3, on_commit=on_commit,
        )
    assert max(step for _, step in committed) >= 1
    assert program.local0 == program.rdeg0 == program.held0 == {}
    assert program.extras == {}
    Reconstruct().run(graph, ctx)
    reference = run_pipeline(_fresh(graph), RunConfig(n_parts=4, strategy="proposed"))
    np.testing.assert_array_equal(ctx.circuit.edge_ids, reference.circuit.edge_ids)


def test_remote_coordinator_drops_level0_tables_once_installed(tmp_path):
    """The remote executor tells the program once every host holds it,
    and the coordinator's copy keeps no level-0 table or deferred
    shipment into the run."""
    graph = grid_city(8, 8)
    _, program = _setup(graph, RunConfig(n_parts=4, strategy="proposed"))
    assert program.local0 and program.rdeg0 and program.held0 and program.extras
    with WorkerHost(tmp_path / "a") as h1, WorkerHost(tmp_path / "b") as h2:
        ex = RemoteExecutor([h1.address, h2.address])
        try:
            ex.start(program)
            assert program.local0 == program.rdeg0 == program.held0 == {}
            assert program.extras == {}
        finally:
            ex.close()


def test_setup_checks_hold_their_outputs_plus_o_n():
    """Traced peaks on a scale-13 R-MAT (~4.8k vertices, ~31k edges):
    the Eulerian check holds degrees and union-find labels, ~25 bytes
    per vertex (an int64 CSR and a frontier BFS took ~490); the
    placement holds its rows and merge-level column plus byte-wide
    endpoint-part columns and one partition's temporaries, ~35 bytes per
    vertex above them (~240 with cut-sized int64 columns)."""
    if kernels.load() is None:
        pytest.skip("no working C compiler: components run on the CSR reference")
    graph = _fresh(eulerian_rmat(13, avg_degree=8.0, seed=3)[0])
    n = graph.n_vertices
    tracemalloc.start()
    try:
        check_eulerian(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph._csr is None
    assert peak <= 40 * n
    pg = partition(graph, 8, "ldg", 0)
    tree = build_merge_tree(build_metagraph(pg))
    for dedup in (False, True):
        tracemalloc.start()
        try:
            placement = plan_remote_placement(pg, tree, dedup=dedup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = placement.merge_level_by_eid.nbytes + sum(
            rows.nbytes for rows in placement.rows_for.values())
        assert peak <= outputs + 64 * n


def test_setup_keeps_no_csr_it_built():
    graph = _fresh(grid_city(6, 6))
    run_pipeline(graph, RunConfig(n_parts=4))
    assert graph._csr is None  # built for Setup, dropped with it

    cached = graph.csr  # a CSR the caller built stays the caller's
    run_pipeline(graph, RunConfig(n_parts=4))
    assert graph.csr is cached


def test_pickled_program_carries_each_table_once():
    """What a worker installs: the graph's endpoints, each partition's
    L_i, remote-degree table and held rows — no CSR, no endpoint
    partition columns, no second copy of the half-edge rows."""
    graph = _fresh(eulerian_rmat(11, avg_degree=8.0, seed=3)[0])
    _, program = _setup(graph, RunConfig(n_parts=8))
    tables = _table_bytes(graph, program)
    size = len(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
    assert tables <= size <= tables + (64 << 10)


def test_install_frame_carries_each_table_once(tmp_path):
    """A remote host receives the program as one install frame: every
    table rides out of band, straight from the program's arrays, beside
    at most 64 KiB of framing — and that frame is all the coordinator
    sends a host at start."""
    graph = _fresh(eulerian_rmat(11, avg_degree=8.0, seed=3)[0])
    _, program = _setup(graph, RunConfig(n_parts=8))
    tables = _table_bytes(graph, program)
    _, total, buffers = encode_frame({"op": "install", "program": program})
    assert buffers >= tables
    assert total - buffers <= 64 << 10
    with WorkerHost(tmp_path / "h") as host:
        ex = RemoteExecutor([host.address])
        # Every remote executor's frames share one registry series; this
        # executor's are the difference across its start.
        before = ex.wire.snapshot()
        try:
            ex.start(program)
            after = ex.wire.snapshot()
        finally:
            ex.close()
    sent = {k: after[k] - before[k] for k in after}
    assert sent["messages"] == 1
    assert (sent["bytes_total"], sent["buffer_bytes"]) == (total, buffers)


def _traced_run(monkeypatch):
    """One in-process run on a ~15k-edge R-MAT under tracemalloc, with the
    walk-table cache off (an earlier test's sighting of the same topology
    would otherwise admit tables mid-run): ``(edges, retained, peak,
    ctx)``, ``retained`` read while the run's context is still alive."""
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", 0)
    graph = _fresh(eulerian_rmat(12, avg_degree=8.0, seed=3)[0])
    tracemalloc.start()
    try:
        ctx = run_pipeline(graph, RunConfig(n_parts=8))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.circuit.n_edges == graph.n_edges
    return graph.n_edges, retained, peak, ctx


def test_run_peak_stays_within_a_per_edge_budget(monkeypatch):
    """Traced peak of one in-process run: ~85 bytes per edge with Setup's
    O(n) Eulerian check and byte-wide placement columns and 16-byte
    ItemArray rows (~93 with an int64 CSR, a frontier BFS and 32-byte
    rows; ~144 with int64 tables; ~165 with an object per fragment and a
    sorted placement; the duplicated and pinned tables before that took
    ~390)."""
    m, _, peak, _ = _traced_run(monkeypatch)
    assert peak <= 92 * m


def test_finished_run_retains_its_blocks_not_per_fragment_objects(monkeypatch):
    """What a finished run still holds (circuit, store, states, stats):
    ~42 bytes per edge with one two-column block per Phase-1 run (~59
    with four-column blocks), against ~99 with a Fragment object, a body
    view and a dict entry per fragment."""
    m, retained, _, ctx = _traced_run(monkeypatch)
    assert retained <= 48 * m
    runs = sum(CAT_PHASE1 in rec.timings
               for step in ctx.run_stats.records for rec in step)
    assert ctx.store.n_blocks == runs > 0  # one block per Phase-1 run
