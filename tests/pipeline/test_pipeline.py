"""Tests for the staged pipeline: stages, RunContext artifact, serialization."""

import json

import numpy as np
import pytest

from repro.bench.report_io import SCHEMA_VERSION, context_to_dict, save_context
from repro.core import find_euler_circuit, verify_circuit
from repro.core.pathmap import FragmentStore
from repro.generate.synthetic import grid_city, paper_figure1_graph
from repro.graph.graph import Graph
from repro.pipeline import (
    Reconstruct,
    RunConfig,
    RunContext,
    Setup,
    run_pipeline,
)
from tests.helpers import fragment_census


@pytest.fixture()
def grid():
    return grid_city(6, 6)


def test_run_pipeline_fills_every_stage(grid):
    ctx = run_pipeline(grid, RunConfig(n_parts=4, verify=True))
    # Setup products
    assert ctx.n_parts == 4
    assert ctx.partitioned is not None and ctx.tree is not None
    assert ctx.metagraph is not None
    assert ctx.setup_seconds >= 0
    # BSP-run products
    assert ctx.run_stats.n_supersteps == 3
    assert len(ctx.store) > 0
    # Reconstruct products
    assert ctx.verified
    verify_circuit(grid, ctx.circuit)
    assert ctx.schema_version == SCHEMA_VERSION


def test_stages_compose_manually(grid):
    """The stages are reusable units: driving them by hand matches the
    one-shot runner."""
    from repro.bsp.engine import BSPEngine

    config = RunConfig(n_parts=4)
    ctx = RunContext.for_graph(grid, config)
    ctx.store = FragmentStore()
    program = Setup().run(grid, ctx)
    states = {pid: None for pid in range(ctx.n_parts)}
    ctx.final_states, ctx.run_stats = BSPEngine().run(
        states,
        program,
        max_supersteps=len(ctx.tree.levels) + 3,
        on_commit=program.make_commit(ctx.store),
    )
    Reconstruct().run(grid, ctx)

    auto = run_pipeline(grid, config)
    assert np.array_equal(ctx.circuit.vertices, auto.circuit.vertices)
    assert np.array_equal(ctx.circuit.edge_ids, auto.circuit.edge_ids)


def test_empty_graph_short_circuits():
    ctx = run_pipeline(Graph(5), RunConfig())
    assert ctx.circuit.n_edges == 0
    assert ctx.n_parts == 0 and ctx.run_stats.n_supersteps == 0
    assert ctx.report.n_supersteps == 0


def test_report_derived_from_context(grid):
    res = find_euler_circuit(grid, n_parts=4)
    ctx = res.context
    rep = ctx.report
    assert rep.n_parts == ctx.n_parts
    assert rep.n_supersteps == ctx.run_stats.n_supersteps
    assert rep.total_seconds >= rep.compute_seconds
    assert rep.stage_dag() == res.report.stage_dag()


def test_context_to_dict_artifact(grid, tmp_path):
    res = find_euler_circuit(
        grid, n_parts=4, executor="thread", engine_workers=2, verify=True
    )
    d = context_to_dict(res.context)
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["config"]["executor"] == "thread"
    assert d["config"]["workers"] == 2
    assert d["graph"] == {"n_vertices": 36, "n_edges": 72}
    assert d["circuit"]["n_edges"] == 72 and d["circuit"]["verified"]
    assert d["fragments"]["n_cycles"] >= 1
    path = save_context(res.context, tmp_path / "artifact.json")
    back = json.loads(path.read_text())
    assert back["schema_version"] == SCHEMA_VERSION


def test_deferred_resident_longs_recorded():
    g, _ = paper_figure1_graph()
    ctx = run_pipeline(g, RunConfig(n_parts=4, strategy="proposed"))
    longs = ctx.deferred_resident_longs
    # One entry per level boundary, monotonically drained to zero.
    assert longs and longs[-1] == 0
    assert all(a >= b for a, b in zip(longs, longs[1:]))
    assert ctx.report.deferred_resident_longs == longs


def test_structured_fids_are_unique_and_level_tagged(grid):
    from repro.core.pathmap import make_fid

    res = find_euler_circuit(grid, n_parts=4)
    census = fragment_census(res.store)
    fids = [row[0] for row in census]
    assert len(fids) == len(set(fids))
    for fid, _, level, pid, *_ in census:
        # fid encodes (level, pid): reconstructible without coordination.
        seq = fid & 0xFFFFFFFF
        assert fid == make_fid(level, pid, seq)
