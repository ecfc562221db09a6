"""Tests for the scenario layer: registry, budgets, batch execution, parity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.report_io import SCHEMA_VERSION, scenario_to_dict
from repro.core import find_euler_circuit
from repro.errors import NotEulerianError
from repro.generate.eulerize import open_path_variant
from repro.generate.synthetic import (
    cycle_graph,
    disjoint_union,
    grid_city,
    random_eulerian,
)
from repro.graph.graph import Graph
from repro.pipeline import RunConfig
from repro.core.circuit import verify_circuit
from repro.scenarios import (
    SCENARIOS,
    allocate_parts,
    get_scenario,
    run_scenario,
    scenario_names,
)


# Shared fixture helper (also imported by test_postprocess_properties).
union_graph = disjoint_union


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_has_all_four():
    assert scenario_names() == ["circuit", "components", "path", "postman"]
    for name in scenario_names():
        assert get_scenario(name).name == name
        assert SCENARIOS[name] is get_scenario(name)


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("nope")
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario(cycle_graph(4), "nope")


# ---------------------------------------------------------------------------
# Budget allocation (the confirmed overshoot bug)
# ---------------------------------------------------------------------------

def test_allocation_confirmed_overshoot_case():
    # Reproduced bug: round() allocated 5 parts for n_parts=4 with one
    # 12-edge and three 3-edge components.
    shares = allocate_parts(4, [12, 3, 3, 3])
    assert shares.tolist() == [1, 1, 1, 1]
    assert int(shares.sum()) == 4


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 16),
    st.lists(st.integers(1, 10_000), min_size=1, max_size=12),
)
def test_allocation_invariants(n_parts, weights):
    shares = allocate_parts(n_parts, weights)
    # Exact total: the budget, or one-per-item when items outnumber it.
    assert int(shares.sum()) == max(len(weights), n_parts)
    assert int(shares.min()) >= 1
    # Quota fidelity (the largest-remainder property): beyond the one-part
    # minimum, every item sits within 1 of its proportional share.
    extra = n_parts - len(weights)
    if extra > 0:
        quota = extra * np.asarray(weights, dtype=float) / sum(weights)
        assert bool(np.all(np.abs((shares - 1) - quota) < 1.0))


def test_allocation_empty_and_single():
    assert allocate_parts(4, []).size == 0
    assert allocate_parts(8, [100]).tolist() == [8]


def test_components_never_overallocate():
    # One 12-edge + three 3-edge components, n_parts=4 (the confirmed case):
    # the executed sub-runs must spend exactly 4 partitions.
    comps = [cycle_graph(12), cycle_graph(3), cycle_graph(3), cycle_graph(3)]
    g = union_graph(*comps)
    res = run_scenario(g, "components", RunConfig(n_parts=4, verify=True))
    assert res.n_parts_allocated == 4
    assert [s.n_parts for s in res.sub_runs] == [1, 1, 1, 1]
    assert res.metrics["n_parts_allocated"] == 4


# ---------------------------------------------------------------------------
# Scenario semantics through the pipeline
# ---------------------------------------------------------------------------

def test_circuit_scenario_matches_driver():
    g = random_eulerian(60, n_walks=5, walk_len=20, seed=3)
    res = run_scenario(g, "circuit", RunConfig(n_parts=4, verify=True))
    direct = find_euler_circuit(g, n_parts=4)
    assert np.array_equal(res.circuit.vertices, direct.circuit.vertices)
    assert np.array_equal(res.circuit.edge_ids, direct.circuit.edge_ids)
    assert res.sub_runs[0].context.verified


def test_path_scenario_rejects_many_odd():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotEulerianError):
        run_scenario(g, "path")


def test_empty_graph_every_scenario():
    g = Graph(5)
    for name in scenario_names():
        res = run_scenario(g, name, RunConfig(n_parts=2))
        assert sum(c.n_edges for c in res.circuits) == 0


def test_scenario_result_circuit_property_guards_batches():
    g = union_graph(cycle_graph(3), cycle_graph(4))
    res = run_scenario(g, "components", RunConfig(n_parts=2))
    assert len(res.circuits) == 2
    with pytest.raises(ValueError, match="2 walks"):
        _ = res.circuit


def test_reports_and_artifact_per_sub_run():
    g = union_graph(cycle_graph(5), cycle_graph(7))
    res = run_scenario(g, "components", RunConfig(n_parts=4, verify=True))
    assert len(res.reports) == 2
    assert all(rep.n_supersteps >= 1 for rep in res.reports)
    doc = scenario_to_dict(res)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["artifact"] == "scenario"
    assert doc["scenario"] == "components"
    assert [s["run"]["artifact"] for s in doc["sub_runs"]] == ["run", "run"]
    assert all(s["run"]["circuit"]["verified"] for s in doc["sub_runs"])
    assert doc["n_parts_allocated"] == 4


def test_spill_dir_namespaced_per_component(tmp_path):
    g = union_graph(cycle_graph(6), cycle_graph(8))
    res = run_scenario(
        g, "components", RunConfig(n_parts=2, spill_dir=str(tmp_path))
    )
    # Each sub-run spilled into its own directory: structured fids repeat
    # across sub-runs, so shared files would collide.
    subdirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert subdirs == ["component-0", "component-1"]
    assert sum(c.n_edges for c in res.circuits) == g.n_edges


# ---------------------------------------------------------------------------
# Executor parity: all four scenarios, bit-identical across backends
# ---------------------------------------------------------------------------

def scenario_fixture(name: str) -> Graph:
    if name == "circuit":
        return random_eulerian(50, n_walks=4, walk_len=16, seed=9)
    if name == "path":
        return open_path_variant(
            random_eulerian(50, n_walks=4, walk_len=16, seed=9)
        )
    if name == "components":
        return union_graph(
            random_eulerian(30, n_walks=3, walk_len=12, seed=1),
            cycle_graph(9),
            random_eulerian(20, n_walks=2, walk_len=10, seed=2),
        )
    if name == "postman":
        return grid_city(6, 5, torus=False)
    raise AssertionError(name)


@pytest.mark.parametrize("name", ["circuit", "path", "components", "postman"])
def test_backend_parity(name):
    g = scenario_fixture(name)
    results = {}
    for executor, workers in (("serial", 1), ("thread", 3), ("process", 2)):
        res = run_scenario(
            g, name,
            RunConfig(n_parts=4, executor=executor, workers=workers,
                      verify=True),
        )
        results[executor] = res.circuits
    base = results["serial"]
    for executor in ("thread", "process"):
        walks = results[executor]
        assert len(walks) == len(base)
        for a, b in zip(base, walks):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.edge_ids, b.edge_ids)


def test_components_process_fanout_parity():
    g = scenario_fixture("components")
    serial = run_scenario(g, "components", RunConfig(n_parts=6))
    # executor="process", workers>1, >1 sub-problems => fan-out across a
    # process pool (one pipeline per component, serial inside).
    fan = run_scenario(
        g, "components",
        RunConfig(n_parts=6, executor="process", workers=2, verify=True),
    )
    assert [s.key for s in fan.sub_runs] == [s.key for s in serial.sub_runs]
    for a, b in zip(serial.circuits, fan.circuits):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.edge_ids, b.edge_ids)
    # Fan-out workers ship full artifacts back.
    assert all(s.context.run_stats.n_supersteps >= 1 for s in fan.sub_runs)


# ---------------------------------------------------------------------------
# Walk validity end to end
# ---------------------------------------------------------------------------

def test_path_walk_valid():
    g = scenario_fixture("path")
    res = run_scenario(g, "path", RunConfig(n_parts=3, verify=True))
    p = res.circuit
    assert not p.is_closed
    verify_circuit(g, p, require_closed=False)


def test_postman_walk_covers_grid():
    g = scenario_fixture("postman")
    res = run_scenario(g, "postman", RunConfig(n_parts=4, verify=True))
    walk = res.circuit
    counts = np.bincount(walk.edge_ids, minlength=g.n_edges)
    assert bool((counts >= 1).all())
    assert walk.is_closed
    assert res.metrics["n_revisits"] == walk.n_edges - g.n_edges


#: sha256 (first 16 hex digits) over the plan's little-endian int64
#: ``dup_u``, ``dup_v``, ``dup_orig`` bytes plus ``n_odd_vertices``, for the
#: largest component of ``rmat_graph(scale, avg_degree, seed)``, recorded
#: with the reference matching (a full BFS per odd vertex, then a
#: FIFO-queue ``bfs_tree`` per pair). Catalogs persist plans, so these
#: must not change.
_PLAN_DIGESTS = {
    (8, 3.0, 1): "ff94ad307f524220",
    (8, 3.0, 2): "2856feb9625bd68c",
    (9, 3.0, 3): "9d061527978f9969",
    (9, 2.5, 4): "d4bf613e266f855f",
    (10, 3.0, 5): "eada56b1f2f4d59c",
    (10, 4.0, 6): "3e984d6d65270664",
    (12, 3.0, 1): "d202b16775646b03",
}


@pytest.mark.parametrize("scale,avg_degree,seed", sorted(_PLAN_DIGESTS))
def test_eulerize_plan_is_pinned(scale, avg_degree, seed):
    import hashlib

    from repro.generate.eulerize import largest_component
    from repro.generate.rmat import rmat_graph
    from repro.scenarios.postman import eulerize_plan

    g = largest_component(rmat_graph(scale, avg_degree=avg_degree,
                                     seed=seed))[0]
    plan = eulerize_plan(g)
    h = hashlib.sha256()
    for name in ("dup_u", "dup_v", "dup_orig"):
        h.update(np.ascontiguousarray(plan[name], dtype="<i8").tobytes())
    h.update(str(plan["n_odd_vertices"]).encode())
    assert h.hexdigest()[:16] == _PLAN_DIGESTS[(scale, avg_degree, seed)]
