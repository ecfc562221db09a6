"""Incremental repair parity: repaired runs are bit-identical to cold runs.

The contract under test: for any Eulerian-preserving delta,
``repair(base, delta)`` produces the *same bits* as a full recompute of
``apply(base, delta)`` pinned to the session's partition map — across
executor backends — and a delta that breaks the Eulerian invariant makes
both paths raise the identical typed error.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.deltas import GraphDelta, RepairSession
from repro.errors import DisconnectedGraphError, NotEulerianError
from repro.generate.eulerize import eulerian_rmat
from repro.pipeline.context import RunConfig
from repro.scenarios.base import run_scenario

from tests.deltas.util import detour_delta, ring, superposed_cycles
from tests.helpers import fragment_census


def _circuits_equal(a, b):
    assert len(a.circuits) == len(b.circuits)
    for ca, cb in zip(a.circuits, b.circuits):
        assert np.array_equal(ca.vertices, cb.vertices)
        assert np.array_equal(ca.edge_ids, cb.edge_ids)


def _repair_vs_cold(graph, delta, cfg, threshold=1.0):
    """Capture on ``graph``, advance, then warm-vs-cold on the child."""
    session = RepairSession(threshold=threshold)
    run_scenario(graph, "circuit", replace(cfg, repair=session))
    session.advance(delta)
    child = delta.apply(graph)
    warm = run_scenario(child, "circuit", replace(cfg, repair=session))
    cold = run_scenario(
        child, "circuit",
        replace(cfg, derived=session.derived_entry(child, cfg)),
    )
    _circuits_equal(warm, cold)
    return session


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(12, 48),
    k=st.integers(1, 4),
    executor=st.sampled_from(["serial", "thread"]),
)
def test_repair_bit_identical_to_recompute(seed, n, k, executor):
    g = superposed_cycles(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    eids = rng.choice(g.n_edges, size=min(k, g.n_edges), replace=False)
    delta = detour_delta(g, eids)
    cfg = RunConfig(n_parts=4, executor=executor, workers=2)
    session = _repair_vs_cold(g, delta, cfg)
    assert session.last_report["decision"] == "repair"
    assert session.hits + session.misses > 0


def test_repair_bit_identical_on_process_executor():
    # Capture on the thread-friendly default backend (worker-side
    # captures are discarded), then repair under process fan-out.
    g = superposed_cycles(24, seed=7)
    delta = detour_delta(g, [2, 9])
    session = RepairSession(threshold=1.0)
    base_cfg = RunConfig(n_parts=4)
    run_scenario(g, "circuit", replace(base_cfg, repair=session))
    session.advance(delta)
    child = delta.apply(g)
    proc_cfg = RunConfig(n_parts=4, executor="process", workers=2)
    warm = run_scenario(child, "circuit", replace(proc_cfg, repair=session))
    cold = run_scenario(
        child, "circuit",
        replace(proc_cfg, derived=session.derived_entry(child, proc_cfg)),
    )
    _circuits_equal(warm, cold)


def test_disconnecting_delta_raises_identically():
    g = ring(12)
    session = RepairSession()
    cfg = RunConfig(n_parts=3)
    run_scenario(g, "circuit", replace(cfg, repair=session))
    # splits the 12-cycle into two disjoint cycles: degrees stay even,
    # connectivity breaks
    delta = GraphDelta.from_edits(
        g, insert=np.array([[1, 6], [7, 0]]), delete_eids=np.array([0, 6]))
    session.advance(delta)
    child = delta.apply(g)
    with pytest.raises(DisconnectedGraphError):
        run_scenario(child, "circuit", replace(cfg, repair=session))
    with pytest.raises(DisconnectedGraphError):
        run_scenario(child, "circuit",
                     replace(cfg, derived=session.derived_entry(child, cfg)))


def test_parity_flipping_delta_raises_identically():
    g = ring(12)
    session = RepairSession()
    cfg = RunConfig(n_parts=3)
    run_scenario(g, "circuit", replace(cfg, repair=session))
    delta = GraphDelta.from_edits(g, insert=np.array([[0, 1]]))  # odd degrees
    session.advance(delta)
    child = delta.apply(g)
    with pytest.raises(NotEulerianError):
        run_scenario(child, "circuit", replace(cfg, repair=session))
    with pytest.raises(NotEulerianError):
        run_scenario(child, "circuit",
                     replace(cfg, derived=session.derived_entry(child, cfg)))


def test_threshold_forces_recompute_and_stays_correct():
    g = superposed_cycles(30, seed=5)
    cfg = RunConfig(n_parts=4)
    session = _repair_vs_cold(g, detour_delta(g, [0]), cfg, threshold=0.0)
    report = session.last_report
    assert report["decision"] == "recompute"
    assert report["dirty_fraction"] > 0.0


def test_repair_report_counters():
    g = superposed_cycles(60, seed=0)
    session = RepairSession()
    cfg = RunConfig(n_parts=6)
    run_scenario(g, "circuit", replace(cfg, repair=session))
    report = session.advance(detour_delta(g, [5]))
    assert report["decision"] == "repair"
    assert report["dirty_parts"] and report["cached_nodes"] > 0
    child = detour_delta(g, [5]).apply(g)
    run_scenario(child, "circuit", replace(cfg, repair=session))
    rep = session.report()
    assert rep["hits"] > 0 and rep["replayed_fragments"] > 0
    assert rep["misses"] >= 1  # the dirty partition itself re-ran


def test_one_edge_repair_re_runs_one_leaf_and_its_ancestors():
    """A street closed on a 32-part R-MAT: what repair skips, as a count.

    The detour dirties partitions 0 and 1. Of the merge tree's 63 nodes,
    leaf 0 and its five ancestors re-run. Leaf 1 is dirty too, but its
    edge table and remote degrees are unchanged, so it replays.
    """
    g, _ = eulerian_rmat(12, avg_degree=4.0, seed=7)
    eid = np.random.default_rng(0).choice(g.n_edges, size=1, replace=False)
    cfg = RunConfig(n_parts=32, partitioner="ldg", seed=0)
    session = _repair_vs_cold(g, detour_delta(g, eid), cfg, threshold=0.5)
    report = session.report()
    assert report["decision"] == "repair"
    assert report["dirty_parts"] == [0, 1]
    assert (report["misses"], report["hits"]) == (6, 57)


def test_replayed_blocks_equal_the_cold_blocks_byte_for_byte():
    """A replayed node installs its cached block remapped into the child's
    eid space: every ItemArray row, direction bit included, equals what
    the cold run wrote, not only the circuits built from them."""
    g = superposed_cycles(40, seed=11)
    delta = detour_delta(g, [3, 17])
    session = RepairSession(threshold=1.0)
    cfg = RunConfig(n_parts=4)
    run_scenario(g, "circuit", replace(cfg, repair=session))
    session.advance(delta)
    child = delta.apply(g)
    warm = run_scenario(child, "circuit", replace(cfg, repair=session))
    cold = run_scenario(child, "circuit",
                        replace(cfg, derived=session.derived_entry(child, cfg)))
    assert session.hits > 0
    assert (fragment_census(warm.sub_runs[0].context.store, bodies=True)
            == fragment_census(cold.sub_runs[0].context.store, bodies=True))


def test_advance_without_capture_reports_recompute():
    g = superposed_cycles(20, seed=2)
    session = RepairSession()
    report = session.advance(detour_delta(g, [1]))
    assert report["decision"] == "recompute"
    assert report["reason"] == "no capture to repair from"
