"""Watch jobs: lifecycle, artifact trail, restart survival, compaction."""

from __future__ import annotations

import gc
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import FaultInjectedError
from repro.faults import FaultPlan
from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.journal import reduce_watches
from repro.pipeline.context import RunConfig
from repro.scenarios.base import SCENARIOS, register_scenario, run_scenario
from repro.scenarios.circuit import CircuitScenario

from tests.deltas.util import detour_delta, superposed_cycles


def _engine(tmp_path, **kw):
    kw.setdefault("dispatchers", 2)
    kw.setdefault("pool_kind", "thread")
    kw.setdefault("pool_workers", 2)
    return JobEngine(GraphCatalog(tmp_path / "cat"),
                     artifact_dir=tmp_path / "art",
                     journal=tmp_path / "journal", **kw)


def test_watch_emits_bit_identical_repairs(tmp_path):
    g0 = superposed_cycles(60)
    with _engine(tmp_path) as eng:
        k0 = eng.catalog.put(g0, name="base")
        w = eng.add_watch(k0, name="w0", threshold=0.5)
        assert w["id"].startswith("watch-")
        out1 = eng.mutate_graph(k0, detour_delta(g0, [5]))
        k1 = out1["graph_key"]
        assert out1["base_key"] == k0
        info1 = out1["watches"][w["id"]]
        assert eng.handle(info1["job_id"]).result() is not None
        g1 = eng.catalog.get(k1)
        out2 = eng.mutate_graph(k1, detour_delta(g1, [11]))
        info2 = out2["watches"][w["id"]]
        assert info2["decision"] == "repair"
        res = eng.handle(info2["job_id"]).result()
        # bit-compare against a cold recompute pinned to the same map
        sess = eng._watches[w["id"]]["session"]
        g2 = eng.catalog.get(out2["graph_key"])
        cfg = RunConfig()
        cold = run_scenario(g2, "circuit",
                            replace(cfg, derived=sess.derived_entry(g2, cfg)))
        a, b = res.circuits[0], cold.circuits[0]
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.edge_ids, b.edge_ids)
        # the decision and the session counters reach the artifact
        doc = eng.artifact_doc(info2["job_id"])
        passes = {p["pass"] for p in doc["pass_history"]}
        assert {"repair_decision", "repair"} <= passes
        rep = next(p for p in doc["pass_history"] if p["pass"] == "repair")
        assert rep["hits"] > 0 and rep["decision"] == "repair"
        stats = eng.supervisor_stats()
        assert stats["watches"] == 1 and stats["mutations"] == 2
        assert stats["watch_emissions"] == 2
        summary = eng.watch_summary(w["id"])
        assert summary["mutations"] == 2
        assert summary["graph_key"] == out2["graph_key"]
        assert summary["last_repair"]["decision"] == "repair"


def test_mutation_without_watches_still_catalogs(tmp_path):
    g0 = superposed_cycles(20, seed=3)
    with _engine(tmp_path, dispatchers=1) as eng:
        k0 = eng.catalog.put(g0)
        out = eng.mutate_graph(k0, detour_delta(g0, [0]))
        assert out["watches"] == {}
        assert out["graph_key"] in eng.catalog
        assert out["delta"]["n_inserts"] == 2


def test_mutation_fault_leaves_watch_and_catalog_untouched(tmp_path):
    g0 = superposed_cycles(30, seed=1)
    with _engine(tmp_path, dispatchers=1) as eng:
        k0 = eng.catalog.put(g0)
        w = eng.add_watch(k0)
        before = set(eng.catalog.keys())
        with pytest.raises(FaultInjectedError):
            eng.mutate_graph(k0, detour_delta(g0, [0]),
                             faults=FaultPlan.parse("delta_apply"))
        assert set(eng.catalog.keys()) == before
        assert eng.watch_summary(w["id"])["mutations"] == 0


def test_delete_watch_stops_emissions(tmp_path):
    g0 = superposed_cycles(20, seed=6)
    with _engine(tmp_path, dispatchers=1) as eng:
        k0 = eng.catalog.put(g0)
        w = eng.add_watch(k0)
        eng.delete_watch(w["id"])
        assert eng.watches() == []
        with pytest.raises(KeyError):
            eng.watch_summary(w["id"])
        out = eng.mutate_graph(k0, detour_delta(g0, [0]))
        assert out["watches"] == {}


def test_deleted_watch_frees_its_repair_session(tmp_path):
    """A watch's session (its per-partition Phase-1 captures) dies with the
    watch: retained emission jobs and their resident results keep none."""
    g0 = superposed_cycles(20, seed=7)
    with _engine(tmp_path, dispatchers=1, keep_results=8) as eng:
        k0 = eng.catalog.put(g0)
        w = eng.add_watch(k0)
        out = eng.mutate_graph(k0, detour_delta(g0, [0]))
        job_id = out["watches"][w["id"]]["job_id"]
        assert eng.handle(job_id).result() is not None
        session = weakref.ref(eng._watches[w["id"]]["session"])
        eng.delete_watch(w["id"])
        gc.collect()
        assert session() is None
        assert eng.job(job_id).result is not None  # still resident


class _Gate(CircuitScenario):
    """A circuit that waits for ``open`` before reducing: it holds the
    only dispatcher, so jobs submitted behind it stay QUEUED."""

    name = "test-gate"

    def __init__(self):
        self.open = threading.Event()

    def reduce(self, graph, config):
        self.open.wait(60)
        return super().reduce(graph, config)


def test_cancelled_queued_emission_frees_the_session(tmp_path):
    gate = register_scenario(_Gate())
    try:
        g0 = superposed_cycles(20, seed=8)
        with _engine(tmp_path, dispatchers=1) as eng:
            k0 = eng.catalog.put(g0)
            busy = eng.submit(gate.name, graph_key=k0)
            w = eng.add_watch(k0)
            out = eng.mutate_graph(k0, detour_delta(g0, [0]))
            job_id = out["watches"][w["id"]]["job_id"]
            assert eng.cancel(job_id) and eng.job(job_id).state == "CANCELLED"
            session = weakref.ref(eng._watches[w["id"]]["session"])
            eng.delete_watch(w["id"])
            gate.open.set()
            assert busy.result(timeout=60) is not None
            gc.collect()
            assert session() is None
    finally:
        gate.open.set()
        SCENARIOS.pop(gate.name, None)


def test_watch_survives_restart(tmp_path):
    g0 = superposed_cycles(40, seed=2)
    with _engine(tmp_path, dispatchers=1) as eng:
        k0 = eng.catalog.put(g0)
        w = eng.add_watch(k0, name="persistent")
        out = eng.mutate_graph(k0, detour_delta(g0, [3]))
        k1 = out["graph_key"]
        assert eng.handle(out["watches"][w["id"]]["job_id"]).result() \
            is not None
        wid = w["id"]
    with _engine(tmp_path, dispatchers=1) as eng2:
        assert eng2.recovery_stats["watches"] == 1
        rec = eng2.watch_summary(wid)
        assert rec["recovered"] and rec["graph_key"] == k1
        # the repair cache is deliberately not journaled: the first
        # post-restart emission is a cold capture (full recompute)
        g1 = eng2.catalog.get(k1)
        out2 = eng2.mutate_graph(k1, detour_delta(g1, [7]))
        info = out2["watches"][wid]
        assert info["decision"] == "recompute"
        assert eng2.handle(info["job_id"]).result() is not None


def test_checkpoint_compacts_watch_records(tmp_path):
    g = superposed_cycles(30, seed=4)
    with _engine(tmp_path, dispatchers=1) as eng:
        k = eng.catalog.put(g)
        w = eng.add_watch(k)
        for _ in range(3):
            out = eng.mutate_graph(
                k, detour_delta(eng.catalog.get(k), [1]))
            k = out["graph_key"]
            eng.handle(out["watches"][w["id"]]["job_id"]).result()
        eng.journal.checkpoint()
        recs = eng.journal.replay()
        advances = [r for r in recs if r["event"] == "watch_advanced"]
        assert len(advances) == 1  # only the latest head survives
        assert advances[0]["graph_key"] == k
        state = reduce_watches(recs)[w["id"]]
        assert not state["deleted"] and state["graph_key"] == k
        assert state["mutations"] == 1  # counters restart from the keep-set
        eng.delete_watch(w["id"])
        eng.journal.checkpoint()
        assert not any(r["event"].startswith("watch_")
                       for r in eng.journal.replay())
