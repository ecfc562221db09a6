"""Phase-1 walk-table cache: reuse must be invisible to the algorithm.

The cache keys the immutable CSR walk tables by topology content hash and
reuses them across runs (same partition across supersteps, same graph
across served jobs). It is one LRU per process, shared by every thread,
and admits a table on its second sighting only. These tests pin the
contract: cached and freshly-built tables produce bit-identical walks, the
cache never serves tables for a *different* topology, mutation of per-run
state never bleeds into a cached table, the byte budget and the seen-set
cap hold, threads share tables safely, a fork never inherits a held lock,
and the kill-switch really kills it.
"""

from __future__ import annotations

import os
import signal
import sys
import threading

import numpy as np
import pytest

from repro.core import find_euler_circuit, phase1
from repro.core.pathmap import FragmentStore
from repro.core.phase1 import edge_table, remote_deg_table, run_phase1
from repro.generate.synthetic import grid_city, random_eulerian
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts with an empty process-wide table cache."""
    phase1._reset_cache()
    yield
    phase1._reset_cache()


def _tables_of(edges, rdeg):
    return phase1._walk_tables(edge_table(edges), remote_deg_table(rdeg))


def _sight_twice(edges, rdeg):
    """Build then admit: the admission rule needs a second sighting."""
    _tables_of(edges, rdeg)
    return _tables_of(edges, rdeg)


def _workload():
    g = random_eulerian(40, 4, 12, seed=5)
    edges = np.column_stack([
        g.edge_u, g.edge_v,
        np.zeros(g.n_edges, np.int64),
        np.arange(g.n_edges, dtype=np.int64),
    ])
    rdeg = {int(v): 2 for v in range(0, g.n_vertices, 7)}
    return edges, rdeg


def _census(store):
    return sorted(
        (f.fid, f.kind, f.level, f.pid, f.src, f.dst, f.n_edges,
         np.asarray(f.items).tobytes())
        for f in store.all_fragments()
    )


def test_second_run_hits_the_cache_and_matches(monkeypatch):
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    edges, rdeg = _workload()
    t1 = _sight_twice(edges, rdeg)
    t2 = _tables_of(edges, rdeg)
    assert t2 is t1  # identity: the third build was skipped entirely

    runs = []
    for _ in range(3):
        store = FragmentStore()
        pm, stats = run_phase1(1, 0, edges, rdeg, store, validate=True)
        runs.append((pm.ob_paths.tobytes(), pm.anchored_cycles.tobytes(),
                     stats, _census(store)))
    assert runs[0] == runs[1] == runs[2]


def test_distinct_topologies_do_not_collide(monkeypatch):
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    edges, rdeg = _workload()
    variant = edges.copy()
    variant[0, 0], variant[0, 1] = variant[0, 1], variant[0, 0]  # flip an edge
    t1 = _sight_twice(edges, rdeg)
    t2 = _sight_twice(variant, rdeg)
    assert t2 is not t1
    # Same topology, different remote degrees: also distinct tables.
    t3 = _sight_twice(edges, {**rdeg, 1: 4})
    assert t3 is not t1
    assert _tables_of(edges, rdeg) is t1  # each keeps its own slot


def test_kill_switch_disables_caching(monkeypatch):
    monkeypatch.setenv("REPRO_PHASE1_TABLE_CACHE", "0")
    edges, rdeg = _workload()
    t1, t2, t3 = (_tables_of(edges, rdeg) for _ in range(3))
    assert t2 is not t1 and t3 is not t2
    assert not phase1._cache.tables and not phase1._cache.seen

    store_a, store_b = FragmentStore(), FragmentStore()
    pm_a, _ = run_phase1(1, 0, edges, rdeg, store_a, validate=True)
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    pm_b, _ = run_phase1(1, 0, edges, rdeg, store_b, validate=True)
    assert pm_a.ob_paths.tobytes() == pm_b.ob_paths.tobytes()
    assert _census(store_a) == _census(store_b)


def _cached_bytes():
    held = sum(t.nbytes for t in phase1._cache.tables.values())
    assert held == phase1._cache.held  # the running total stays exact
    return held


def test_oversized_tables_are_not_cached(monkeypatch):
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", 64)
    edges, rdeg = _workload()
    t1, t2, t3 = (_tables_of(edges, rdeg) for _ in range(3))
    assert t2 is not t1 and t3 is not t2  # above the budget: built fresh
    assert _cached_bytes() == 0


def test_lru_bound_holds(monkeypatch):
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    base, rdeg = _workload()
    one = phase1._build_walk_tables(edge_table(base), remote_deg_table(rdeg))
    budget = 16 * (2 * one.nbytes)  # every table is admitted; ~32 fit
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", budget)
    for shift in range(40):
        variant = base.copy()
        variant[:, 0] = (variant[:, 0] + shift) % 40
        variant[:, 1] = (variant[:, 1] + shift) % 40
        _sight_twice(variant, rdeg)
        assert _cached_bytes() <= budget
    assert 1 <= len(phase1._cache.tables) < 40


def test_tables_above_a_sixteenth_of_the_budget_are_not_cached(monkeypatch):
    """A repeat run only hits if all its tables survive, so a table larger
    than budget/16 is never admitted: it would pin memory for nothing."""
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    edges, rdeg = _workload()
    one = phase1._build_walk_tables(edge_table(edges), remote_deg_table(rdeg))
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", 16 * one.nbytes - 16)
    _sight_twice(edges, rdeg)
    assert _cached_bytes() == 0
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", 16 * one.nbytes)
    t1 = _sight_twice(edges, rdeg)
    assert _tables_of(edges, rdeg) is t1
    assert _cached_bytes() == one.nbytes


def test_byte_budget_bounds_dense_tables_over_a_large_id_space(monkeypatch):
    """Dense tables are O(id space), not O(edges): a few edges among ids
    near 2^16 make ~1 MB tables, and the byte budget must still hold."""
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    budget = 16 << 20  # ~0.5 MB tables: each admitted, ~32 fit
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", budget)
    top = (1 << 16) - 1
    for k in range(40):
        edges = np.array([[top - k, top - k - 1, 0, 0],
                          [top - k - 1, top - k, 0, 1]], dtype=np.int64)
        t = _sight_twice(edges, {})
        assert t.vert_ids is None and t.m == 2  # dense, tiny m
        assert t.nbytes > 100_000 * t.m
        assert _cached_bytes() <= budget
    assert 1 <= len(phase1._cache.tables) < 40


def test_end_to_end_circuit_identical_across_cached_runs():
    g = grid_city(6, 6)
    first = find_euler_circuit(g, n_parts=4, seed=0, validate=True)
    second = find_euler_circuit(g, n_parts=4, seed=0, validate=True)
    np.testing.assert_array_equal(first.circuit.vertices,
                                  second.circuit.vertices)
    np.testing.assert_array_equal(first.circuit.edge_ids,
                                  second.circuit.edge_ids)


def _counts(registry):
    snap = registry.counter("repro_walk_cache_events_total",
                            labelnames=("result",)).snapshot()
    return {key[0]: int(v) for key, v in snap.items()}


def test_a_table_is_admitted_on_its_second_sighting(monkeypatch):
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    edges, rdeg = _workload()
    registry = MetricsRegistry()
    with use_registry(registry):
        t1 = _tables_of(edges, rdeg)
        assert _cached_bytes() == 0  # first sighting: built, not admitted
        t2 = _tables_of(edges, rdeg)
        assert t2 is not t1 and _cached_bytes() == t2.nbytes  # admitted
        assert _tables_of(edges, rdeg) is t2
    assert _counts(registry) == {"miss": 2, "hit": 1}
    assert registry.gauge("repro_walk_cache_bytes").value == t2.nbytes


def test_threads_share_admitted_tables(monkeypatch):
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    edges, rdeg = _workload()
    variant = edges[::-1].copy()
    seen = []

    def on_thread(fn):
        worker = threading.Thread(target=lambda: seen.append(fn()))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        return seen[-1]

    t1 = _sight_twice(edges, rdeg)
    assert on_thread(lambda: _tables_of(edges, rdeg)) is t1
    # Sightings count per process: one on a thread, one here, admits.
    on_thread(lambda: _tables_of(variant, rdeg))
    t2 = _tables_of(variant, rdeg)
    assert on_thread(lambda: _tables_of(variant, rdeg)) is t2


def test_concurrent_walks_match_a_serial_reference(monkeypatch):
    """Eight threads walk shared and private topologies at once under a
    budget small enough to evict: every walk equals the uncached serial
    walk, and the held bytes never pass the budget."""
    base, rdeg = _workload()

    def variant(shift):
        v = base.copy()
        v[:, :2] = (v[:, :2] + shift) % 40
        return v

    shared = [variant(s) for s in range(3)]
    private = [[variant(100 + 2 * k), variant(101 + 2 * k)] for k in range(8)]

    def walk(edges):
        store = FragmentStore()
        pm, stats = run_phase1(1, 0, edges, rdeg, store, validate=True)
        return pm.ob_paths.tobytes(), pm.anchored_cycles.tobytes(), stats, \
            _census(store)

    monkeypatch.setenv("REPRO_PHASE1_TABLE_CACHE", "0")
    reference = {e.tobytes(): walk(e) for e in shared + sum(private, [])}
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE")
    one = phase1._build_walk_tables(edge_table(base), remote_deg_table(rdeg))
    budget = 16 * 4 * one.nbytes  # ~4 tables fit: admissions evict
    monkeypatch.setattr(phase1, "_TABLE_CACHE_BYTES", budget)

    start = threading.Barrier(8)
    errors = []

    def worker(k):
        start.wait()
        for _ in range(6):
            for edges in shared + private[k]:
                if walk(edges) != reference[edges.tobytes()]:
                    errors.append(f"thread {k}: walk differs")
                with phase1._cache.lock:
                    if phase1._cache.held > budget:
                        errors.append(f"held {phase1._cache.held} > {budget}")

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' dict updates
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 0 < _cached_bytes() <= budget  # and the running total is exact


def test_seen_set_stays_within_its_cap(monkeypatch):
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    monkeypatch.setattr(phase1, "_SEEN_CAP", 8)
    base, rdeg = _workload()
    variants = []
    for shift in range(20):
        v = base.copy()
        v[:, :2] = (v[:, :2] + shift) % 40
        variants.append(v)
        _tables_of(v, rdeg)
        assert len(phase1._cache.seen) <= 8
    assert all(len(tag) == 16 for tag in phase1._cache.seen)
    # The oldest sightings fell out: seen again, they count as first.
    _tables_of(variants[0], rdeg)
    assert _cached_bytes() == 0
    # A recent one is remembered: its second sighting admits it.
    _tables_of(variants[-1], rdeg)
    assert len(phase1._cache.tables) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_while_another_thread_holds_the_cache_lock(monkeypatch):
    """A fork can land while a pool thread holds the lock (the forked
    dispatcher and process pools fork a threaded parent); the child
    must start with a fresh lock and an empty cache, and still walk."""
    monkeypatch.delenv("REPRO_PHASE1_TABLE_CACHE", raising=False)
    edges, rdeg = _workload()
    _sight_twice(edges, rdeg)
    expected = run_phase1(1, 0, edges, rdeg, FragmentStore())[0].ob_paths
    holding, release = threading.Event(), threading.Event()

    def hold():
        with phase1._cache.lock:
            holding.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert holding.wait(10)
        pid = os.fork()
        if pid == 0:  # the child: exit status reports what it saw
            code = 1
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(10)  # a deadlocked child dies here
                if phase1._cache.tables:
                    code = 2
                else:
                    pm, _ = run_phase1(1, 0, edges, rdeg, FragmentStore(),
                                       validate=True)
                    same = pm.ob_paths.tobytes() == expected.tobytes()
                    code = 0 if same else 3
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert os.WIFEXITED(status), "child deadlocked on the inherited lock"
    assert os.WEXITSTATUS(status) == 0
