"""Finished jobs keep their walks and reports, not their run's bookkeeping.

Every dispatcher (in process, forked, remote) keeps and writes the same
compacted :class:`~repro.scenarios.base.ScenarioResult`: no fragment store,
partitioned graph, meta-graph, final BSP states or scenario-private
sub-run ``meta`` — and the served document is exactly the one an
uncompacted :func:`~repro.scenarios.run_scenario` result flattens to.
"""

from __future__ import annotations

import copy
import gc
import pickle
from types import FunctionType, ModuleType

import pytest

from repro.bench.report_io import job_to_dict
from repro.core.merging import PartitionState
from repro.core.pathmap import FragmentStore
from repro.generate.synthetic import random_eulerian
from repro.graph.graph import Graph
from repro.graph.metagraph import MetaGraph
from repro.graph.partition import PartitionedGraph
from repro.jobs import DONE, GraphCatalog, JobEngine, WorkerHost
from repro.jobs.dispatch import _run_spec
from repro.pipeline import RunConfig
from repro.scenarios import run_scenario
from tests.scenarios.test_scenarios import scenario_fixture

SCENARIOS = ("circuit", "path", "components", "postman")

#: Run-time bookkeeping no finished job may keep.
_BOOKKEEPING = (FragmentStore, PartitionedGraph, MetaGraph, PartitionState,
                Graph)


def _reachable_types(root) -> set[type]:
    """Types of every object reachable from ``root``, not descending into
    the run's config (kept by design: it names the pool and catalog
    artifacts the job ran with)."""
    seen, types, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (RunConfig, type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        types.add(type(obj))
        stack.extend(gc.get_referents(obj))
    return types


def _untimed(doc):
    """``doc`` without its timing fields (wall clocks, durations, ids that
    name one run)."""
    if isinstance(doc, dict):
        return {k: _untimed(v) for k, v in doc.items()
                if not (k.endswith("seconds") or k.endswith("_at")
                        or k in ("time_split_rows", "pass_history",
                                 "trace_id", "artifact_path"))}
    if isinstance(doc, list):
        return [_untimed(v) for v in doc]
    return doc


def _with_executor(doc, name: str):
    """``doc`` with every ``executor`` field reading ``name``."""
    if isinstance(doc, dict):
        return {k: name if k == "executor" else _with_executor(v, name)
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [_with_executor(v, name) for v in doc]
    return doc


def _run_all(engine) -> dict:
    handles = {name: engine.submit(name, graph=scenario_fixture(name),
                                   config=RunConfig(n_parts=4, verify=True))
               for name in SCENARIOS}
    for h in handles.values():
        h.result(timeout=120)
    return {name: engine.job(h.job_id) for name, h in handles.items()}


def test_resident_results_hold_no_bookkeeping(tmp_path):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1) as engine:
        jobs = _run_all(engine)
    for name, job in jobs.items():
        assert job.state == DONE, (name, job.error)
        result = job.result
        for sub in result.sub_runs:
            ctx = sub.context
            assert ctx.store is None and ctx.partitioned is None, name
            assert ctx.metagraph is None and not ctx.final_states, name
            assert sub.meta == {}, name
            assert ctx.fragment_census()["n_fragments"] > 0, name
        leaked = _reachable_types(result) & set(_BOOKKEEPING)
        assert not leaked, (name, leaked)


def test_every_dispatcher_serves_the_uncompacted_document(tmp_path):
    """In process, forked and remote jobs flatten to one document, and it
    is the one a full ``run_scenario`` result flattens to. An in-process
    job on the engine's shared pool serves it too, attributed to the
    pool."""
    docs = {}
    with JobEngine(GraphCatalog(tmp_path / "thread"), dispatchers=1,
                   pool_workers=0) as engine:
        local = _run_all(engine)
    docs["thread"] = {n: job_to_dict(j) for n, j in local.items()}
    with JobEngine(GraphCatalog(tmp_path / "pooled"), dispatchers=1,
                   pool_workers=2) as engine:
        docs["pooled"] = {n: job_to_dict(j)
                          for n, j in _run_all(engine).items()}
    with JobEngine(GraphCatalog(tmp_path / "forked"), dispatchers=1,
                   dispatcher="process") as engine:
        docs["process"] = {n: job_to_dict(j)
                           for n, j in _run_all(engine).items()}
    with WorkerHost(tmp_path / "host") as host:
        with JobEngine(GraphCatalog(tmp_path / "coord"), dispatchers=1,
                       dispatcher="remote", hosts=[host.address]) as engine:
            docs["remote"] = {n: job_to_dict(j)
                              for n, j in _run_all(engine).items()}
    for name in SCENARIOS:
        full = copy.copy(local[name])
        full.result = run_scenario(scenario_fixture(name), name,
                                   RunConfig(n_parts=4, verify=True))
        assert full.result.sub_runs[0].context.store is not None
        want = _untimed(job_to_dict(full))
        for mode in ("thread", "process", "remote"):
            assert _untimed(docs[mode][name]) == want, (name, mode)
        pooled = docs["pooled"][name]
        assert pooled["job"]["executor"] == "shared-thread", name
        assert pooled["scenario_result"]["config"]["executor"] == \
            "shared-thread", name
        assert _untimed(pooled) == _with_executor(want, "shared-thread"), name


def test_forked_spec_out_is_about_the_walks(tmp_path):
    """What a forked worker (or remote host) pickles home for a circuit
    job: the walk plus small reports — not the fragment store, the
    partitioned graph and the final states (8-9x the walk before)."""
    g = random_eulerian(2000, n_walks=20, walk_len=200, seed=3)
    catalog = GraphCatalog(tmp_path / "cat")
    spec = {"job_id": "job-1", "scenario": "circuit",
            "graph_key": catalog.put(g), "config": RunConfig(n_parts=8),
            "timeout_seconds": None, "trace_id": None}
    out = _run_spec(spec, None, catalog)
    assert out["state"] == DONE, out.get("error")
    walk = out["result"].circuit
    walk_bytes = walk.vertices.nbytes + walk.edge_ids.nbytes
    assert len(pickle.dumps(out)) < 1.5 * walk_bytes
