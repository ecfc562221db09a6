"""Self-tests of the end-to-end benchmark, on tiny inputs."""

from __future__ import annotations

import json
import math

import pytest

import compare
import run
import stats
import tracing
import workloads
from repro.core.circuit import EulerCircuit


def tiny(cache) -> list:
    """The four workloads, shrunk to graphs of a few hundred edges."""
    circuit = lambda s: workloads.eulerian_rmat_graph(s, 8, 4.0)  # noqa: E731
    return [
        workloads.InProcess("circuit-rmat500k", "circuit", 4, circuit, "t-rmat",
                            prepared=2, cache=cache),
        workloads.InProcess("circuit-remote", "circuit", 4, circuit, "t-rmat",
                            hosts=2, prepared=2, cache=cache),
        workloads.InProcess("postman-rmat", "postman", 2,
                            lambda s: workloads.rmat_component(s, 7, 3.0), "t-pm",
                            prepared=2, cache=cache),
        workloads.Serve(scale=6, rate=40.0, cache=cache),
    ]


@pytest.mark.parametrize("index", range(4), ids=["circuit", "remote", "postman", "serve"])
def test_every_workload_emits_every_benchmark_metric(tmp_path, index):
    workload = tiny(tmp_path)[index]
    workload.prepare(3)
    seconds = 0.6 if workload.name == "serve-mixed" else 0.3  # two request blocks
    rec = workloads.run_window(workload, 3, seconds, tmp_path / "w",
                               trace_id=f"{workload.name}/0")
    assert rec["ops"] and all(op["ok"] for op in rec["ops"])
    bench = stats.load_benchmark()
    assert {op["traced"] for op in rec["ops"]} == {False, True}
    measured = {"end_to_end": stats.end_to_end([rec["setup_s"]], rec, 0),
                "per_layer": stats.layers(rec)}
    assert set(measured["per_layer"]) == set(stats.LAYERS)
    for group, values in measured.items():
        for m in bench[group]:
            assert values[m["name"]]["unit"] == m["unit"], m["name"]
            assert math.isfinite(values[m["name"]]["value"]), m["name"]
    assert measured["end_to_end"]["run_s"]["value"] > 0
    assert measured["per_layer"]["trace.self_coverage_frac"]["value"] > 0.5
    # The traced pass splits into untraced and traced halves over the same work.
    assert measured["per_layer"]["trace.overhead_frac"]["n"] >= 1
    if workload.name != "serve-mixed":
        halves = {}
        for op in rec["ops"]:
            halves.setdefault(op["input"], []).append(op["traced"])
        assert all(sorted(h) == [False, True] for h in halves.values())


def test_swapped_edge_ids_fail_the_run(tmp_path, monkeypatch):
    real = workloads.run_scenario

    def corrupt(graph, scenario, config):
        result = real(graph, scenario, config)
        walk = result.circuits[0]
        ids = walk.edge_ids.copy()
        ids[[0, ids.size // 2]] = ids[[ids.size // 2, 0]]
        result.circuits[0] = EulerCircuit(vertices=walk.vertices, edge_ids=ids)
        return result

    def in_process(workload, seed, seconds, mode, trace_id, tmp, deadline):
        return workloads.run_window(workloads.WORKLOADS[workload], seed, seconds,
                                    tmp / mode, mode, trace_id)

    monkeypatch.setattr(workloads, "run_scenario", corrupt)
    monkeypatch.setattr(workloads, "WORKLOADS", {"circuit-rmat500k": tiny(tmp_path)[0]})
    monkeypatch.setattr(workloads, "CACHE", tmp_path)
    monkeypatch.setattr(run, "spawn", in_process)
    monkeypatch.setattr(run, "box", lambda: dict.fromkeys(run.BOX_COLUMNS, 0))
    out = tmp_path / "out"
    code = run.main(["--workload", "circuit-rmat500k", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0", "--out", str(out)])
    assert code != 0
    (record,) = json.loads((out / "results.json").read_text())["runs"]
    assert record["end_to_end"]["fail_frac"]["value"] == 1.0
    assert record["failed"] == record["attempted"]
    assert (out / "run_table.csv").read_text().count("\n") == 2


def test_self_time_subtracts_the_union_of_child_spans():
    def span(i, parent, name, start, end):
        return {"trace": "t/0", "id": i, "parent": parent, "name": name,
                "start": start, "end": end}

    spans = [span(0, None, "op", 0.0, 10.0),
             span(1, 0, "a", 1.0, 4.0),
             span(2, 0, "b", 3.0, 6.0),   # overlaps a: covered once
             span(3, 1, "c", 2.0, 3.0),
             span(4, 0, "a", 8.0, 9.0)]
    assert tracing.self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    (op,) = tracing.layer_totals(spans)
    assert op["self"] == {"a": 3.0, "b": 3.0, "c": 1.0}
    assert op["total"]["a"] == 4.0 and op["calls"]["a"] == 2


def test_traced_pass_restores_every_wrapped_name(tmp_path):
    def current():
        out = []
        for module, attr, _ in tracing.TARGETS:
            owner, key = tracing._owner(module, attr)
            out.append(owner.__dict__[key] if isinstance(owner, type)
                       else getattr(owner, key))
        return out

    before = current()
    rec = workloads.run_window(tiny(tmp_path)[2], 3, 0.05, tmp_path / "w",
                               trace_id="postman-rmat/0")
    assert {"pipeline.setup", "scenarios.postman.matching",
            "graph.traversal.bfs"} <= {s["name"] for s in rec["spans"]}
    with pytest.raises(RuntimeError):
        with tracing.Tracer("x/0").installed():
            raise RuntimeError("interrupted traced pass")
    assert all(a is b for a, b in zip(current(), before))


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], 0.1, "lower")[0] == "regressed"
    assert compare.verdict([10, 10.1, 9.9], [10.2, 10.3, 10.1], 0.1, "lower")[0] == "unchanged"
    assert compare.verdict([5, 10, 15], [12, 13, 14], 0.1, "higher")[0] == "unresolved"
    a = [(2.0 * i, 10.0 + 0.01 * i) for i in range(10)]
    b = [(2.0 * i + (1 if i % 2 == 0 else -1) * 0.5, 9.0) for i in range(10)]
    assert compare.claim(a, b, "lower")[0]
    always_second = [(t + 0.5, 9.0) for t, _ in a]
    assert not compare.claim(a, always_second, "lower")[0]
    assert not compare.claim(a[:9], b[:9], "lower")[0]
