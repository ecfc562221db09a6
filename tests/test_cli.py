"""Tests for the repro-euler CLI."""

import json

import numpy as np
import pytest

from repro import bench
from repro.bench.workloads import WorkloadSpec
from repro.cli import build_parser, main
from repro.generate.synthetic import cycle_graph, grid_city
from repro.graph.graph import Graph
from repro.graph.io import load_edge_list, save_edge_list


def test_parser_subcommands():
    p = build_parser()
    args = p.parse_args(["run", "g.txt", "--parts", "3"])
    assert args.command == "run" and args.parts == 3
    args = p.parse_args(["generate", "out.txt", "--scale", "8"])
    assert args.scale == 8
    args = p.parse_args(["experiment", "table1"])
    assert args.name == "table1"


def test_parser_job_subcommands():
    p = build_parser()
    args = p.parse_args(["serve", "--port", "9000", "--pool-workers", "0",
                         "--cache-budget-mb", "64"])
    assert args.command == "serve" and args.port == 9000
    assert args.pool_workers == 0 and args.cache_budget_mb == 64
    args = p.parse_args(["submit", "g.el", "--scenario", "postman",
                         "--priority", "2", "--wait"])
    assert args.command == "submit" and args.scenario == "postman"
    assert args.priority == 2 and args.wait
    args = p.parse_args(["status", "job-000001", "--server", "http://h:1"])
    assert args.job_id == "job-000001" and args.server == "http://h:1"
    args = p.parse_args(["jobs"])
    assert args.command == "jobs"
    args = p.parse_args(["batch", "jobs.jsonl", "--report", "rt.csv",
                         "--dispatchers", "3"])
    assert args.jobs_file == "jobs.jsonl" and args.dispatchers == 3


@pytest.mark.parametrize("argv,message", [
    (["serve", "--dispatchers", "0"], "--dispatchers must be >= 1"),
    (["serve", "--pool-workers", "-1"], "--pool-workers must be >= 0"),
    (["serve", "--dispatcher", "remote"], "--dispatcher remote requires --hosts"),
    (["batch", "jobs.jsonl", "--dispatchers", "0"], "--dispatchers must be >= 1"),
    (["serve", "--pool", "process"], "unrecognized arguments: --pool process"),
    (["batch", "jobs.jsonl", "--pool", "0"], "unrecognized arguments: --pool 0"),
    (["serve", "--keep-results", "-1"], "--keep-results must be >= 0"),
    (["serve", "--retention", "-1"], "--retention must be >= 0"),
    (["serve", "--max-queued", "-1"], "--max-queued must be >= 0"),
    (["serve", "--max-retries", "-1"], "--max-retries must be >= 0"),
    (["serve", "--cache-budget-mb", "-1"], "--cache-budget-mb must be >= 0"),
    (["serve", "--drain-timeout", "-1"], "--drain-timeout must be >= 0"),
    (["serve", "--timeout", "-1"], "--timeout must be > 0"),
    (["serve", "--timeout", "0"], "--timeout must be > 0"),
    (["serve", "--hang-timeout", "-1"], "--hang-timeout must be > 0"),
    (["serve", "--hang-timeout", "0"], "--hang-timeout must be > 0"),
], ids=["serve-dispatchers-0", "serve-pool-workers-negative",
        "serve-remote-without-hosts", "batch-dispatchers-0", "serve-pool",
        "batch-pool-is-no-prefix", "serve-keep-results-negative",
        "serve-retention-negative", "serve-max-queued-negative",
        "serve-max-retries-negative", "serve-cache-budget-negative",
        "serve-drain-timeout-negative", "serve-timeout-negative",
        "serve-timeout-0", "serve-hang-timeout-negative",
        "serve-hang-timeout-0"])
def test_bad_engine_settings_are_usage_errors(tmp_path, capsys, monkeypatch,
                                             argv, message):
    """A setting the job engine would refuse exits 2 with one usage line,
    before any catalog, engine or socket exists."""

    def no_server(*args, **kwargs):
        raise AssertionError("the server started")

    monkeypatch.setattr("repro.jobs.server.serve_forever", no_server)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-root", str(tmp_path / "cat")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {message}" in err
    assert not (tmp_path / "cat").exists()


def test_cli_batch_end_to_end(tmp_path, capsys):
    save_edge_list(grid_city(6, 6), tmp_path / "g.el")
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(
        f'{{"input": "{tmp_path / "g.el"}", "scenario": "circuit", '
        f'"config": {{"n_parts": 4}}, "repeat": 2}}\n'
    )
    rc = main(["batch", str(jobs), "--report", str(tmp_path / "rt.csv"),
               "--cache-root", str(tmp_path / "cat")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2/2 jobs DONE" in out
    header, *rows = (tmp_path / "rt.csv").read_text().splitlines()
    assert header.startswith("job_id,scenario,")
    assert len(rows) == 2


def test_generate_then_run(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["generate", str(out), "--scale", "8", "--seed", "1"]) == 0
    g = load_edge_list(out)
    assert g.n_edges > 0
    circ_file = tmp_path / "circuit.txt"
    rc = main(
        ["run", str(out), "--parts", "3", "--verify", "--out", str(circ_file)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "supersteps" in printed
    verts = np.loadtxt(circ_file, dtype=np.int64)
    assert verts.shape[0] == g.n_edges + 1


def test_run_with_strategy(tmp_path, capsys):
    out = tmp_path / "g.txt"
    save_edge_list(grid_city(6, 6), out)
    rc = main(["run", str(out), "--strategy", "proposed", "--verify"])
    assert rc == 0
    assert "closed=True" in capsys.readouterr().out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def _fake_workload(monkeypatch, spec_parts=3):
    """Register a tiny named workload so `run <name>` avoids generation."""
    g = grid_city(5, 5)
    spec = WorkloadSpec("tiny", 4, 2.0, n_parts=spec_parts)
    monkeypatch.setitem(bench.PAPER_WORKLOADS, "tiny", spec)
    monkeypatch.setattr(bench, "load_workload", lambda name: (g, spec))
    return g, spec


def test_explicit_parts_four_wins_over_workload_spec(monkeypatch, capsys):
    # Regression: "--parts 4" used to be indistinguishable from "not given"
    # (a `!= 4` sentinel) and was silently replaced by the workload spec.
    _fake_workload(monkeypatch, spec_parts=3)
    assert main(["run", "tiny", "--parts", "4"]) == 0
    assert "partitions=4" in capsys.readouterr().out


def test_omitted_parts_uses_workload_spec(monkeypatch, capsys):
    _fake_workload(monkeypatch, spec_parts=3)
    assert main(["run", "tiny"]) == 0
    assert "partitions=3" in capsys.readouterr().out


def test_run_scenario_path(tmp_path, capsys):
    f = tmp_path / "p.txt"
    save_edge_list(Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (1, 3)]), f)
    report = tmp_path / "path.json"
    rc = main(["run", str(f), "--scenario", "path", "--parts", "2",
               "--verify", "--report-json", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "path: 4 edges, closed=False" in out
    doc = json.loads(report.read_text())
    assert doc["artifact"] == "scenario" and doc["scenario"] == "path"
    assert doc["metrics"]["n_virtual_edges"] == 1


def test_run_scenario_components_out_and_report(tmp_path, capsys):
    f = tmp_path / "c.txt"
    save_edge_list(
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        f,
    )
    report = tmp_path / "comp.json"
    walk_file = tmp_path / "walks.txt"
    rc = main(["run", str(f), "--scenario", "components", "--parts", "4",
               "--verify", "--report-json", str(report),
               "--out", str(walk_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("circuit: 3 edges") == 2
    doc = json.loads(report.read_text())
    assert doc["metrics"]["n_components"] == 2
    assert doc["n_parts_allocated"] == 4
    # Two closed walks, split by comment headers (np.loadtxt skips them).
    assert len(np.loadtxt(walk_file, dtype=np.int64)) == 8
    headers = [ln for ln in walk_file.read_text().splitlines()
               if ln.startswith("#")]
    assert headers == ["# walk 0: 3 edges", "# walk 1: 3 edges"]


def test_named_scenario_workload_defaults_to_its_scenario(monkeypatch, capsys):
    # Regression: `run POSTMAN/RMAT` used to run the circuit scenario on the
    # deliberately non-Eulerian graph and crash with NotEulerianError.
    from repro.bench.workloads import ScenarioWorkloadSpec

    g = cycle_graph(8)  # every scenario accepts it
    spec = ScenarioWorkloadSpec("tinypost", "postman", 4, 2.0, n_parts=2)
    monkeypatch.setitem(bench.SCENARIO_WORKLOADS, "tinypost", spec)
    monkeypatch.setattr(bench, "load_scenario_workload",
                        lambda name: (g, spec))
    assert main(["run", "tinypost"]) == 0
    out = capsys.readouterr().out
    assert "postman:" in out and "partitions=2" in out
    # An explicit --scenario still wins over the workload default.
    assert main(["run", "tinypost", "--scenario", "components"]) == 0
    out = capsys.readouterr().out
    assert "components:" in out and "postman:" not in out


def test_run_scenario_postman_process_backend(tmp_path, capsys):
    f = tmp_path / "np.txt"
    save_edge_list(grid_city(4, 4, torus=False), f)
    report = tmp_path / "postman.json"
    rc = main(["run", str(f), "--scenario", "postman", "--executor", "process",
               "--workers", "2", "--verify", "--report-json", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["scenario"] == "postman"
    assert doc["config"]["executor"] == "process"
    assert doc["metrics"]["n_revisits"] >= 0
    assert doc["sub_runs"][0]["run"]["circuit"]["verified"]


def test_run_circuit_report_json_stays_run_artifact(tmp_path):
    f = tmp_path / "g.txt"
    save_edge_list(cycle_graph(8), f)
    report = tmp_path / "run.json"
    assert main(["run", str(f), "--verify", "--report-json", str(report)]) == 0
    doc = json.loads(report.read_text())
    # Back-compat: the circuit scenario writes the single-run artifact.
    assert doc["artifact"] == "run"
    assert doc["circuit"]["verified"]


def test_postman_subcommand_full_flags(tmp_path, capsys):
    """Every flag the removed ``postman`` subcommand took rides
    ``run --scenario postman``; ``postman`` itself is no command."""
    f = tmp_path / "g.txt"
    save_edge_list(grid_city(4, 4, torus=False), f)
    report = tmp_path / "route.json"
    rc = main(["run", str(f), "--scenario", "postman", "--parts", "2",
               "--partitioner", "hash", "--strategy", "proposed",
               "--executor", "thread", "--workers", "2", "--verify",
               "--report-json", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "closed=True" in out
    assert "n_revisits=" in out and "deadhead_fraction=" in out
    doc = json.loads(report.read_text())
    assert doc["config"]["partitioner"] == "hash"
    assert doc["config"]["strategy"] == "proposed"
    assert doc["config"]["executor"] == "thread"
    with pytest.raises(SystemExit) as exc:
        main(["postman", str(f)])
    assert exc.value.code == 2
    assert "invalid choice: 'postman'" in capsys.readouterr().err
