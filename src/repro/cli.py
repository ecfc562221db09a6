"""Command-line interface: ``repro-euler`` (or ``python -m repro.cli``).

Subcommands
-----------
``run``
    Run a scenario (``circuit`` | ``path`` | ``components`` | ``postman``)
    on an edge-list file or a named workload and print the execution
    report; optionally write the walk(s) and the run artifact out.
``generate``
    Produce an eulerized R-MAT graph as an edge-list file.
``experiment``
    Regenerate one of the paper's tables/figures by name (``table1``,
    ``fig4`` ... ``fig9``, ``supersteps``, ``baselines``, ``ablations``).
``serve``
    Long-lived JSON-over-HTTP job server: graph catalog + shared-pool
    scheduler (see :mod:`repro.jobs`). With ``--dispatcher remote`` it
    becomes the coordinator of a multi-host cluster (``--hosts``).
    ``GET /metrics`` serves the whole stack's metrics registry in
    Prometheus text format (see :mod:`repro.obs`).
``worker``
    One worker host process serving BSP supersteps and whole jobs to a
    remote-mode coordinator (see :mod:`repro.jobs.remote`).
``submit`` / ``status`` / ``jobs``
    HTTP clients for a running ``serve`` instance: queue a job on an input
    file, poll one job, list all jobs.
``mutate`` / ``watch``
    Dynamic graphs against a running server: ``mutate`` applies an edge
    delta to a cataloged graph (``PATCH /graphs/<key>``); ``watch``
    manages watch jobs — a pinned (graph, scenario) pair that re-emits an
    incrementally repaired result after every mutation.
``batch``
    Execute a JSONL job file through a local job engine and write a
    ``run_table.csv``-style report (one row per job).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .bsp import EXECUTORS
from .generate.eulerize import eulerian_rmat
from .graph.io import load_edge_list, save_edge_list
from .pipeline import RunConfig
from .scenarios import run_scenario, scenario_names

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table1": lambda: bench.table1(),
    "fig4": lambda: bench.fig4_degree_distribution(),
    "fig5": lambda: bench.fig5_weak_scaling(),
    "fig6": lambda: bench.fig6_time_split(),
    "fig7": lambda: bench.fig7_phase1_complexity(),
    "fig8": lambda: bench.fig8_memory_state(),
    "fig9": lambda: bench.fig9_vertex_census(),
    "supersteps": lambda: bench.supersteps_experiment(),
    "baselines": lambda: bench.baselines_experiment(),
    "ablations": lambda: (bench.ablation_matching(), bench.ablation_partitioner()),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and ``--help`` docs)."""
    p = argparse.ArgumentParser(
        prog="repro-euler",
        description="Partition-centric distributed Euler circuits "
        "(Jaiswal & Simmhan, IPDPS 2019 workshops).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario (default: Euler circuit)")
    run.add_argument("input", help="edge-list file, or workload name like "
                                   "G40k/P8 or POSTMAN/RMAT")
    # default=None so an explicit "--parts 4" is distinguishable from "not
    # given" (named workloads supply their own default otherwise).
    run.add_argument("--parts", type=int, default=None,
                     help="number of partitions (default: 4, or the named "
                          "workload's spec)")
    # default=None: an omitted --scenario falls back to the named workload's
    # own scenario (POSTMAN/RMAT runs postman), or circuit for files.
    run.add_argument("--scenario", default=None,
                     choices=scenario_names(),
                     help="workload shape (default: circuit, or the named "
                          "workload's scenario)")
    run.add_argument("--partitioner", default="ldg",
                     choices=("ldg", "bfs", "hash", "random"))
    run.add_argument("--strategy", default="eager",
                     choices=("eager", "dedup", "deferred", "proposed"))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--executor", default=None,
                     choices=sorted(EXECUTORS),
                     help="BSP backend (default: serial, or thread when "
                          "--workers > 1)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker count for the thread/process backends")
    run.add_argument("--hosts", default=None,
                     help="remote executor: comma-separated worker host "
                          "addresses (each runs `repro-euler worker`)")
    run.add_argument("--verify", action="store_true",
                     help="verify the produced walk(s)")
    run.add_argument("--report-json",
                     help="write the full run artifact as JSON here")
    run.add_argument("--out", help="write the walk vertex sequence(s) here")

    gen = sub.add_parser("generate", help="generate an eulerized R-MAT graph")
    gen.add_argument("output", help="edge-list file to write")
    gen.add_argument("--scale", type=int, default=14, help="log2 vertex count")
    gen.add_argument("--avg-degree", type=float, default=5.0)
    gen.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))

    # No prefix matching on serve and batch: ``--pool`` must not parse as
    # ``--pool-workers``.
    serve = sub.add_parser(
        "serve", help="run the long-lived job server (graph catalog + "
                      "shared-pool scheduler, JSON HTTP API; GET /metrics "
                      "serves Prometheus text)", allow_abbrev=False)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--cache-root", default=".graph_catalog",
                       help="graph catalog directory (default: .graph_catalog)")
    serve.add_argument("--cache-budget-mb", type=float, default=None,
                       help="evict least-recently-used graphs beyond this "
                            "on-disk budget")
    serve.add_argument("--artifact-dir", default=None,
                       help="write one durable job artifact JSON per job "
                            "here (default: <cache-root>/artifacts — the "
                            "artifact index backs evicted-job status "
                            "lookups)")
    serve.add_argument("--dispatchers", type=int, default=2,
                       help="concurrent jobs (dispatcher threads or forked "
                            "worker processes)")
    serve.add_argument("--dispatcher", default="thread",
                       choices=("thread", "process", "remote"),
                       help="job dispatch mode: in-process threads, one "
                            "pre-forked worker process per dispatcher "
                            "(graphs read through the catalog's mmap, true "
                            "multi-core), or a coordinator scheduling over "
                            "remote worker hosts (--hosts)")
    serve.add_argument("--hosts", default=None,
                       help="remote mode: comma-separated worker host "
                            "addresses, e.g. 10.0.0.1:9701,10.0.0.2:9701 "
                            "(each runs `repro-euler worker`)")
    serve.add_argument("--keep-results", type=int, default=64,
                       help="terminal jobs keeping their in-memory result "
                            "(older results served from the artifact dir)")
    serve.add_argument("--retention", type=int, default=256,
                       help="terminal jobs kept in the in-memory registry; "
                            "older ones answer status from the artifact "
                            "index (0: unbounded)")
    serve.add_argument("--max-queued", type=int, default=128,
                       help="queued-job backpressure bound; submissions "
                            "beyond it get HTTP 429 (0: unbounded)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-job run deadline in seconds "
                            "(jobs may override via timeout_seconds)")
    serve.add_argument("--pool-workers", type=int, default=4,
                       help="threads in the shared superstep pool of thread "
                            "mode (0: no pool; each job builds the backend "
                            "its config names)")
    serve.add_argument("--journal-dir", default=None,
                       help="crash-safe job journal directory (default: "
                            "<cache-root>/journal; 'none' disables — "
                            "acknowledged jobs then do not survive kill -9)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="default transient-failure retries per job "
                            "(killed/hung workers, broken pools; jobs may "
                            "override via max_retries)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="SIGTERM graceful-drain budget in seconds: stop "
                            "intake (503), let running jobs finish, "
                            "checkpoint the journal")
    serve.add_argument("--hang-timeout", type=float, default=None,
                       help="process mode: seconds of worker heartbeat "
                            "silence before the worker is killed and the "
                            "job retried (default: disabled)")

    worker = sub.add_parser(
        "worker", help="run one worker host process (serves BSP supersteps "
                       "and whole jobs to a remote-mode coordinator over a "
                       "length-prefixed binary protocol)")
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0,
                        help="listen port (0: pick a free port and print it)")
    worker.add_argument("--cache-root", default=".worker_catalog",
                        help="this host's graph catalog shard directory")
    worker.add_argument("--port-file", default=None,
                        help="write 'host port pid' here once listening "
                             "(for scripted loopback clusters)")

    def add_server_arg(sp):
        sp.add_argument("--server", default="http://127.0.0.1:8642",
                        help="base URL of a running `repro-euler serve`")

    submit = sub.add_parser("submit", help="submit a job to a running server")
    submit.add_argument("input", help="edge-list or .npz file (server-local "
                                      "path), or a cataloged graph key with "
                                      "--graph-key")
    submit.add_argument("--graph-key", action="store_true",
                        help="treat INPUT as a graph key already in the "
                             "server's catalog")
    submit.add_argument("--scenario", default="circuit",
                        choices=scenario_names())
    submit.add_argument("--parts", type=int, default=4)
    submit.add_argument("--partitioner", default="ldg",
                        choices=("ldg", "bfs", "hash", "random"))
    submit.add_argument("--strategy", default="eager",
                        choices=("eager", "dedup", "deferred", "proposed"))
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument("--verify", action="store_true")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-job run deadline in seconds")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print its "
                             "final state")
    add_server_arg(submit)

    status = sub.add_parser("status", help="one job's status from a server")
    status.add_argument("job_id")
    add_server_arg(status)

    jobs = sub.add_parser("jobs", help="list all jobs on a server")
    add_server_arg(jobs)

    mutate = sub.add_parser(
        "mutate", help="apply an edge delta to a cataloged graph "
                       "(watches on it re-emit repaired results)")
    mutate.add_argument("graph_key", help="base graph key in the server's "
                                          "catalog")
    mutate.add_argument("--insert", action="append", default=[],
                        metavar="U,V",
                        help="edge to insert, as 'u,v' (repeatable; "
                             "endpoints beyond |V| grow the graph)")
    mutate.add_argument("--delete-eid", action="append", default=[],
                        type=int, metavar="EID",
                        help="edge id to delete (repeatable)")
    mutate.add_argument("--name", default="",
                        help="display name for the mutated graph")
    add_server_arg(mutate)

    watch = sub.add_parser(
        "watch", help="manage watch jobs: pin a (graph, scenario) pair so "
                      "every mutation re-emits a repaired result")
    watch.add_argument("graph_key", nargs="?", default=None,
                       help="create a watch on this cataloged graph key "
                            "(omit with --list/--delete)")
    watch.add_argument("--scenario", default="circuit",
                       choices=scenario_names())
    watch.add_argument("--parts", type=int, default=4)
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument("--threshold", type=float, default=0.5,
                       help="dirty-partition fraction above which an "
                            "emission falls back to full recompute")
    watch.add_argument("--list", action="store_true",
                       help="list the server's watches")
    watch.add_argument("--delete", default=None, metavar="WATCH_ID",
                       help="tear down one watch")
    add_server_arg(watch)

    batch = sub.add_parser(
        "batch", help="run a JSONL job file locally and write a run-table CSV",
        allow_abbrev=False)
    batch.add_argument("jobs_file", help="one JSON job spec per line")
    batch.add_argument("--report", default="run_table.csv",
                       help="CSV report path (one row per job)")
    batch.add_argument("--cache-root", default=".graph_catalog")
    batch.add_argument("--artifact-dir", default=None)
    batch.add_argument("--dispatchers", type=int, default=2,
                       help="concurrent jobs (dispatcher threads)")
    batch.add_argument("--pool-workers", type=int, default=4,
                       help="threads in the shared superstep pool (0: no "
                            "pool; each job builds the backend its config "
                            "names)")
    return p


#: ``serve``/``batch`` settings the job engine refuses below a floor, as
#: ``(attribute, flag, positive)``: ``positive`` needs > 0, else >= 0.
_ENGINE_BOUNDS = (
    ("pool_workers", "--pool-workers", False),
    ("keep_results", "--keep-results", False),
    ("retention", "--retention", False),
    ("max_queued", "--max-queued", False),
    ("max_retries", "--max-retries", False),
    ("cache_budget_mb", "--cache-budget-mb", False),
    ("drain_timeout", "--drain-timeout", False),
    ("timeout", "--timeout", True),
    ("hang_timeout", "--hang-timeout", True),
)


def _check_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject job-engine settings it would refuse, as a usage error."""
    if getattr(args, "dispatchers", 1) < 1:
        parser.error("--dispatchers must be >= 1")
    if args.command in ("serve", "batch"):
        for attr, flag, positive in _ENGINE_BOUNDS:
            value = getattr(args, attr, None)
            if value is not None and (value <= 0 if positive else value < 0):
                parser.error(f"{flag} must be {'> 0' if positive else '>= 0'}")
    if getattr(args, "dispatcher", None) == "remote" and not args.hosts:
        parser.error("--dispatcher remote requires --hosts")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    if args.command == "generate":
        g, info = eulerian_rmat(args.scale, avg_degree=args.avg_degree, seed=args.seed)
        save_edge_list(g, args.output)
        print(
            f"wrote {args.output}: |V|={g.n_vertices} |E|={g.n_edges} "
            f"(+{100 * info.added_fraction:.1f}% eulerization edges)"
        )
        return 0
    if args.command == "experiment":
        _EXPERIMENTS[args.name]()
        return 0
    if args.command in ("serve", "worker", "submit", "status", "jobs",
                        "batch", "mutate", "watch"):
        return _jobs_main(args)
    # run
    g, default_parts, default_scenario = _load_run_input(args.input)
    n_parts = args.parts if args.parts is not None else default_parts
    scenario = args.scenario if args.scenario is not None else default_scenario
    config = RunConfig(
        n_parts=n_parts,
        partitioner=args.partitioner,
        strategy=args.strategy,
        seed=args.seed,
        executor=args.executor,
        workers=args.workers,
        hosts=args.hosts,
        verify=args.verify,
    )
    result = run_scenario(g, scenario, config)
    _print_scenario(result)
    if args.report_json:
        if scenario == "circuit":
            # The established single-run artifact (back-compat for tooling
            # that reads RunContext JSON).
            from .bench.report_io import save_context

            path = save_context(result.sub_runs[0].context, args.report_json)
        else:
            from .bench.report_io import save_scenario

            path = save_scenario(result, args.report_json)
        print(f"wrote run artifact to {path}")
    for sub in result.sub_runs:
        for row in sub.report.state_by_level():
            print(
                f"  level {row['level']}: partitions={row['n_partitions']} "
                f"state={row['cumulative_longs']:,} Longs "
                f"(avg {row['avg_longs']:,.0f})"
            )
    if args.out:
        _write_walks(args.out, result.circuits)
        print(f"wrote walk vertex sequence to {args.out}")
    return 0


def _jobs_main(args) -> int:
    """The job-orchestration subcommands (imported lazily: stdlib http etc.)."""
    from .jobs import GraphCatalog, JobEngine, load_job_specs, run_batch, write_report_csv
    from .jobs.client import JobClient

    if args.command == "worker":
        from .jobs.remote import worker_serve

        worker_serve(args.host, args.port, args.cache_root,
                     port_file=args.port_file)
        return 0
    if args.command == "serve":
        from pathlib import Path

        from .jobs.server import serve_forever

        budget = (
            int(args.cache_budget_mb * 1024 * 1024)
            if args.cache_budget_mb is not None
            else None
        )
        # The artifact index is what answers status lookups for jobs the
        # bounded registry evicted — default it on rather than off.
        artifact_dir = args.artifact_dir or str(Path(args.cache_root) / "artifacts")
        # Same stance for the journal: crash safety should be the default
        # for a long-lived server, opt-out rather than opt-in.
        journal_dir = (
            None if args.journal_dir == "none"
            else args.journal_dir or str(Path(args.cache_root) / "journal")
        )
        engine = JobEngine(
            GraphCatalog(args.cache_root, size_budget_bytes=budget),
            dispatchers=args.dispatchers,
            dispatcher=args.dispatcher,
            pool_workers=args.pool_workers,
            artifact_dir=artifact_dir,
            keep_results=args.keep_results,
            retention=args.retention or None,
            max_queued=args.max_queued or None,
            default_timeout=args.timeout,
            journal=journal_dir,
            default_max_retries=args.max_retries,
            hang_timeout=args.hang_timeout,
            hosts=args.hosts,
        )
        recovered = engine.recovery_stats
        if recovered["requeued"] or recovered["reconciled"] or recovered["failed"]:
            print(f"repro-euler serve: recovered journal — "
                  f"requeued={recovered['requeued']} "
                  f"reconciled={recovered['reconciled']} "
                  f"failed={recovered['failed']}")
        serve_forever(engine, args.host, args.port,
                      drain_timeout=args.drain_timeout)
        return 0
    if args.command == "batch":
        engine = JobEngine(
            GraphCatalog(args.cache_root),
            dispatchers=args.dispatchers,
            pool_workers=args.pool_workers,
            artifact_dir=args.artifact_dir,
        )
        with engine:
            rows = run_batch(load_job_specs(args.jobs_file), engine)
            path = write_report_csv(rows, args.report)
        done = sum(1 for r in rows if r["state"] == "DONE")
        print(f"batch: {done}/{len(rows)} jobs DONE -> {path}")
        for r in rows:
            print(f"  {r['job_id']} {r['scenario']:<10} {r['state']:<9} "
                  f"queue={r['queue_latency_s']:.3f}s wall={r['run_wall_s']:.3f}s "
                  f"{r['throughput_edges_per_s']:,.0f} edges/s")
        return 0 if done == len(rows) else 1
    client = JobClient(args.server)
    if args.command == "mutate":
        insert = []
        for text in args.insert:
            u, _, v = text.partition(",")
            insert.append((int(u), int(v)))
        out = client.mutate(args.graph_key, insert=insert or None,
                            delete_eids=args.delete_eid or None,
                            name=args.name)
        d = out["delta"]
        print(f"mutated {out['base_key']} -> {out['graph_key']} "
              f"(+{d['n_inserts']}/-{d['n_deletes']} edges, "
              f"|V| {d['n_vertices_before']} -> {d['n_vertices_after']})")
        for wid, info in sorted(out.get("watches", {}).items()):
            print(f"  {wid}: {info['decision']} -> job {info['job_id']}")
        return 0
    if args.command == "watch":
        if args.delete:
            client.delete_watch(args.delete)
            print(f"deleted {args.delete}")
            return 0
        if args.list or args.graph_key is None:
            listed = client.watches()
            if not listed:
                print("no watches")
                return 0
            print(f"{'ID':<14} {'SCENARIO':<11} {'GRAPH':<18} "
                  f"{'MUTATIONS':>9} {'LAST JOB':<12}")
            for w in listed:
                print(f"{w['id']:<14} {w['scenario']:<11} "
                      f"{w['graph_key']:<18} {w['mutations']:>9} "
                      f"{w['last_job_id'] or '-':<12}")
            return 0
        w = client.create_watch(
            args.graph_key, scenario=args.scenario,
            config={"n_parts": args.parts, "seed": args.seed},
            threshold=args.threshold)
        print(f"created {w['id']} on {w['graph_key']} ({w['scenario']})")
        return 0
    if args.command == "submit":
        config = {
            "n_parts": args.parts,
            "partitioner": args.partitioner,
            "strategy": args.strategy,
            "seed": args.seed,
            "workers": args.workers,
            "verify": args.verify,
        }
        if args.graph_key:
            sub = client.submit(args.scenario, graph_key=args.input,
                                config=config, priority=args.priority,
                                timeout_seconds=args.timeout)
        else:
            sub = client.submit(args.scenario, path=args.input,
                                config=config, priority=args.priority,
                                timeout_seconds=args.timeout)
        print(f"submitted {sub['job_id']} (graph {sub['graph_key']})")
        if args.wait:
            final = client.wait(sub["job_id"], timeout=3600)
            q = final.get("queue_latency_seconds")
            r = final.get("run_seconds")
            # A job cancelled while we waited has no timings (None).
            print(f"{final['id']}: {final['state']} "
                  f"queue={'-' if q is None else format(q, '.3f') + 's'} "
                  f"run={'-' if r is None else format(r, '.3f') + 's'}")
            if final["state"] == "FAILED" and final.get("error"):
                print(f"error: {final['error']}")
            return 0 if final["state"] == "DONE" else 1
        return 0
    if args.command == "status":
        _print_job_row(client.status(args.job_id), header=True)
        return 0
    # jobs
    listed = client.jobs()
    if not listed:
        print("no jobs")
        return 0
    for i, row in enumerate(listed):
        _print_job_row(row, header=i == 0)
    return 0


def _print_job_row(row: dict, header: bool = False) -> None:
    if header:
        print(f"{'ID':<12} {'STATE':<9} {'SCENARIO':<11} {'GRAPH':<18} "
              f"{'QUEUE(s)':>9} {'RUN(s)':>8}")
    q = row.get("queue_latency_seconds")
    r = row.get("run_seconds")
    q_str = "-" if q is None else f"{q:.3f}"
    r_str = "-" if r is None else f"{r:.3f}"
    print(f"{row['id']:<12} {row['state']:<9} {row['scenario']:<11} "
          f"{(row.get('graph_name') or row['graph_key']):<18} "
          f"{q_str:>9} {r_str:>8}")


def _write_walks(path: str, circuits) -> None:
    """One vertex id per line; a single walk keeps the established format.

    Several walks (the ``components`` scenario) are delimited by
    ``# walk <i>: <n> edges`` comment headers, so consumers can split them
    while ``np.loadtxt`` keeps reading the file (comments are skipped).
    """
    if len(circuits) == 1:
        np.savetxt(path, circuits[0].vertices, fmt="%d")
        return
    with open(path, "w") as fh:
        for i, circ in enumerate(circuits):
            fh.write(f"# walk {i}: {circ.n_edges} edges\n")
            fh.writelines(f"{int(v)}\n" for v in circ.vertices)


def _load_run_input(name: str):
    """Resolve a ``run`` input: named workload or edge-list path.

    Returns ``(graph, default_n_parts, default_scenario)`` — the defaults
    apply only when ``--parts`` / ``--scenario`` were not given.
    """
    if name in bench.PAPER_WORKLOADS:
        g, spec = bench.load_workload(name)
        return g, spec.n_parts, "circuit"
    if name in bench.SCENARIO_WORKLOADS:
        g, spec = bench.load_scenario_workload(name)
        return g, spec.n_parts, spec.scenario
    return load_edge_list(name), 4, "circuit"


def _print_scenario(result) -> None:
    """Human summary: one line per walk, one pipeline line per sub-run."""
    for circ in result.circuits:
        kind = "circuit" if circ.is_closed else "path"
        print(f"{kind}: {circ.n_edges} edges, closed={circ.is_closed}")
    if result.metrics:
        pretty = ", ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(result.metrics.items())
        )
        print(f"{result.scenario}: {pretty}")
    for sub in result.sub_runs:
        rep = sub.report
        prefix = f"[{sub.key}] " if len(result.sub_runs) > 1 else ""
        print(
            f"{prefix}partitions={rep.n_parts} supersteps={rep.n_supersteps} "
            f"executor={sub.context.config.executor_name} "
            f"total={rep.total_seconds:.2f}s compute={rep.compute_seconds:.2f}s"
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
