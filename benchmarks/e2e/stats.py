"""Metric definitions and their derivation from child-process records.

A child record (written by ``workloads.py``) holds the raw observations of
one measured window: one entry per operation, process peak RSS, counter
deltas, and spans when traced. Everything here turns records into the
named metrics that ``run.py`` prints and ``compare.py`` compares. Pure
Python, so the parent can derive metrics without importing the program.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

from tracing import layer_totals

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

#: Every end-to-end metric and its better direction. BENCHMARK.json gates
#: those that two sets of runs repeat within a bound (``setup_s``,
#: ``peak_rss_mb``) and lists ``run_s`` and ``job_p50_ms`` among the
#: per-layer metrics; the one-line result carries ``fail_frac`` as its
#: ``failed`` count, and the run table has them all.
END_TO_END = {"setup_s": "lower", "run_s": "lower", "edges_per_s": "higher",
              "job_p50_ms": "lower", "job_p95_ms": "lower", "emit_p50_ms": "lower",
              "fail_frac": "lower", "peak_rss_mb": "lower"}

#: Per-operation layer numbers read from the run artifact
#: (``context_to_dict`` shape: RunStats totals, Fig. 6 time-split rows,
#: Fig. 8 state series, Fig. 9 census), summed over an operation's sub-runs.
RUN_LAYERS = {
    "pipeline.setup_s": "s",
    "bsp.superstep_wall_s": "s",
    "bsp.compute_s": "s",
    "bsp.parallelism": "ratio",
    "bsp.barrier_wait_s": "s",
    "bsp.straggler_ratio": "ratio",
    "bsp.supersteps": "count",
    "core.phase1.tour_s": "s",
    "core.phase1.edges": "count",
    "core.phase1.ns_per_edge": "ns",
    "core.merging.create_s": "s",
    "bsp.copy_s": "s",
    "bsp.state_mlongs_peak": "Mlongs",
    "pipeline.reconstruct_s": "s",
    "scenarios.reduce_s": "s",
    "scenarios.postprocess_s": "s",
}

#: Traced-pass span name(s) -> per-layer metric (seconds: summed duration).
SPAN_LAYERS = {
    "partitioning.partition_s": ("partitioning.partition",),
    "graph.metagraph.build_s": ("graph.metagraph.build",),
    "core.merge_tree.build_s": ("core.merge_tree.build",),
    "core.improvements.placement_s": ("core.improvements.placement",),
    "core.phase3.reconstruct_s": ("core.phase3.reconstruct",),
    "scenarios.postman.eulerize_s": ("scenarios.postman.eulerize",),
    "scenarios.postman.matching_s": ("scenarios.postman.matching",),
    "graph.traversal.bfs_s": ("graph.traversal.bfs", "graph.traversal.shortest_path"),
}

#: Every per-layer metric: name -> unit. The first two are end-to-end
#: times read from the traced pass's untraced half.
LAYERS = {
    "run_s": "s",
    "job_p50_ms": "ms",
    **RUN_LAYERS,
    "bsp.sent_mb": "MB",
    "core.phase1.walk_cache_hit_frac": "fraction",
    "bsp.transport.wire_mb": "MB",
    "bsp.transport.wire_messages": "count",
    **{name: "s" for name in SPAN_LAYERS},
    "graph.traversal.bfs_calls": "count",
    "scenarios.postman.revisits": "count",
    "jobs.http.submit_ms_p50": "ms",
    "jobs.http.submit_ms_p95": "ms",
    "jobs.http.patch_ms_p50": "ms",
    "jobs.queue.delay_ms_p50": "ms",
    "jobs.queue.delay_ms_p95": "ms",
    "jobs.engine.run_ms_p50": "ms",
    "jobs.engine.overhead_ms_p50": "ms",
    "jobs.engine.retries": "count",
    "jobs.catalog.hit_frac": "fraction",
    "jobs.catalog.delta_rebuilds": "count",
    "jobs.journal.appends_per_job": "count",
    "jobs.server.cpu_util": "fraction",
    "deltas.repair.repair_frac": "fraction",
    "loadgen.late_ms_p95": "ms",
    "trace.overhead_frac": "fraction",
    "trace.self_coverage_frac": "fraction",
}

_CATS = ("create_partition", "copy_source", "copy_sink", "phase1_tour")


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


# ---- order statistics ------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile; ``+inf`` samples sort last."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if xs[hi] == math.inf:
        return math.inf if pos > lo or xs[lo] == math.inf else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    xs = list(values)
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return v, v, v
    if math.inf in xs:
        return percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def metric(value: float, unit: str, samples) -> dict:
    samples = [float(s) for s in samples]
    q1, med, q3 = quartiles(samples)
    return {"value": float(value), "unit": unit, "n": len(samples),
            "median": med, "q1": q1, "q3": q3}


# ---- counters --------------------------------------------------------------


def counter_sum(flat: dict, name: str, **labels) -> float:
    """Sum of ``name`` samples whose labels include ``labels``.

    ``flat`` maps Prometheus sample keys (``name{a="x"}``) to values, the
    form both ``/metrics`` text and an in-process registry diff reduce to.
    """
    total = 0.0
    for key, value in flat.items():
        if key.split("{", 1)[0] != name:
            continue
        have = dict(re.findall(r'(\w+)="([^"]*)"', key))
        if all(have.get(k) == v for k, v in labels.items()):
            total += value
    return total


# ---- per-operation layers ----------------------------------------------------


def run_layers(run_docs: list[dict], stages: list[dict]) -> dict:
    """One operation's pipeline/BSP layer numbers.

    ``run_docs``: its sub-runs' run artifacts; ``stages``: the program's
    own stage spans for it (``{"stage", "wall"}``), from an in-process
    ``SpanRecorder`` or the job's ``stage:`` pass-history rows.
    """
    wall = compute = barrier = peak = sum_max = sum_mean = 0.0
    steps = edges = 0
    split = dict.fromkeys(_CATS, 0.0)
    setup = phase3 = 0.0
    for doc in run_docs:
        totals = doc["totals"]
        # The artifact's total is the Fig. 5 one: set-up + BSP + Phase 3.
        bsp_wall = (totals["total_seconds"] - totals["setup_seconds"]
                    - totals["phase3_seconds"])
        wall += bsp_wall
        compute += totals["compute_seconds"]
        setup += totals["setup_seconds"]
        phase3 += totals["phase3_seconds"]
        steps += totals["n_supersteps"]
        levels: dict[int, list[float]] = {}
        for row in doc["time_split_rows"]:
            for cat in _CATS:
                split[cat] += row[cat]
            levels.setdefault(row["level"], []).append(sum(row[c] for c in _CATS))
        slowest = sum(max(v) for v in levels.values())
        barrier += bsp_wall - slowest
        sum_max += slowest
        sum_mean += sum(sum(v) / len(v) for v in levels.values())
        edges += sum(r.get("n_local_edges", 0) for r in doc["census_rows"])
        peak = max([peak] + [lv["cumulative_longs"] / 1e6
                             for lv in doc["state_by_level"]])
    stage_wall = {}
    for s in stages:
        stage_wall[s["stage"]] = stage_wall.get(s["stage"], 0.0) + s["wall"]
    tour = split["phase1_tour"]
    return {
        "pipeline.setup_s": setup,
        "bsp.superstep_wall_s": wall,
        "bsp.compute_s": compute,
        "bsp.parallelism": compute / wall if wall else 0.0,
        "bsp.barrier_wait_s": barrier,
        "bsp.straggler_ratio": sum_max / sum_mean if sum_mean else 0.0,
        "bsp.supersteps": steps,
        "core.phase1.tour_s": tour,
        "core.phase1.edges": edges,
        "core.phase1.ns_per_edge": 1e9 * tour / edges if edges else 0.0,
        "core.merging.create_s": split["create_partition"],
        "bsp.copy_s": split["copy_source"] + split["copy_sink"],
        "bsp.state_mlongs_peak": peak,
        "pipeline.reconstruct_s": phase3,
        "scenarios.reduce_s": stage_wall.get("scenario_reduce", 0.0),
        "scenarios.postprocess_s": stage_wall.get("scenario_postprocess", 0.0),
    }


# ---- end-to-end metrics --------------------------------------------------------


def _latencies(ops, emit_only=False) -> list[float]:
    return [o["latency_ms"] if o["ok"] else math.inf
            for o in ops if o.get("emit") or not emit_only]


def end_to_end(setup_samples: list[float], rec: dict, failed: int) -> dict:
    """The end-to-end metrics of one untraced measured window.

    A failed operation counts as ``+inf`` latency and zero throughput;
    ``failed`` also counts the window's other misses (leaks, digests).
    ``emit_p50_ms`` is present only where the window mutated a graph.
    """
    ops = rec["ops"]
    run = [o["run_s"] if o["ok"] else math.inf for o in ops]
    rate = [o["edges"] / o["run_s"] if o["ok"] else 0.0 for o in ops]
    lat = _latencies(ops)
    out = {
        "setup_s": metric(statistics.median(setup_samples), "s", setup_samples),
        "run_s": metric(percentile(run, 50), "s", run),
        "edges_per_s": metric(percentile(rate, 50), "edges/s", rate),
        "job_p50_ms": metric(percentile(lat, 50), "ms", lat),
        "job_p95_ms": metric(percentile(lat, 95), "ms", lat),
        "fail_frac": metric(failed / attempted(rec), "fraction",
                            [0.0 if o["ok"] else 1.0 for o in ops]),
        "peak_rss_mb": metric(max(rec["rss_mb"].values()), "MB",
                              rec["rss_mb"].values()),
    }
    emit = _latencies(ops, emit_only=True)
    if emit:
        out["emit_p50_ms"] = metric(percentile(emit, 50), "ms", emit)
    return out


def attempted(rec: dict) -> int:
    return max(1, len(rec["ops"]))


# ---- per-layer metrics ---------------------------------------------------------


def overhead_ratios(ops: list[dict]) -> list[float]:
    """Traced ÷ untraced time − 1, per pair of halves over the same work.

    A pair is the two calls on one graph in process, or two adjacent blocks
    of requests with the same mix on serve-mixed. The time is what the
    tracer can slow: the ``run_scenario`` call in process, the client's HTTP
    calls on serve-mixed (the server is not traced). A pair whose halves
    hold different numbers of operations (the window ended inside it) is
    left out.
    """
    pairs: dict[int, dict[bool, list[float]]] = {}
    for o in ops:
        if o["ok"]:
            halves = pairs.setdefault(o["pair"], {True: [], False: []})
            halves[o["traced"]].append(o.get("http_ms", o["run_s"]))
    return [sum(h[True]) / sum(h[False]) - 1.0 for h in pairs.values()
            if h[True] and len(h[True]) == len(h[False])]


def layers(rec: dict) -> dict:
    """Every per-layer metric of a traced window.

    The window has an untraced and a traced half over the same work. The
    program's own reports (run artifacts, server records, client timing)
    are read from the untraced half, spans from the traced one, and
    counters over the whole window; ``trace.overhead_frac`` compares the
    two halves' median time of the calls the tracer wraps.
    """
    out = {}

    def put(name, value, samples=None):
        out[name] = metric(value, LAYERS[name], [value] if samples is None else samples)

    def pct(name, samples, q=50):
        put(name, percentile(samples, q) if samples else 0.0, samples)

    plain = [o for o in rec["ops"] if not o.get("traced")]
    ops = [o for o in plain if o["ok"]]
    pct("run_s", [o["run_s"] if o["ok"] else math.inf for o in plain])
    pct("job_p50_ms", _latencies(plain))
    for name in RUN_LAYERS:
        pct(name, [o["layers"][name] for o in ops])
    pct("bsp.sent_mb", [o["sent_mb"] for o in ops if "sent_mb" in o])
    pct("scenarios.postman.revisits",
        [o["revisits"] for o in ops if o.get("revisits") is not None])

    per_op = [e for e in layer_totals(rec["spans"]) if e["root"]["name"] == "op"]
    for name, spans in SPAN_LAYERS.items():
        pct(name, [sum(e["total"].get(s, 0.0) for s in spans) for e in per_op])
    pct("graph.traversal.bfs_calls",
        [e["calls"].get("graph.traversal.bfs", 0)
         + e["calls"].get("graph.traversal.shortest_path", 0) for e in per_op])
    pct("trace.self_coverage_frac",
        [sum(e["self"].values()) / (e["root"]["end"] - e["root"]["start"])
         for e in per_op])
    pct("trace.overhead_frac", overhead_ratios(rec["ops"]))

    flat = rec["counters"]

    def hit_frac(name, hits, misses):
        h = sum(counter_sum(flat, name, **labels) for labels in hits)
        m = sum(counter_sum(flat, name, **labels) for labels in misses)
        return h / (h + m) if h + m else 0.0

    put("core.phase1.walk_cache_hit_frac", hit_frac(
        "repro_walk_cache_events_total", [{"result": "hit"}], [{"result": "miss"}]))
    n_ops = attempted(rec)
    put("bsp.transport.wire_mb", counter_sum(flat, "repro_wire_bytes_total") / 1e6 / n_ops)
    put("bsp.transport.wire_messages",
        counter_sum(flat, "repro_wire_messages_total") / n_ops)

    # The job layer: zero where no server ran (in process).
    kinds = ("graph", "partition", "plan")
    put("jobs.catalog.hit_frac", hit_frac(
        "repro_catalog_events_total", [{"kind": f"{k}_hits"} for k in kinds],
        [{"kind": f"{k}_misses"} for k in kinds]))
    put("jobs.catalog.delta_rebuilds",
        counter_sum(flat, "repro_catalog_events_total", kind="delta_rebuilds"))
    jobs = [o for o in rec["ops"] if "queue_ms" in o]
    put("jobs.journal.appends_per_job",
        counter_sum(flat, "repro_journal_appends_total") / max(1, len(jobs)))
    put("jobs.engine.retries", counter_sum(flat, "repro_retries_scheduled_total"))
    put("jobs.server.cpu_util", rec.get("server_cpu_util", 0.0))
    repaired = [1.0 if o.get("decision") == "repair" else 0.0
                for o in rec["ops"] if o.get("emit")]
    put("deltas.repair.repair_frac",
        sum(repaired) / len(repaired) if repaired else 0.0, repaired)
    requests = [o for o in plain if "http_ms" in o]
    submits = [o["http_ms"] for o in requests if not o["emit"]]
    pct("jobs.http.submit_ms_p50", submits)
    pct("jobs.http.submit_ms_p95", submits, 95)
    pct("jobs.http.patch_ms_p50", [o["http_ms"] for o in requests if o["emit"]])
    pct("jobs.queue.delay_ms_p50", [o["queue_ms"] for o in jobs])
    pct("jobs.queue.delay_ms_p95", [o["queue_ms"] for o in jobs], 95)
    pct("jobs.engine.run_ms_p50", [o["engine_ms"] for o in jobs])
    pct("jobs.engine.overhead_ms_p50", [o["overhead_ms"] for o in jobs])
    pct("loadgen.late_ms_p95", [o["late_ms"] for o in plain if "late_ms" in o], 95)
    return out
