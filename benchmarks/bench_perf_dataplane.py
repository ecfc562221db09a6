#!/usr/bin/env python
"""Data-plane perf trajectory: committed before/after measurements.

Measures what the columnar data plane is supposed to speed up, on fixed-seed
R-MAT workloads:

* serial backend — ``sum(run_stats.superstep_wall)``, the barrier-to-barrier
  wall time of the whole BSP run (the Fig. 5 "Total Time" minus setup and
  Phase 3), plus its Fig. 6 category split;
* process backend — the same, plus the serialization share
  ``(copy_source + copy_sink) / compute``: the fraction of user compute the
  process backend spends pickling partition state across the worker boundary;
* phase-1 walk-table cache — serial superstep wall with the content-hash
  table cache warm versus force-disabled (``REPRO_PHASE1_TABLE_CACHE=0``),
  the repeated-serve scenario the cache exists for;
* remote loopback — the same workload through the ``remote`` executor
  against two loopback :class:`~repro.jobs.remote.WorkerHost` processes,
  recording the frame-protocol byte counters. The gate: bytes on the wire
  must not exceed the raw packed-column payload plus a *fixed* per-message
  framing allowance (``FRAME_OVERHEAD_CAP``) — i.e. the transport ships
  the already-packed columns with zero re-encoding.

Results are recorded into ``BENCH_dataplane.json`` at the repo root under a
``baseline`` (pre-change) or ``current`` (post-change) label, so the speedup
is a committed, reproducible measurement rather than a claim in a PR
description (cf. the benchmarking-discipline argument in PAPERS.md). CI runs
the ``smoke`` workload with ``--check``, which fails on a >25% regression of
the serial superstep wall against the committed ``current`` entry. Because
CI hardware differs from the recording machine, every measurement includes
a fixed CPU-bound *calibration kernel*; check mode rescales the committed
reference by the calibration ratio, so the gate tracks code, not runner
generation.

Usage::

    python benchmarks/bench_perf_dataplane.py --workload rmat500k --label baseline
    python benchmarks/bench_perf_dataplane.py --workload rmat500k --label current
    python benchmarks/bench_perf_dataplane.py --workload smoke --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.bench.report_io import SCHEMA_VERSION  # noqa: E402
from repro.bsp.accounting import CAT_COPY_SINK, CAT_COPY_SRC  # noqa: E402
from repro.core import find_euler_circuit  # noqa: E402
from repro.generate.eulerize import eulerian_rmat  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_dataplane.json"

#: Framing allowance per frame on the remote wire: header, buffer length
#: prefixes and the pickled task/result *structure* (not its array
#: payload). Measured ~4.5 KB/frame on smoke and ~13.7 KB/frame on
#: rmat500k (~0.3% of payload — structure grows with fragment count, far
#: sublinear in bytes); a payload-re-encoding regression inflates this by
#: 10-100x, which is what the cap catches. Byte counts are deterministic,
#: so the gate needs no machine-speed scaling.
FRAME_OVERHEAD_CAP = 16384


@dataclass(frozen=True)
class BenchSpec:
    """One fixed-seed workload of the data-plane trajectory."""

    name: str
    scale: int
    avg_degree: float
    seed: int
    n_parts: int
    workers: int  # process-backend pool width


#: The trajectory's workloads. ``rmat500k`` is the acceptance workload
#: (>=500k undirected edges); ``smoke`` is the CI regression gate.
SPECS: dict[str, BenchSpec] = {
    "rmat500k": BenchSpec("rmat500k", scale=17, avg_degree=8.0, seed=42,
                          n_parts=8, workers=4),
    # Large enough (~65k edges) that the CI tolerance band is tens of
    # milliseconds, not noise.
    "smoke": BenchSpec("smoke", scale=15, avg_degree=4.0, seed=7,
                       n_parts=4, workers=2),
}


def calibration_seconds(repeats: int = 3) -> float:
    """Machine-speed unit: a fixed CPU-bound kernel, best of ``repeats``.

    Mixes a scalar Python loop with NumPy sorts — the same cost classes the
    pipeline spends its time in — but touches none of the code under test,
    so the ratio between two machines' calibration times approximates their
    speed ratio for this workload family.
    """
    data = np.arange(1 << 20, dtype=np.int64)[::-1] % 1009
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i & 7
        np.sort(data, kind="stable")
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_once(g, spec: BenchSpec, executor: str, workers: int,
                  hosts=None) -> dict:
    t0 = time.perf_counter()
    res = find_euler_circuit(
        g,
        n_parts=spec.n_parts,
        partitioner="hash",
        seed=0,
        executor=executor,
        engine_workers=workers,
        hosts=hosts,
        verify=False,
    )
    wall = time.perf_counter() - t0
    stats = res.context.run_stats
    split = stats.time_split()
    compute = stats.compute_seconds
    copy = split.get(CAT_COPY_SRC, 0.0) + split.get(CAT_COPY_SINK, 0.0)
    return {
        "superstep_wall": sum(stats.superstep_wall),
        "compute_seconds": compute,
        "copy_seconds": copy,
        "copy_share": (copy / compute) if compute else 0.0,
        "time_split": {k: round(v, 6) for k, v in sorted(split.items())},
        "phase3_seconds": res.report.phase3_seconds,
        "setup_seconds": res.report.setup_seconds,
        "end_to_end_seconds": wall,
        "circuit_edges": int(res.circuit.n_edges),
    }


def measure(spec: BenchSpec, repeats: int) -> dict:
    """Best-of-``repeats`` measurement of one workload on both backends."""
    g, _ = eulerian_rmat(spec.scale, avg_degree=spec.avg_degree, seed=spec.seed)
    out: dict = {
        "n_vertices": g.n_vertices,
        "n_edges": g.n_edges,
        "n_parts": spec.n_parts,
        "partitioner": "hash",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_seconds": calibration_seconds(),
    }
    for executor, workers in (("serial", 1), ("process", spec.workers)):
        runs = [_measure_once(g, spec, executor, workers) for _ in range(repeats)]
        best = min(runs, key=lambda r: r["superstep_wall"])
        out[executor] = best
    out["phase1_cache"] = _phase1_cache_delta(g, spec, repeats)
    out["remote_loopback"] = _remote_loopback(g, spec, repeats)
    return out


def _wire_totals(delta: dict) -> dict:
    """Sum the ``repro_wire_*`` counter deltas across every scope.

    Wire accounting is per-scope now (coordinator pool, worker host,
    remote executor each own a :class:`~repro.bsp.transport.WireStats`),
    but every instance mirrors into the process registry — a state diff
    around one run recovers exactly that run's traffic, both directions.
    """
    def _sum(family: str) -> int:
        children = delta.get("counters", {}).get(family, {}).get("children", {})
        return int(sum(children.values()))

    totals = {
        "messages": _sum("repro_wire_messages_total"),
        "bytes_total": _sum("repro_wire_bytes_total"),
        "buffer_bytes": _sum("repro_wire_buffer_bytes_total"),
    }
    totals["overhead_bytes"] = totals["bytes_total"] - totals["buffer_bytes"]
    return totals


def _remote_loopback(g, spec: BenchSpec, repeats: int) -> dict:
    """The workload through two loopback worker hosts, with wire counters.

    Each timed run diffs the registry's ``repro_wire_*`` counters around
    itself, so the recorded bytes are exactly one run's traffic across
    every scope (both directions — the hosts are in-process, so their
    sends land in the same registry).
    """
    import tempfile

    from repro.jobs.remote import WorkerHost
    from repro.obs import diff_state, get_registry

    best = None
    with tempfile.TemporaryDirectory(prefix="bench_remote_") as td:
        root = Path(td)
        with WorkerHost(root / "h0") as h0, WorkerHost(root / "h1") as h1:
            hosts = [h0.address, h1.address]
            registry = get_registry()
            for _ in range(repeats):
                before = registry.state()
                run = _measure_once(g, spec, "remote", 2, hosts=hosts)
                run["wire"] = _wire_totals(
                    diff_state(before, registry.state())
                )
                if best is None or run["superstep_wall"] < best["superstep_wall"]:
                    best = run
    stats = best["wire"]
    best["wire"]["overhead_per_message"] = (
        stats["overhead_bytes"] / stats["messages"] if stats["messages"] else 0.0
    )
    best["frame_overhead_cap"] = FRAME_OVERHEAD_CAP
    return best


def _phase1_cache_delta(g, spec: BenchSpec, repeats: int) -> dict:
    """Serial superstep wall, walk-table cache warm vs force-disabled.

    The cache pays off on the *second* run of a topology (a served graph
    hit by many jobs), so the warm leg is primed with one unmeasured run
    before timing. Both legs are best-of-``repeats``.
    """
    out: dict = {}
    saved = os.environ.get("REPRO_PHASE1_TABLE_CACHE")
    try:
        for mode, env in (("disabled", "0"), ("warm", "1")):
            os.environ["REPRO_PHASE1_TABLE_CACHE"] = env
            if mode == "warm":
                _measure_once(g, spec, "serial", 1)  # prime the cache
            runs = [_measure_once(g, spec, "serial", 1) for _ in range(repeats)]
            best = min(runs, key=lambda r: r["superstep_wall"])
            out[mode] = {
                "superstep_wall": best["superstep_wall"],
                "phase1_tour": best["time_split"].get("phase1_tour", 0.0),
            }
    finally:
        if saved is None:
            os.environ.pop("REPRO_PHASE1_TABLE_CACHE", None)
        else:
            os.environ["REPRO_PHASE1_TABLE_CACHE"] = saved
    out["saved_seconds"] = (out["disabled"]["superstep_wall"]
                            - out["warm"]["superstep_wall"])
    return out


def record(spec: BenchSpec, label: str, repeats: int, output: Path) -> dict:
    doc = json.loads(output.read_text()) if output.exists() else {
        "metric": "run_stats.superstep_wall (serial) and copy share (process)",
        "workloads": {},
    }
    doc["schema_version"] = SCHEMA_VERSION
    entry = doc["workloads"].setdefault(spec.name, {})
    entry[label] = measure(spec, repeats)
    output.write_text(json.dumps(doc, indent=2, default=float) + "\n")
    return entry[label]


def check(spec: BenchSpec, repeats: int, committed: Path, tolerance: float,
          artifact: Path | None) -> int:
    """Fail (exit 1) on a >``tolerance`` regression vs the committed numbers."""
    doc = json.loads(committed.read_text())
    ref = doc["workloads"].get(spec.name, {}).get("current")
    if ref is None:
        print(f"no committed 'current' entry for workload {spec.name!r}; "
              "record one with --label current first")
        return 1
    fresh = measure(spec, repeats)
    if artifact is not None:
        artifact.write_text(json.dumps(
            {"schema_version": doc.get("schema_version"),
             "workload": spec.name, "measured": fresh, "committed": ref},
            indent=2, default=float) + "\n")
    measured = fresh["serial"]["superstep_wall"]
    reference = ref["serial"]["superstep_wall"]
    # Normalize for machine speed: scale the committed reference by the
    # calibration ratio (clamped — a wildly different ratio means the
    # calibration itself is suspect, not the machine 10x slower).
    ref_cal = ref.get("calibration_seconds")
    scale = 1.0
    if ref_cal:
        scale = min(4.0, max(0.25, fresh["calibration_seconds"] / ref_cal))
    limit = reference * scale * (1.0 + tolerance)
    ok = measured <= limit
    verdict = "OK" if ok else "REGRESSION"
    print(f"{spec.name}: serial superstep_wall {measured:.3f}s vs committed "
          f"{reference:.3f}s x {scale:.2f} machine-speed scale "
          f"(limit {limit:.3f}s, +{tolerance:.0%}): {verdict}")
    print(f"{spec.name}: process copy share {fresh['process']['copy_share']:.3f} "
          f"(committed {ref['process']['copy_share']:.3f})")
    cache = fresh.get("phase1_cache")
    if cache is not None:
        print(f"{spec.name}: phase-1 table cache warm "
              f"{cache['warm']['superstep_wall']:.3f}s vs disabled "
              f"{cache['disabled']['superstep_wall']:.3f}s "
              f"(saves {cache['saved_seconds']:.3f}s)")
    loop = fresh.get("remote_loopback")
    if loop is not None:
        # Byte counts are machine-independent, so the wire gate applies
        # directly (no calibration scale): everything beyond the raw packed
        # buffers must fit in a fixed per-message framing allowance.
        w = loop["wire"]
        limit = w["buffer_bytes"] + w["messages"] * FRAME_OVERHEAD_CAP
        wire_ok = w["bytes_total"] <= limit
        ok &= wire_ok
        print(f"{spec.name}: remote loopback {w['messages']} frames, "
              f"{w['bytes_total']} B on the wire vs {w['buffer_bytes']} B "
              f"packed buffers + {FRAME_OVERHEAD_CAP} B/frame cap "
              f"(limit {limit} B, overhead "
              f"{w['overhead_per_message']:.0f} B/frame): "
              f"{'OK' if wire_ok else 'REGRESSION'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(SPECS), default="rmat500k")
    p.add_argument("--label", choices=("baseline", "current"), default="current",
                   help="which trajectory entry to record")
    p.add_argument("--repeats", type=int, default=2, help="best-of-N runs")
    p.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                   help="trajectory JSON to update (record mode)")
    p.add_argument("--check", action="store_true",
                   help="compare a fresh run against the committed numbers "
                        "instead of recording")
    p.add_argument("--against", type=Path, default=DEFAULT_OUTPUT,
                   help="committed JSON to check against")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed serial superstep_wall regression (check mode)")
    p.add_argument("--artifact", type=Path, default=None,
                   help="where to write the fresh measurement in check mode")
    args = p.parse_args(argv)
    spec = SPECS[args.workload]

    if args.check:
        return check(spec, args.repeats, args.against, args.tolerance,
                     args.artifact)
    entry = record(spec, args.label, args.repeats, args.output)
    print(f"{spec.name} [{args.label}]: serial superstep_wall "
          f"{entry['serial']['superstep_wall']:.3f}s; process copy share "
          f"{entry['process']['copy_share']:.3f} -> {args.output}")
    print(f"{spec.name} [{args.label}]: phase-1 cache saves "
          f"{entry['phase1_cache']['saved_seconds']:.3f}s serial "
          "superstep wall")
    w = entry["remote_loopback"]["wire"]
    print(f"{spec.name} [{args.label}]: remote loopback {w['messages']} "
          f"frames, {w['bytes_total']} B total, "
          f"{w['overhead_per_message']:.0f} B/frame overhead")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
