#!/usr/bin/env python3
"""The serving capacity that serve-mixed's fixed request rate is set from.

Usage::

    python benchmarks/e2e/capacity.py [--seed N] [--burst N] [--trials N]

Sets up serve-mixed's server as a window does (five graphs, warm-up jobs,
one watch), then sends bursts of requests with the workload's mix as fast
as its one client thread can, so the queue never runs dry. Each burst's
capacity is its completed jobs ÷ (last job's finish − burst start).
serve-mixed's fixed rate (``workloads.SERVE_RATE``) is 40-50% of the
median; the recorded trials are in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import time

import run
import workloads

#: Requests per second of the schedule a burst is cut from: high enough
#: that every request is due before the first reply.
BURST_RATE = 1e6


def burst_capacity(serve: workloads.Serve, seed: int, burst: int) -> tuple[int, float]:
    """``(jobs completed, jobs per second)`` of one burst of about ``burst`` requests."""
    rec = serve.measure(seed, burst / BURST_RATE, None)
    done = [o for o in rec["ops"] if o["ok"]]
    return len(done), len(done) / (max(o["latency_ms"] for o in done) / 1e3)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    p.add_argument("--burst", type=int, default=100)
    p.add_argument("--trials", type=int, default=5)
    args = p.parse_args(argv)
    serve = workloads.Serve(rate=BURST_RATE)
    serve.prepare(args.seed)
    workdir = workloads.CACHE / "tmp" / f"capacity-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    trials = []
    try:
        serve.setup(args.seed, workdir)
        for t in range(args.trials):
            jobs, rate = burst_capacity(serve, args.seed + t, args.burst)
            trials.append({"jobs": jobs, "jobs_per_s": rate})
            print(f"burst {t}: {jobs} jobs, {rate:.1f} jobs/s", flush=True)
    finally:
        serve.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    median = statistics.median(t["jobs_per_s"] for t in trials)
    print(json.dumps({"seed": args.seed, "burst": args.burst, "trials": trials,
                      "median_jobs_per_s": median,
                      "rate_share": workloads.SERVE_RATE / median,
                      "box": run.box()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
