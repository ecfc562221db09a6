#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python benchmarks/e2e/compare.py A/ B/ [--claim WORKLOAD:METRIC]

``A/`` and ``B/`` are ``run.py --out`` directories (``A`` the parent, ``B``
the change), each holding the untraced runs of one commit. Every
(workload, end-to-end metric) pair gets one row. A metric ``BENCHMARK.json``
gates is judged by its bound:

* **unresolved** — the run-to-run spread (IQR / median) of either side is
  wider than the bound, and neither side reads better on every run;
* **regressed** / **improved** — B's median is worse / better than A's by
  more than the bound;
* **unchanged** — otherwise.

The other end-to-end metrics (the time metrics, which this box cannot
repeat within a bound) are shown with their change and marked **not gated**.

``--claim`` tests one claimed gain on any end-to-end metric by the
paired-runs rule: at least 10 pairs of runs that alternated which side ran
first, B better in at least 9 of every 10 pairs (ties count for neither),
and the gap between the medians wider than A's interquartile range. Exit
status 1 when any row regressed or the claim was not met.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import END_TO_END, load_benchmark, quartiles  # noqa: E402


def load_runs(directory: Path) -> list[dict]:
    """The untraced, metric-bearing runs recorded in ``directory``."""
    runs = json.loads((directory / "results.json").read_text())["runs"]
    return [r for r in runs if not r["trace"] and r["end_to_end"]]


def values(runs: list[dict], workload: str, name: str) -> list[tuple[float, float]]:
    """``(start time, value)`` of one metric, in run order."""
    return sorted((r["time"], r["end_to_end"][name]["value"]) for r in runs
                  if r["workload"] == workload and name in r["end_to_end"])


def _better(x: float, y: float, direction: str) -> bool:
    return x < y if direction == "lower" else x > y


def verdict(a: list[float], b: list[float], bound: float, direction: str) -> tuple[str, float]:
    """``(verdict, relative change of B's median, positive = worse)``."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if direction == "lower" else -1.0
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    b_wins = all(_better(x, y, direction) for x in b for y in a)
    a_wins = all(_better(y, x, direction) for x in b for y in a)
    if spread > bound and not (a_wins or b_wins):
        return "unresolved", change
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def claim(a: list[tuple[float, float]], b: list[tuple[float, float]],
          direction: str) -> tuple[bool, str]:
    """The paired-runs rule for claiming a gain of B over A."""
    pairs = list(zip(a, b))
    if len(pairs) < 10:
        return False, f"{len(pairs)} pairs, need at least 10"
    times = [(ta, tb) for (ta, _), (tb, _) in pairs]
    order = sorted(t for pair in times for t in pair)
    adjacent = all(sorted(pair) == order[2 * i: 2 * i + 2]
                   for i, pair in enumerate(times))
    firsts = [ta < tb for ta, tb in times]
    if not adjacent or any(x == y for x, y in zip(firsts, firsts[1:])):
        return False, "runs were not pairs alternating which side ran first"
    wins = sum(_better(vb, va, direction) for (_, va), (_, vb) in pairs)
    q1, med_a, q3 = quartiles([v for _, v in a])
    med_b = quartiles([v for _, v in b])[1]
    gap_ok = abs(med_b - med_a) > q3 - q1 and _better(med_b, med_a, direction)
    ok = wins >= 0.9 * len(pairs) and gap_ok
    return ok, (f"B better in {wins}/{len(pairs)} pairs; median gap "
                f"{abs(med_b - med_a):.6g} vs A's IQR {q3 - q1:.6g}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("a", type=Path, help="parent runs (run.py --out)")
    p.add_argument("b", type=Path, help="change runs (run.py --out)")
    p.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    args = p.parse_args(argv)
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    regressed = False
    print(f"{'workload':18} {'metric':13} {'nA':>3} {'nB':>3} {'median A':>12} "
          f"{'median B':>12} {'change':>8} {'bound':>6}  verdict")
    for w in bench["workloads"]:
        for name, direction in END_TO_END.items():
            a = [v for _, v in values(runs_a, w["name"], name)]
            b = [v for _, v in values(runs_b, w["name"], name)]
            if not a or not b or name == "fail_frac":
                continue
            result, change = verdict(a, b, bounds.get(name, math.inf), direction)
            if name not in bounds:
                result = "not gated"
            regressed |= result == "regressed"
            bound = f"{bounds[name]:6.2f}" if name in bounds else f"{'-':>6}"
            print(f"{w['name']:18} {name:13} {len(a):3d} {len(b):3d} "
                  f"{quartiles(a)[1]:12.6g} {quartiles(b)[1]:12.6g} "
                  f"{change:+8.2%} {bound}  {result}")
    claim_ok = True
    if args.claim:
        workload, name = args.claim.split(":", 1)
        claim_ok, why = claim(values(runs_a, workload, name),
                              values(runs_b, workload, name), END_TO_END[name])
        print(f"\nclaim {args.claim}: {'met' if claim_ok else 'not met'} ({why})")
    return 1 if regressed or not claim_ok else 0


if __name__ == "__main__":
    raise SystemExit(main())
