#!/usr/bin/env python3
"""End-to-end benchmark: four workloads, user-facing metrics, a run table.

Usage::

    python benchmarks/e2e/run.py [--seed N] [--workload NAME]
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--trace``, each selected workload (all four by default) runs one
untraced window and then one traced pass over the same inputs. With
``--trace``, one workload runs once: ``0`` takes set-up samples and one
untraced window and reports the end-to-end metrics; ``1`` runs the traced
pass and reports the per-layer metrics. Repetitions are repeated
invocations; ``rep`` numbers them within ``--out``.

Every window runs in a fresh child process (``workloads.py``); set-up time
is the median of several fresh set-ups. Outputs are checked (circuits,
covering walks, served results, circuit digests across repetitions and
executors, shared-memory leaks); any miss counts as a failure. Each window
appends one row to ``run_table.csv`` and one record to ``results.json``
(in ``--out``); traced windows append their spans to ``spans.jsonl``. The
last line printed with ``--trace`` is the run's result as one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: Fresh set-ups per untraced window, half of them before the measured
#: child and half after it, so that a burst of load on the box reaches
#: few of them; ``setup_s`` is their median.
SETUPS = 5
DEFAULT_SEED = 1
#: With ``--trace``, every child must finish this many seconds after start.
DEADLINE_S = 170.0
BOX_COLUMNS = ("calib_s", "load1", "nproc", "python", "numpy")


def box() -> dict:
    """The conditions of a run: a fixed calibration kernel's seconds (median
    of three), the 1-minute load average, cores, interpreter and numpy."""
    import numpy as np

    data = np.random.default_rng(0).random(1_000_000)
    times = []
    for _ in range(3):
        t = time.perf_counter()
        np.sort(data)
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t)
    return {"calib_s": statistics.median(times), "load1": os.getloadavg()[0],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def src_digest() -> str:
    """Content hash of the program's sources (keys the digest registry)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, trace_id: str,
          tmp: Path, deadline: float) -> dict:
    """Run one child process to completion; its record.

    The child leads its own process group, which is killed afterwards
    whatever happened, so no worker host or server outlives it.
    """
    tag = f"{workload}-{mode}-{time.monotonic_ns()}"
    out = tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--trace-id", trace_id, "--workdir", str(tmp / tag), "--out", str(out),
           "--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=sys.stderr.fileno(), start_new_session=True)
    timeout = min(deadline - time.monotonic(), 3 * seconds + 120)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not out.exists():
        raise ChildFailed(f"{workload} {mode} child ended with {code}")
    return json.loads(out.read_text())


class Runner:
    """Runs windows, checks them, and records their metrics."""

    def __init__(self, out: Path, seconds: float, deadline: float):
        from repro.bsp import shm
        from workloads import CACHE

        self.shm = shm
        self.out = out
        self.seconds = seconds
        self.deadline = deadline
        self.box = box()
        self.tmp = CACHE / "tmp" / f"{os.getpid()}-{time.time_ns()}"
        self.digest_path = CACHE / f"digests-{src_digest()}.json"
        self.digests = (json.loads(self.digest_path.read_text())
                        if self.digest_path.exists() else {})
        results = out / "results.json"
        self.doc = (json.loads(results.read_text()) if results.exists()
                    else {"runs": []})
        self.runs: list[dict] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.digest_path.write_text(json.dumps(self.digests, indent=1))

    def _child(self, workload, seed, mode, trace_id=""):
        return spawn(workload, seed, self.seconds, mode, trace_id, self.tmp,
                     self.deadline)

    def window(self, workload: str, seed: int, trace: bool) -> dict:
        """One checked and recorded window; its run record.

        Untraced: set-up samples around a measured window. Traced: one
        window with an untraced and a traced half over the same work.
        """
        import workloads

        workloads.WORKLOADS[workload].prepare(seed)
        rep = sum(r["workload"] == workload and r["trace"] == int(trace)
                  for r in self.doc["runs"])
        before = set(self.shm.leaked_segments())
        started = time.time()
        errors, setups, rec = [], [], None

        def setup_samples(n):
            return [self._child(workload, seed, "setup")["setup_s"] for _ in range(n)]

        try:
            if trace:
                rec = self._child(workload, seed, "measure", f"{workload}/{rep}")
            else:
                setups = setup_samples(SETUPS // 2)
                rec = self._child(workload, seed, "measure")
                setups += [rec["setup_s"]] + setup_samples(SETUPS - 1 - SETUPS // 2)
        except ChildFailed as exc:
            errors.append(str(exc))
        leaked = sorted(set(self.shm.leaked_segments()) - before)
        errors += [f"leaked shared-memory segment {name}" for name in leaked]
        if rec is not None:
            errors += self._check_digests(rec)
            errors += [f"op {o['op']} ({o['kind']}): {o['error']}"
                       for o in rec["ops"] if not o["ok"]]
        run = {"time": started, "workload": workload, "rep": rep, "seed": seed,
               "trace": int(trace), "seconds": self.seconds,
               "attempted": stats.attempted(rec) if rec else 1,
               "failed": len(errors), "errors": errors, "box": self.box,
               "end_to_end": {}, "layers": {}}
        if rec is not None:
            if trace:
                run["layers"] = stats.layers(rec)
            else:
                run["end_to_end"] = stats.end_to_end(setups, rec, len(errors))
        self._record(run, rec)
        return run

    def _check_digests(self, rec: dict) -> list[str]:
        """Circuits must repeat bit for bit across repetitions and executors."""
        errors = []
        for op in rec["ops"]:
            if "digest" not in op:
                continue
            known = self.digests.get(op["input"])
            if known is None and op["ok"]:
                self.digests[op["input"]] = op["digest"]
            elif known is not None and known != op["digest"]:
                errors.append(f"{rec['workload']} circuit digest on "
                              f"{op['input']} differs from an earlier run")
        return errors

    def _record(self, run: dict, rec: dict | None) -> None:
        self.runs.append(run)
        self.doc["runs"].append(run)
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / "results.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.doc, indent=1))
        os.replace(tmp, path)
        _append_row(self.out / "run_table.csv", run)
        spans = rec["spans"] if rec else []
        if spans:
            with (self.out / "spans.jsonl").open("a") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in spans)


#: ``run_s`` and ``job_p50_ms`` are both end-to-end and per-layer names:
#: one column each, holding the window's value either way.
TABLE_COLUMNS = list(dict.fromkeys(
    ["time", "workload", "rep", "seed", "trace", "seconds", "attempted",
     "failed", "fail_frac"]
    + [m for m in stats.END_TO_END if m != "fail_frac"]
    + list(stats.LAYERS) + list(BOX_COLUMNS)))


def _append_row(path: Path, run: dict) -> None:
    """One CSV row per window; a file with another header is set aside."""
    values = {**run, **run["box"], "fail_frac": run["failed"] / run["attempted"]}
    for group in ("end_to_end", "layers"):
        values.update({k: m["value"] for k, m in run[group].items()})
    if path.exists():
        with path.open() as fh:
            header = next(csv.reader(fh), [])
        if header != TABLE_COLUMNS:
            path.rename(path.with_name(f"run_table.{int(path.stat().st_mtime)}.csv"))
    new = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, TABLE_COLUMNS, extrasaction="ignore")
        if new:
            writer.writeheader()
        writer.writerow(values)


def print_run(run: dict) -> None:
    kind = "traced" if run["trace"] else "untraced"
    print(f"\n{run['workload']}  rep {run['rep']}  seed {run['seed']}  {kind}  "
          f"attempted {run['attempted']}  failed {run['failed']}  "
          f"fail_frac {run['failed'] / run['attempted']:.4g}")
    for err in run["errors"]:
        print(f"  ! {err}")
    print(f"  {'metric':34} {'value':>12} {'unit':9} {'n':>4} "
          f"{'median':>12} {'q1':>12} {'q3':>12}")
    for group in ("end_to_end", "layers"):
        for name, m in run[group].items():
            print(f"  {name:34} {m['value']:12.6g} {m['unit']:9} {m['n']:4d} "
                  f"{m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g}")


def _finite(value: float) -> float:
    """JSON has no infinity: a failed operation's latency prints as the
    largest float (the run is marked incorrect anyway)."""
    return value if math.isfinite(value) else math.copysign(sys.float_info.max, value)


def result_line(run: dict, bench: dict) -> str:
    """The one-line JSON result of a ``--trace`` run: correctness, counts, and
    the end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json lists."""
    group, key = (("layers", "per_layer") if run["trace"]
                  else ("end_to_end", "end_to_end"))
    metrics = {m["name"]: {"value": _finite(run[group][m["name"]]["value"]),
                           "unit": m["unit"]}
               for m in bench[key] if m["name"] in run[group]}
    return json.dumps({"correct": run["failed"] == 0 and len(metrics) == len(bench[key]),
                       "attempted": run["attempted"], "failed": run["failed"],
                       "metrics": metrics})


def main(argv=None) -> int:
    bench = stats.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=None)
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory of run_table.csv, results.json, spans.jsonl")
    args = p.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    single = args.trace is not None
    if single and args.workload is None:
        p.error("--trace needs --workload")
    deadline = time.monotonic() + DEADLINE_S if single else math.inf
    runner = Runner(args.out, args.seconds, deadline)
    try:
        if single:
            run = runner.window(args.workload, args.seed, bool(args.trace))
            print_run(run)
            print(result_line(run, bench))
            return 0 if run["failed"] == 0 else 1
        for workload in [args.workload] if args.workload else names:
            for trace in (False, True):
                print_run(runner.window(workload, args.seed, trace))
    finally:
        runner.close()
    failed = sum(r["failed"] for r in runner.runs)
    print(f"\n{len(runner.runs)} windows, {failed} failed operations or checks; "
          f"tables in {args.out}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
