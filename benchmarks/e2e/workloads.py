"""The four benchmark workloads: inputs, set-up, measured loop, output checks.

Each workload object has the same life cycle — ``prepare`` (make the
seeded inputs, in the parent), ``setup`` (everything before the first
timed operation), ``measure`` (the timed window) and ``teardown`` (stop
every process it started; report their peak RSS). Run as a script, this
file is the child process ``run.py`` starts for every set-up sample and
every measured window; it writes one JSON record and exits.

Inputs are generated from the seed with the program's own generators and
cached under ``.cache/inputs/``. Only the generated graphs reach the
program.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
CACHE = HERE / ".cache"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import stats  # noqa: E402
from repro.bench.report_io import context_to_dict  # noqa: E402
from repro.core.circuit import verify_circuit  # noqa: E402
from repro.deltas import GraphDelta  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.generate.eulerize import (  # noqa: E402
    eulerian_rmat,
    largest_component,
    open_path_variant,
)
from repro.generate.rmat import rmat_graph  # noqa: E402
from repro.generate.synthetic import disjoint_union  # noqa: E402
from repro.graph.io import load_npz, save_npz  # noqa: E402
from repro.jobs.client import JobClient, JobClientError  # noqa: E402
from repro.obs import SpanRecorder  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402
from repro.pipeline import RunConfig  # noqa: E402
from repro.scenarios import run_scenario  # noqa: E402
from repro.scenarios.postman import verify_covering_walk  # noqa: E402
from tracing import Tracer  # noqa: E402

#: serve-mixed: the open-loop rate and the request mix. The rate is fixed,
#: never recomputed per run: 40-50% of the burst capacity ``capacity.py``
#: measures on a 2-core box (the trials are in baseline.json), and ~260
#: requests (13 beyond p95) in a 20 s window.
SERVE_RATE = 13.0
#: Requests per block of ten; each block is shuffled by the seed, so every
#: window has the same mix and only the order and arrival times vary.
SERVE_MIX = {"circuit": 4, "path": 2, "components": 2, "postman": 1, "patch": 1}
#: Config of every serve-mixed job and of the watch whose graph is mutated.
JOB_CONFIG = {"n_parts": 4, "verify": True}
WATCH_CONFIG = {"n_parts": 8, "verify": True}
_CHECK_ERRORS = (ReproError, IndexError, ValueError)


# ---- inputs ----------------------------------------------------------------


def cached_graph(name: str, build, cache: Path = CACHE, load: bool = True):
    """The graph ``build()`` makes, stored once as ``inputs/<name>.npz``."""
    path = cache / "inputs" / f"{name}.npz"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        graph = build()
        save_npz(graph, path, compressed=False)
        return graph
    return load_npz(path)[0] if load else None


def eulerian_rmat_graph(seed: int, scale: int, avg_degree: float):
    """Largest component of an R-MAT graph, eulerized (the paper's §4.2 input)."""
    return eulerian_rmat(scale, avg_degree=avg_degree, seed=seed)[0]


def rmat_component(seed: int, scale: int, avg_degree: float):
    """Largest component of a raw R-MAT graph (odd degrees left as they are)."""
    return largest_component(rmat_graph(scale, avg_degree=avg_degree, seed=seed))[0]


# ---- processes -------------------------------------------------------------


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-u", "-m", "repro.cli", *args]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MB."""
    text = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", text).group(1)) / 1024.0


def cpu_seconds(pid: int) -> float:
    """A live process's user + system CPU seconds so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, then SIGKILL if it has not exited within ``timeout``."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


def digest(edge_ids) -> str:
    return hashlib.sha256(np.ascontiguousarray(edge_ids, dtype=np.int64)).hexdigest()


# ---- in-process workloads ----------------------------------------------------


class InProcess:
    """One closed-loop caller: one ``run_scenario`` call per distinct graph.

    Graph ``i`` of a window is the input made from seed ``seed + i``, and
    every call runs in a fresh thread on a freshly loaded graph, so no
    content-keyed cache (the per-thread Phase-1 walk tables, a graph's
    CSR) carries over between calls. Calls continue until their summed
    wall time reaches the window; loading the next graph and checking each
    output happen between calls, untimed.

    Peak RSS is read when the first call has returned: the memory one run
    needs per process. A worker host keeps up to eight installed programs
    (a partitioned graph each), so its peak over a whole window grows with
    the number of calls the window fits, that is, with the box's speed.
    """

    def __init__(self, name: str, scenario: str, n_parts: int, make_graph,
                 input_key: str, hosts: int = 0, prepared: int = 8,
                 cache: Path = CACHE):
        self.name = name
        self.scenario = scenario
        self.n_parts = n_parts
        self.make_graph = make_graph
        self.input_key = input_key
        self.hosts = hosts
        self.prepared = prepared
        self.cache = cache
        self.check = verify_circuit if scenario == "circuit" else verify_covering_walk
        self.procs: list[subprocess.Popen] = []

    def input_name(self, seed: int, i: int) -> str:
        return f"{self.input_key}-s{seed + i}"

    def graph(self, seed: int, i: int, load: bool = True):
        return cached_graph(self.input_name(seed, i),
                            lambda: self.make_graph(seed + i), self.cache, load)

    def prepare(self, seed: int) -> None:
        for i in range(self.prepared):
            self.graph(seed, i, load=False)

    def setup(self, seed: int, workdir: Path) -> None:
        self.first = self.graph(seed, 0)
        config = RunConfig(n_parts=self.n_parts)
        if self.hosts:
            config = RunConfig(n_parts=self.n_parts, executor="remote",
                               hosts=self._spawn_workers(workdir))
        self.config = config

    def _spawn_workers(self, workdir: Path) -> str:
        port_files = []
        for k in range(self.hosts):
            port_file = workdir / f"worker{k}.port"
            self.procs.append(subprocess.Popen(
                _cli("worker", "--cache-root", str(workdir / f"worker{k}"),
                     "--port-file", str(port_file)),
                env=_env(), stdout=subprocess.DEVNULL))
            port_files.append(port_file)
        addrs = []
        deadline = time.monotonic() + 60
        for proc, port_file in zip(self.procs, port_files):
            while not (port_file.exists()
                       and len(port_file.read_text().split()) == 3):
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"worker host never listened ({port_file})")
                time.sleep(0.01)
            host, port, _ = port_file.read_text().split()
            addrs.append(f"{host}:{port}")
        return ",".join(addrs)

    def measure(self, seed: int, seconds: float, tracer: Tracer | None) -> dict:
        """With a tracer, each graph is called twice, untraced and traced,
        in an order that alternates from graph to graph; the two calls see
        the same input (see :func:`run_window`)."""
        before = _parse_metrics(get_registry().render())
        ops, busy, i, rss = [], 0.0, 0, None
        while busy < seconds or not ops:
            if tracer is None:
                calls = [None]
            else:  # untraced first on even graphs, traced first on odd ones
                calls = [None, tracer] if i % 2 == 0 else [tracer, None]
            for k, call_tracer in enumerate(calls):
                graph = self.first if i == k == 0 else self.graph(seed, i)
                ops.append(self._call(seed, i, graph, call_tracer))
                busy += ops[-1]["run_s"]
                rss = rss or self.rss_mb()
            self.first = None
            i += 1
        after = _parse_metrics(get_registry().render())
        return {"ops": ops, "counters": _diff(after, before), "rss_mb": rss}

    def _call(self, seed: int, i: int, graph, tracer: Tracer | None) -> dict:
        recorder = SpanRecorder()

        def timed():
            t0 = time.perf_counter()
            try:
                with tracer.span("op", op=i) if tracer else nullcontext(), recorder:
                    result = run_scenario(graph, self.scenario, self.config)
                error = None
            except Exception as exc:  # a failed call is a measured outcome
                result, error = None, f"{type(exc).__name__}: {exc}"
            return result, error, time.perf_counter() - t0

        with tracer.installed() if tracer else nullcontext():
            with ThreadPoolExecutor(1) as fresh_thread:
                result, error, run_s = fresh_thread.submit(timed).result()
        op = {"op": i, "input": self.input_name(seed, i), "kind": self.scenario,
              "edges": graph.n_edges, "run_s": run_s, "latency_ms": 1e3 * run_s,
              "traced": tracer is not None, "pair": i, "ok": error is None,
              "error": error}
        if result is None:
            return op
        walk = result.circuits[0]
        try:
            self.check(graph, walk)
        except _CHECK_ERRORS as exc:
            op.update(ok=False, error=f"output check: {exc}")
        contexts = [s.context for s in result.sub_runs]
        op["digest"] = digest(walk.edge_ids)
        op["layers"] = stats.run_layers([context_to_dict(c) for c in contexts],
                                        recorder.spans)
        op["sent_mb"] = 8e-6 * sum(r.sent_longs for c in contexts
                                   for step in c.run_stats.records for r in step)
        op["revisits"] = result.metrics.get("n_revisits")
        return op

    def rss_mb(self) -> dict:
        """Peak RSS so far of this process and of each live worker host."""
        rss = {"benchmark": own_peak_rss_mb()}
        for k, proc in enumerate(self.procs):
            if proc.poll() is None:
                rss[f"worker{k}"] = peak_rss_mb(proc.pid)
        return rss

    def teardown(self) -> dict:
        rss = self.rss_mb()
        for proc in self.procs:
            stop(proc)
        self.procs = []
        return rss


def _parse_metrics(text: str) -> dict:
    """Prometheus exposition text as ``{'name{label="v"}': value}``."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            out[key] = float(value)
    return out


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


# ---- serve-mixed ---------------------------------------------------------------


class Serve:
    """One client thread sending a seeded Poisson open loop to a fresh server.

    ``repro-euler serve`` runs on CLI defaults (thread front end, two thread
    dispatchers, shared thread pool, journal on) apart from the port, a
    pool of two workers and a registry long enough to keep every job of a
    window. Each request is timed from when it was due, so a stall also
    delays every request queued behind it.
    """

    name = "serve-mixed"

    def __init__(self, scale: int = 10, rate: float = SERVE_RATE,
                 cache: Path = CACHE):
        self.scale = scale
        self.rate = rate
        self.cache = cache
        self.server: subprocess.Popen | None = None
        self.client: JobClient | None = None

    def graphs(self, seed: int, load: bool = True) -> list[tuple[str, str, object]]:
        """``(name, scenario, graph)`` for the five cataloged graphs."""
        s = self.scale
        specs = (
            ("circuit-a", "circuit", lambda: eulerian_rmat_graph(seed, s, 6.0)),
            ("circuit-b", "circuit", lambda: eulerian_rmat_graph(seed + 1, s, 6.0)),
            ("path", "path",
             lambda: open_path_variant(eulerian_rmat_graph(seed + 2, s, 4.0))),
            ("components", "components", lambda: disjoint_union(
                eulerian_rmat_graph(seed + 3, s - 1, 6.0),
                eulerian_rmat_graph(seed + 4, s - 1, 6.0))),
            ("postman", "postman", lambda: rmat_component(seed + 5, s, 3.0)),
        )
        return [(name, scenario,
                 cached_graph(f"serve{s}-{name}-s{seed}", build, self.cache, load))
                for name, scenario, build in specs]

    def prepare(self, seed: int) -> None:
        self.graphs(seed, load=False)

    def setup(self, seed: int, workdir: Path) -> None:
        self.lines: list[str] = []
        self.server = subprocess.Popen(
            _cli("serve", "--port", "0", "--pool-workers", "2",
                 "--retention", "4096", "--cache-root", str(workdir / "serve")),
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.client = JobClient(self._wait_listening())
        self.keys = {}
        loaded = self.graphs(seed)
        for name, _, g in loaded:
            edges = np.column_stack([g.edge_u, g.edge_v])
            self.keys[name] = self.client.put_graph(
                edges=edges, n_vertices=g.n_vertices, name=name)["graph_key"]
        for name, scenario, _ in loaded:  # fills partition-map and plan caches
            job = self.client.submit(scenario, graph_key=self.keys[name],
                                     config=JOB_CONFIG)
            state = self.client.wait(job["job_id"], timeout=120, poll_seconds=0.01)
            if state["state"] != "DONE":
                raise RuntimeError(f"warm-up {name} ended {state['state']}: "
                                   f"{state.get('error')}")
        self.watch_id = self.client.create_watch(
            self.keys["circuit-a"], "circuit", config=WATCH_CONFIG)["id"]
        self.head = (self.keys["circuit-a"], loaded[0][2])

    def _pump(self) -> None:
        for line in self.server.stdout:
            self.lines.append(line)

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in list(self.lines):
                m = re.search(r"listening on (http://[\d.]+:\d+)", line)
                if m:
                    return m.group(1)
            if self.server.poll() is not None:
                raise RuntimeError("server exited:\n" + "".join(self.lines))
            time.sleep(0.01)
        raise TimeoutError("server never announced its port")

    def schedule(self, seed: int, seconds: float) -> list[tuple[float, str, float]]:
        """``(due offset, kind, uniform pick)`` per request, drawn in order so
        a shorter window is a prefix of a longer one."""
        rng = np.random.default_rng(seed)
        block = [kind for kind, n in SERVE_MIX.items() for _ in range(n)]
        out, t = [], 0.0
        while True:
            for kind in rng.permutation(block):
                t += rng.exponential(1.0 / self.rate)
                if t >= seconds:
                    return out
                out.append((t, str(kind), rng.random()))

    def measure(self, seed: int, seconds: float, tracer: Tracer | None) -> dict:
        """With a tracer, every second block of requests is traced, so the
        traced and untraced halves see the same mix (see :func:`run_window`);
        the tracer wraps the client's HTTP calls, whose time is ``http_ms``."""
        before = _parse_metrics(self.client.metrics())
        cpu0 = cpu_seconds(self.server.pid)
        start, start_wall = time.perf_counter(), time.time()
        block, sent = sum(SERVE_MIX.values()), []
        for i, (offset, kind, pick) in enumerate(self.schedule(seed, seconds)):
            op_tracer = tracer if (i // block) % 2 else None
            with op_tracer.installed() if op_tracer else nullcontext():
                delay = start + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                req = {"op": i, "kind": kind, "due_wall": start_wall + offset,
                       "traced": op_tracer is not None, "pair": i // (2 * block),
                       "late_ms": 1e3 * max(0.0, time.perf_counter() - start - offset)}
                t0 = time.perf_counter()
                try:
                    with op_tracer.span("op", op=i, kind=kind) if op_tracer else nullcontext():
                        req.update(self._send(kind, pick))
                except (JobClientError, OSError, http.client.HTTPException) as exc:
                    req["error"] = f"{type(exc).__name__}: {exc}"
                req["http_ms"] = 1e3 * (time.perf_counter() - t0)
            sent.append(req)
        self._drain([r["job_id"] for r in sent if "job_id" in r])
        util = (cpu_seconds(self.server.pid) - cpu0) / (time.perf_counter() - start)
        after = _parse_metrics(self.client.metrics())
        return {"ops": [self._job_op(r) for r in sent],
                "counters": _diff(after, before),
                "server_cpu_util": util}

    def _send(self, kind: str, pick: float) -> dict:
        if kind != "patch":
            name = kind if kind != "circuit" else ("circuit-a" if pick < 0.5
                                                   else "circuit-b")
            reply = self.client.submit(kind, graph_key=self.keys[name],
                                       config=JOB_CONFIG)
            return {"job_id": reply["job_id"]}
        # A one-edge detour through a fresh vertex: degrees stay even.
        key, graph = self.head
        eid = int(pick * graph.n_edges)
        u, v = graph.endpoints(eid)
        insert = [(u, graph.n_vertices), (graph.n_vertices, v)]
        reply = self.client.mutate(key, insert=insert, delete_eids=[eid])
        delta = GraphDelta.from_edits(graph, insert=np.array(insert),
                                      delete_eids=np.array([eid]))
        self.head = (reply["graph_key"], delta.apply(graph))
        emitted = reply["watches"].get(self.watch_id, {})
        out = {"emit": True, "decision": emitted.get("decision")}
        if "job_id" in emitted:
            out["job_id"] = emitted["job_id"]
        return out

    def _drain(self, job_ids: list[str], timeout: float = 90.0) -> None:
        pending, deadline = set(job_ids), time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            done = {j["id"] for j in self.client.jobs()
                    if j["state"] in ("DONE", "FAILED", "CANCELLED")}
            pending -= done
            time.sleep(0.02)

    def _job_op(self, req: dict) -> dict:
        op = {"op": req["op"], "kind": req["kind"], "emit": req.get("emit", False),
              "traced": req["traced"], "pair": req["pair"],
              "decision": req.get("decision"), "late_ms": req["late_ms"],
              "http_ms": req["http_ms"], "ok": False,
              "error": req.get("error", "no job emitted"), "edges": 0,
              "run_s": 0.0, "latency_ms": 0.0}
        if "job_id" not in req:
            return op
        try:
            doc = self.client.result(req["job_id"])
        except JobClientError as exc:
            op["error"] = f"result: {exc}"
            return op
        job, result = doc["job"], doc["scenario_result"]
        runs = [s["run"] for s in result["sub_runs"]] if result else []
        passes = doc["pass_history"]
        stages = [{"stage": p["pass"][len("stage:"):], "wall": p["seconds"]}
                  for p in passes if p["pass"].startswith("stage:")]
        engine_s = job["finished_at"] - job["started_at"]
        run_s = sum(p["seconds"] for p in passes if p["pass"] == "run_scenario")
        op.update(
            ok=job["state"] == "DONE" and bool(runs)
            and all(r["circuit"]["verified"] for r in runs),
            error=job["error"], edges=job["n_edges"], run_s=run_s,
            latency_ms=1e3 * (job["finished_at"] - req["due_wall"]),
            queue_ms=1e3 * (job["started_at"] - job["submitted_at"]),
            engine_ms=1e3 * engine_s,
            # The engine's own passes: graph load, derived artifacts,
            # artifact and journal writes.
            overhead_ms=1e3 * (engine_s - run_s),
            layers=stats.run_layers(runs, stages),
            revisits=result["metrics"].get("n_revisits") if result else None,
        )
        if op["ok"] is False and op["error"] is None:
            op["error"] = "result not verified"
        return op

    def teardown(self) -> dict:
        rss = {"benchmark": own_peak_rss_mb()}
        if self.server is not None:
            if self.server.poll() is None:
                rss["server"] = peak_rss_mb(self.server.pid)
            if self.client is not None:
                self.client.close()
                self.client = None
            stop(self.server)
            self._reader.join(timeout=10)
            self.server = None
        return rss


WORKLOADS = {
    w.name: w for w in (
        InProcess("circuit-rmat500k", "circuit", 8,
                  lambda s: eulerian_rmat_graph(s, 17, 8.0), "rmat17d8"),
        InProcess("circuit-remote", "circuit", 8,
                  lambda s: eulerian_rmat_graph(s, 17, 8.0), "rmat17d8", hosts=2),
        InProcess("postman-rmat", "postman", 4,
                  lambda s: rmat_component(s, 12, 3.0), "rmat12d3-lcc",
                  prepared=10),
        Serve(),
    )
}


def run_window(workload, seed: int, seconds: float, workdir: Path,
               mode: str = "measure", trace_id: str = "",
               t0: float | None = None) -> dict:
    """Set up, measure (unless ``mode == "setup"``) and tear down once.

    ``t0`` is the wall time the process was started at, so ``setup_s``
    covers interpreter start and imports too. With a ``trace_id`` the
    window is the traced pass, split into an untraced and a traced half
    that see the same work: in process, every graph is called once in
    each half; on serve-mixed, blocks of requests with the same mix
    alternate between the halves. The difference between the halves is
    the tracing overhead.
    """
    t0 = time.time() if t0 is None else t0
    workdir.mkdir(parents=True, exist_ok=True)
    rec = {"workload": workload.name, "seed": seed, "mode": mode,
           "trace_id": trace_id, "ops": [], "counters": {}, "spans": []}
    try:
        workload.setup(seed, workdir)
        rec["setup_s"] = time.time() - t0
        if mode == "measure":
            tracer = Tracer(trace_id) if trace_id else None
            rec.update(workload.measure(seed, seconds, tracer))
            rec["spans"] = tracer.spans if tracer else []
    finally:
        rss = workload.teardown()  # the window's peak unless measure read one
        rec.setdefault("rss_mb", rss)
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one benchmark child process")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--trace-id", default="")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    rec = run_window(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.workdir, args.mode, args.trace_id, args.t0)
    args.out.write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
