"""Serving front end: a stdlib JSON-over-HTTP API around the job engine.

No framework, no new dependencies. All route logic lives in
:class:`JobApi` — a transport-independent ``(method, path, body) →
(status, payload)`` mapping — served by ``http.server.ThreadingHTTPServer``
(one thread per connection, HTTP/1.1 keep-alive) through
:class:`_JobRequestHandler`, a thin adapter that frames the body and
encodes the reply.

The API surface:

==========  =======================  ===========================================
Method      Path                     Meaning
==========  =======================  ===========================================
``GET``     ``/healthz``             liveness + job counts per state + limits
                                     + dispatcher mode + segment-store stats
``GET``     ``/catalog``             catalog entries + hit/miss/eviction stats
``POST``    ``/jobs``                submit a job → ``{"job_id": ...}``; **429**
                                     once the queue's ``max_queued`` bound is hit
``POST``    ``/graphs``              catalog a graph (inline edges or npz path)
``GET``     ``/jobs``                retained job summaries
``GET``     ``/jobs/<id>``           status summary (artifact fallback for jobs
                                     evicted from the bounded registry)
``GET``     ``/jobs/<id>/result``    full schema-v5 job artifact (404 until
                                     terminal; **410** when the result was
                                     evicted with no durable artifact)
``DELETE``  ``/jobs/<id>``           cancel: queued jobs on the spot, RUNNING
                                     jobs cooperatively (next safe point)
``PATCH``   ``/graphs/<key>``        apply an edge delta (``insert`` /
                                     ``delete_eids``) → the child graph's
                                     content key; watches on the base graph
                                     each re-emit a repaired result
``POST``    ``/watches``             pin a (graph, scenario) pair: every
                                     mutation re-emits an incrementally
                                     repaired result job
``GET``     ``/watches[/<id>]``      watch registry / one watch's status
``DELETE``  ``/watches/<id>``        tear a watch down
==========  =======================  ===========================================

Submission bodies name the graph one of three ways: ``graph_key`` (already
cataloged), ``graph`` (inline ``{"n_vertices", "edges": [[u, v], ...]}``),
or ``path`` (a server-local edge-list/NPZ file). Config fields mirror
:class:`~repro.pipeline.context.RunConfig`; job-level fields are
``priority`` (clamped to ±``MAX_WIRE_PRIORITY`` — one client cannot starve
the queue with an absurd value) and ``timeout_seconds`` (run deadline).
"""

from __future__ import annotations

import json
import signal
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from ..deltas import GraphDelta
from ..errors import (
    EngineDrainingError,
    FaultInjectedError,
    JobError,
    QueueFullError,
    ReproError,
)
from ..faults import FaultPlan
from ..graph.graph import Graph
from ..graph.io import load_edge_list, load_npz
from ..scenarios.base import scenario_names
from .engine import JobEngine
# Wire-config parsing lives with the journal now (the same respawn spec
# crosses both the HTTP wire and the WAL); re-exported here for the
# established import path.
from .journal import WIRE_CONFIG_FIELDS as _CONFIG_FIELDS  # noqa: F401
from .journal import config_from_dict
from .queue import DONE, TERMINAL_STATES

__all__ = ["JobApi", "TextResponse", "make_server", "serve_forever",
           "config_from_dict", "MAX_WIRE_PRIORITY"]

#: Wire-level priority clamp: submissions outside ±this are clamped, so a
#: single client cannot monopolize (or bury) the priority queue.
MAX_WIRE_PRIORITY = 100


class TextResponse(str):
    """A plain-text route payload (e.g. ``GET /metrics``).

    Routes normally return JSON dicts; a ``TextResponse`` tells the HTTP
    handler to ship the string verbatim with ``content_type`` instead of
    JSON-encoding it.
    """

    content_type = "text/plain; version=0.0.4; charset=utf-8"


def _graph_from_body(body: dict, engine: JobEngine) -> tuple[Graph | None, str | None, str]:
    """Resolve a request body to ``(graph, graph_key, name)``.

    Exactly one of ``graph``/``graph_key`` is non-None. The graph is *not*
    cataloged here — the job-submission route hands the object straight to
    :meth:`JobEngine.submit`, whose ``put(..., pin=True)`` catalogs and
    pins in one lock hold (no catalog-then-pin TOCTOU window for a
    concurrent budget eviction to exploit); ``POST /graphs`` catalogs it
    itself.
    """
    name = str(body.get("name", ""))
    if "graph_key" in body:
        key = str(body["graph_key"])
        if key not in engine.catalog:
            raise KeyError(f"unknown graph key {key!r}")
        return None, key, name
    if "graph" in body:
        spec = body["graph"]
        edges = np.asarray(spec.get("edges", []), dtype=np.int64).reshape(-1, 2)
        n_vertices = int(
            spec.get(
                "n_vertices", int(edges.max()) + 1 if edges.size else 0
            )
        )
        return Graph(n_vertices, edges[:, 0], edges[:, 1]), None, name
    if "path" in body:
        path = Path(str(body["path"]))
        if path.suffix == ".npz":
            g, _ = load_npz(path)
        else:
            g = load_edge_list(path)
        return g, None, name or path.name
    raise ValueError("request must name a graph: graph_key, graph, or path")


class JobApi:
    """Transport-independent routing: ``(method, path, body) → (status, payload)``.

    The HTTP handler delegates here, so route behavior — including the
    exception → status mapping — is defined exactly once. ``handle`` never
    raises: every failure maps to a JSON error payload (429 for
    backpressure, 404 for unknown resources, 400 for bad requests, 500 as
    the defensive catch-all).
    """

    def __init__(self, engine: JobEngine):
        self.engine = engine
        # The counter lives in the engine's registry, so /metrics reports
        # the HTTP traffic beside the engine's own families.
        self._responses = engine.metrics.counter(
            "repro_http_responses_total",
            "HTTP responses by method and status",
            labelnames=("method", "status"),
        )

    def handle(self, method: str, path: str, body: bytes = b"") -> tuple[int, dict]:
        status, payload = self._handle_inner(method, path, body)
        self._responses.labels(method=method, status=str(status)).inc()
        return status, payload

    def _handle_inner(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict]:
        try:
            payload = json.loads(body) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            parts = [p for p in path.split("?", 1)[0].split("/") if p]
            name = "_" + method + "_" + "_".join(parts[:1] or ["root"])
            handler = getattr(self, name, None)
            if handler is None:
                return 404, {"error": f"no route {method} {path}"}
            return handler(parts, payload, path)
        except QueueFullError as exc:
            # Backpressure: overload degrades into fast typed rejections.
            return 429, {"error": str(exc), "max_queued": exc.max_queued}
        except EngineDrainingError as exc:
            # Graceful shutdown in progress: tell clients to come back
            # after the restart instead of failing them permanently.
            return 503, {"error": str(exc), "draining": True}
        except FaultInjectedError as exc:
            # An armed chaos fault (e.g. delta_apply on a PATCH) is a
            # server-side failure, not a client error — and must not hide
            # behind the JobError → 404 mapping below.
            return 500, {"error": str(exc), "fault": True}
        except (KeyError, JobError) as exc:
            return 404, {"error": str(exc)}
        except (ValueError, ReproError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": repr(exc)}

    # -- routes ------------------------------------------------------------

    def _GET_healthz(self, parts, body, path):  # noqa: N802
        engine = self.engine
        queue = engine.queue
        return 200, {
            "status": "ok",
            "jobs": queue.counts(),  # O(1): lifetime totals per state
            "retained_jobs": len(queue.jobs()),
            "dispatch": {
                "mode": engine.dispatcher,
                "dispatchers": engine.dispatchers,
                "pool": engine.pool.name if engine.pool is not None else None,
            },
            "segments": engine.segment_stats(),
            "limits": {
                "retention": queue.retention,
                "max_queued": queue.max_queued,
                "keep_results": engine.keep_results,
                "default_timeout": engine.default_timeout,
                "default_max_retries": engine.default_max_retries,
            },
            # Fault-tolerance telemetry: draining flag, retry/degradation
            # counters, worker supervision, journal stats, recovery
            # outcome, and the startup janitor's swept stale segments.
            "fault_tolerance": engine.supervisor_stats(),
        }

    def _GET_metrics(self, parts, body, path):  # noqa: N802
        # Prometheus text exposition (0.0.4). The engine bridges dict-view
        # stats (queue counts, segments, catalog, breakers) into gauges at
        # scrape time, then renders the whole registry.
        return 200, TextResponse(self.engine.render_metrics())

    def _GET_catalog(self, parts, body, path):  # noqa: N802
        return 200, {
            "entries": self.engine.catalog.entries(),
            "stats": dict(self.engine.catalog.stats),
            "disk_bytes": self.engine.catalog.disk_bytes(),
        }

    def _POST_graphs(self, parts, body, path):  # noqa: N802
        graph, key, name = _graph_from_body(body, self.engine)
        if graph is not None:
            key = self.engine.catalog.put(graph, name=name)
        return 200, {"graph_key": key, "name": name}

    def _POST_jobs(self, parts, body, path):  # noqa: N802
        scenario = str(body.get("scenario", "circuit"))
        if scenario not in scenario_names():
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from {scenario_names()}"
            )
        priority = max(-MAX_WIRE_PRIORITY,
                       min(MAX_WIRE_PRIORITY, int(body.get("priority", 0))))
        timeout = body.get("timeout_seconds")
        max_retries = body.get("max_retries")
        trace_id = body.get("trace_id")
        trace_id = str(trace_id) if trace_id else None
        idem_key = body.get("idempotency_key")
        idem_key = str(idem_key) if idem_key else None
        if idem_key:
            existing = self.engine.idempotent_job_id(idem_key)
            if existing is not None:
                # Client retry of an already-accepted submission: answer
                # with the original job (registry, artifact, or journal —
                # whichever still knows it) instead of running it twice.
                try:
                    summary = self.engine.job_summary(existing)
                    return 200, {"job_id": existing,
                                 "state": summary["state"],
                                 "graph_key": summary["graph_key"],
                                 "deduplicated": True}
                except JobError:
                    pass  # aged out everywhere; accept as a fresh job
        config_payload = dict(body.get("config", {}) or {})
        faults_text = config_payload.pop("faults", None)
        config = config_from_dict(config_payload)
        if faults_text:
            # The fault-injection harness rides the wire config too
            # (grammar: "kind@at=2,attempts=1;...").
            config = replace(config, faults=FaultPlan.parse(str(faults_text)))
        graph, key, name = _graph_from_body(body, self.engine)
        handle = self.engine.submit(
            scenario,
            graph=graph,
            graph_key=key,
            config=config,
            priority=priority,
            name=name,
            timeout_seconds=None if timeout is None else float(timeout),
            max_retries=None if max_retries is None else int(max_retries),
            idempotency_key=idem_key,
            trace_id=trace_id,
        )
        job = self.engine.job(handle.job_id)
        return 200, {"job_id": handle.job_id,
                     "state": handle.state, "graph_key": job.graph_key,
                     "trace_id": job.trace_id}

    def _GET_jobs(self, parts, body, path):  # noqa: N802
        if len(parts) == 1:
            return 200, {"jobs": [j.summary() for j in self.engine.jobs()]}
        job_id = parts[1]
        if len(parts) == 2:
            # Registry first, durable artifact index for evicted jobs —
            # GET /jobs/<id> answers for any job ever run.
            return 200, self.engine.job_summary(job_id)
        if parts[2] == "result":
            try:
                job = self.engine.job(job_id)
            except JobError:
                doc = self.engine.artifact_doc(job_id)
                if doc is None:
                    raise
                return 200, doc  # evicted from the registry => terminal
            if job.state not in TERMINAL_STATES:
                return 404, {"error": f"job {job.id} is {job.state}; "
                                      "no result yet", "state": job.state}
            from ..bench.report_io import job_to_dict

            doc = job_to_dict(job)
            if doc["scenario_result"] is None and job.state == DONE:
                # The in-memory result was trimmed (keep_results bound);
                # the durable artifact has the full document.
                full = (self.engine.artifact_doc(job.id)
                        if job.artifact_path else None)
                if full is None:
                    return 410, {
                        "error": f"job {job.id} finished but its result was "
                                 "evicted from memory (keep_results) and no "
                                 "durable artifact exists; re-run the job or "
                                 "serve with --artifact-dir",
                        "state": job.state,
                    }
                doc = full
            return 200, doc
        return 404, {"error": f"no route GET {path}"}

    def _DELETE_jobs(self, parts, body, path):  # noqa: N802
        if len(parts) != 2:
            raise ValueError("DELETE /jobs/<id>")
        cancelled = self.engine.cancel(parts[1])
        return 200, {"job_id": parts[1], "cancelled": cancelled,
                     "state": self.engine.job_summary(parts[1])["state"]}

    # -- dynamic graphs ----------------------------------------------------

    def _PATCH_graphs(self, parts, body, path):  # noqa: N802
        if len(parts) != 2:
            raise ValueError("PATCH /graphs/<key>")
        base_key = parts[1]
        graph = self.engine.catalog.get(base_key)  # KeyError → 404
        insert = np.asarray(
            body.get("insert", []), dtype=np.int64
        ).reshape(-1, 2)
        delete_eids = np.asarray(body.get("delete_eids", []), dtype=np.int64)
        if insert.size == 0 and delete_eids.size == 0:
            raise ValueError(
                "mutation must insert or delete at least one edge"
            )
        delta = GraphDelta.from_edits(
            graph,
            insert=insert if insert.size else None,
            delete_eids=delete_eids if delete_eids.size else None,
        )
        faults_text = body.get("faults")
        faults = FaultPlan.parse(str(faults_text)) if faults_text else None
        return 200, self.engine.mutate_graph(
            base_key, delta, name=str(body.get("name", "")), faults=faults
        )

    def _POST_watches(self, parts, body, path):  # noqa: N802
        scenario = str(body.get("scenario", "circuit"))
        if scenario not in scenario_names():
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from {scenario_names()}"
            )
        if "graph_key" not in body:
            raise ValueError(
                "watch needs graph_key (POST /graphs catalogs one)"
            )
        priority = max(-MAX_WIRE_PRIORITY,
                       min(MAX_WIRE_PRIORITY, int(body.get("priority", 0))))
        return 200, self.engine.add_watch(
            str(body["graph_key"]),
            scenario=scenario,
            config=config_from_dict(dict(body.get("config", {}) or {})),
            name=str(body.get("name", "")),
            threshold=float(body.get("threshold", 0.5)),
            priority=priority,
        )

    def _GET_watches(self, parts, body, path):  # noqa: N802
        if len(parts) == 1:
            return 200, {"watches": self.engine.watches()}
        return 200, self.engine.watch_summary(parts[1])

    def _DELETE_watches(self, parts, body, path):  # noqa: N802
        if len(parts) != 2:
            raise ValueError("DELETE /watches/<id>")
        self.engine.delete_watch(parts[1])
        return 200, {"watch_id": parts[1], "deleted": True}


class _JobRequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: reads the body, delegates to :class:`JobApi`."""

    server_version = "repro-euler-serve/1"
    protocol_version = "HTTP/1.1"  # keep-alive for warm clients
    # Keep-alive makes Nagle toxic: a response written as header+body
    # chunks stalls ~40ms against delayed ACKs, once per request. With
    # TCP_NODELAY the poll loop runs at loopback speed.
    disable_nagle_algorithm = True
    #: Set by :func:`make_server` on the handler subclass.
    api: JobApi = None
    quiet: bool = True

    def log_message(self, fmt, *args):  # noqa: D102 - stdlib signature
        if not self.quiet:
            super().log_message(fmt, *args)

    def _send(self, status: int, payload: dict, close: bool = False) -> None:
        if isinstance(payload, str):
            # TextResponse (e.g. /metrics): ship verbatim, not JSON.
            content_type = getattr(payload, "content_type", "text/plain")
            body = payload.encode()
        else:
            content_type = "application/json"
            body = json.dumps(payload, default=float).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            if status in (429, 503):
                self.send_header("Retry-After", "1")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")  # sets close_connection
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response. There is nobody to answer —
            # re-entering _send(500, ...) on the dead socket would only
            # spray a stdlib traceback from the handler thread.
            self.close_connection = True

    def _route(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # Without a body length the stream has no next request boundary
            # (and rfile.read(-1) would block until the client hangs up):
            # answer, then drop the connection.
            self._send(400, {"error": "Content-Length must be a "
                                      "non-negative integer"}, close=True)
            return
        try:
            body = self.rfile.read(length) if length else b""
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # disconnected while sending the body
            return
        self._send(*self.api.handle(method, self.path, body))

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self):  # noqa: N802
        self._route("POST")

    def do_DELETE(self):  # noqa: N802
        self._route("DELETE")

    def do_PATCH(self):  # noqa: N802
        self._route("PATCH")


def make_server(
    engine: JobEngine, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> ThreadingHTTPServer:
    """Build (but do not start) the threaded HTTP server on ``host:port``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (tests and the in-process example do).
    """
    handler = type(
        "BoundJobRequestHandler",
        (_JobRequestHandler,),
        {"api": JobApi(engine), "quiet": quiet},
    )
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(
    engine: JobEngine,
    host: str,
    port: int,
    quiet: bool = False,
    drain_timeout: float = 30.0,
) -> None:
    """Run the API until interrupted, then close the engine cleanly.

    ``SIGTERM`` triggers a graceful drain: new submissions get 503 (with
    ``Retry-After``), running jobs get up to ``drain_timeout`` seconds to
    finish, the journal is checkpointed, and still-queued jobs stay
    journaled for the next start's recovery. ``SIGINT``/Ctrl-C keeps the
    historical fast path (cancel queued jobs, close).
    """
    server = make_server(engine, host, port, quiet=quiet)
    drained = threading.Event()

    def _drain_and_stop() -> None:
        stats = engine.drain(timeout=drain_timeout)
        drained.set()
        if not quiet:
            print(f"repro-euler serve: drained "
                  f"(finished={stats['drained']}, "
                  f"queued_left={stats['remaining_queued']}, "
                  f"journal_kept={stats['journal_records_kept']})")
        server.shutdown()

    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        if drained.is_set():
            return
        if not quiet:
            print(f"repro-euler serve: SIGTERM — draining "
                  f"(up to {drain_timeout:g}s)...")
        # Drain off the signal handler: engine.drain blocks, and a signal
        # handler must not (the server loop still has requests to 503).
        threading.Thread(target=_drain_and_stop, daemon=True,
                         name="serve-drain").start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (tests drive serve_forever directly)
    addr = server.server_address
    # Flushed: launchers read the bound port from this line on a pipe.
    print(f"repro-euler serve: listening on http://{addr[0]}:{addr[1]} "
          f"(dispatcher={engine.dispatcher}x{engine.dispatchers}, "
          f"pool={engine.pool.name if engine.pool else 'none'}, "
          f"catalog={engine.catalog.root})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        # After a drain, queued leftovers are journaled on purpose —
        # cancelling them here would mark them terminal and forfeit the
        # next start's recovery.
        engine.close(cancel_queued=not drained.is_set())
