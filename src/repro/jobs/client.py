"""Thin stdlib HTTP client for the serve API (used by the CLI and tests).

``http.client`` only — the client mirrors the server's no-dependency
stance. Every method returns the decoded JSON payload; HTTP error statuses
raise :class:`JobClientError` carrying the server's ``error`` message.

Connections are **persistent per thread**: the server speaks HTTP/1.1
keep-alive, and a poll loop (``wait``) reusing one TCP connection skips a
connect/teardown per request — the difference between ~126 and several
hundred status round-trips per second against a warm server. A stale
connection (server restarted, idle timeout) is retried once on a fresh
one, so callers never see the reconnect.

Resilience is opt-in through ``retry_seconds``: with a budget set, the
client rides out connection failures (server restarting after a crash)
and 429/503 rejections — honoring the server's ``Retry-After`` header —
with capped exponential backoff, until the wall-clock budget is spent,
then raises a typed :class:`~repro.errors.RetriesExhaustedError`. Pair
retried ``submit`` calls with an ``idempotency_key``: a retry whose
original request *did* land then returns the original job instead of
queueing a duplicate.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from urllib.parse import urlsplit

from ..errors import ReproError, RetriesExhaustedError

__all__ = ["JobClient", "JobClientError"]


class JobClientError(ReproError):
    """An HTTP error from the serve API (carries status and server message)."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        #: The server's ``Retry-After`` hint in seconds, when present
        #: (429 backpressure and 503 draining responses carry one).
        self.retry_after = retry_after


class JobClient:
    """Talk to a ``repro-euler serve`` instance at ``base_url``.

    Parameters
    ----------
    timeout:
        Per-request socket timeout in seconds.
    retry_seconds:
        ``None`` (default) keeps the historical behavior: one transparent
        reconnect for a stale keep-alive socket, everything else raises
        immediately. A number arms budgeted retrying: connection errors
        and 429/503 responses back off (honoring ``Retry-After``) and
        retry until the budget is exhausted, then raise
        :class:`~repro.errors.RetriesExhaustedError`.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retry_seconds: float | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry_seconds = retry_seconds
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parts.scheme!r}")
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self._prefix = parts.path.rstrip("/")
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            conn.connect()
            # Nagle + delayed ACK costs ~40ms per request on a reused
            # connection (request headers and body leave in separate
            # writes); a poll loop cannot live with that.
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Drop this thread's persistent connection (others unaffected)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _request_once(self, method: str, path: str,
                      payload: dict | None = None,
                      raw: bool = False) -> dict | str:
        """One request (with the single stale-socket reconnect)."""
        data = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, self._prefix + path, body=data,
                             headers=headers)
                resp = conn.getresponse()
                body = resp.read()  # always drain: keeps the socket reusable
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # Stale keep-alive socket (server restart, idle close):
                # retry exactly once on a fresh connection.
                self.close()
                if attempt:
                    raise
        if resp.status >= 400:
            try:
                message = json.loads(body).get("error", resp.reason)
            except ValueError:
                message = resp.reason
            retry_after = resp.getheader("Retry-After")
            try:
                retry_after = float(retry_after) if retry_after else None
            except ValueError:
                retry_after = None
            raise JobClientError(resp.status, message, retry_after=retry_after)
        return body.decode() if raw else json.loads(body)

    def _request(self, method: str, path: str,
                 payload: dict | None = None,
                 raw: bool = False) -> dict | str:
        if self.retry_seconds is None:
            return self._request_once(method, path, payload, raw=raw)
        deadline = time.monotonic() + self.retry_seconds
        delay = 0.05
        last: Exception | None = None
        while True:
            try:
                return self._request_once(method, path, payload, raw=raw)
            except JobClientError as exc:
                if exc.status not in (429, 503):
                    raise  # a real answer, not a transient rejection
                last = exc
                wait = exc.retry_after if exc.retry_after is not None else delay
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                # Server down/restarting: keep knocking within the budget.
                last = exc
                wait = delay
            if time.monotonic() + wait > deadline:
                raise RetriesExhaustedError(self.retry_seconds, last)
            time.sleep(wait)
            delay = min(delay * 2, 2.0)

    # -- API wrappers ------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition page, verbatim."""
        return self._request("GET", "/metrics", raw=True)

    def catalog(self) -> dict:
        return self._request("GET", "/catalog")

    def put_graph(self, *, path: str | None = None, edges=None,
                  n_vertices: int | None = None, name: str = "") -> dict:
        body: dict = {"name": name}
        if path is not None:
            body["path"] = str(path)
        if edges is not None:
            body["graph"] = {"edges": [[int(u), int(v)] for u, v in edges]}
            if n_vertices is not None:
                body["graph"]["n_vertices"] = int(n_vertices)
        return self._request("POST", "/graphs", body)

    def submit(self, scenario: str, *, graph_key: str | None = None,
               path: str | None = None, config: dict | None = None,
               priority: int = 0, name: str = "",
               timeout_seconds: float | None = None,
               max_retries: int | None = None,
               idempotency_key: str | None = None) -> dict:
        body: dict = {"scenario": scenario, "priority": priority, "name": name,
                      "config": config or {}}
        if timeout_seconds is not None:
            body["timeout_seconds"] = float(timeout_seconds)
        if max_retries is not None:
            body["max_retries"] = int(max_retries)
        if idempotency_key is not None:
            body["idempotency_key"] = str(idempotency_key)
        if graph_key is not None:
            body["graph_key"] = graph_key
        elif path is not None:
            body["path"] = str(path)
        else:
            raise ValueError("submit needs graph_key or path")
        return self._request("POST", "/jobs", body)

    def mutate(self, graph_key: str, *, insert=None, delete_eids=None,
               name: str = "") -> dict:
        """Apply an edge delta to a cataloged graph (``PATCH /graphs/<key>``).

        ``insert``: iterable of ``(u, v)`` pairs (endpoints beyond the
        base vertex count grow the graph); ``delete_eids``: edge ids in
        the base graph's edge list. Returns the child graph's content key
        plus one emission-job entry per watch on the base graph.
        """
        body: dict = {"name": name}
        if insert is not None:
            body["insert"] = [[int(u), int(v)] for u, v in insert]
        if delete_eids is not None:
            body["delete_eids"] = [int(e) for e in delete_eids]
        return self._request("PATCH", f"/graphs/{graph_key}", body)

    def create_watch(self, graph_key: str, scenario: str = "circuit", *,
                     config: dict | None = None, name: str = "",
                     threshold: float | None = None,
                     priority: int = 0) -> dict:
        body: dict = {"graph_key": graph_key, "scenario": scenario,
                      "config": config or {}, "name": name,
                      "priority": int(priority)}
        if threshold is not None:
            body["threshold"] = float(threshold)
        return self._request("POST", "/watches", body)

    def watches(self) -> list[dict]:
        return self._request("GET", "/watches")["watches"]

    def watch(self, watch_id: str) -> dict:
        return self._request("GET", f"/watches/{watch_id}")

    def delete_watch(self, watch_id: str) -> dict:
        return self._request("DELETE", f"/watches/{watch_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 60.0,
             poll_seconds: float = 0.1) -> dict:
        """Poll until the job is terminal; returns the final status summary."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("DONE", "FAILED", "CANCELLED"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            time.sleep(poll_seconds)
