"""Crash-safe job journal: an append-only, fsync'd WAL of job transitions.

The durable per-job artifacts (schema v5) record jobs that *finished*;
nothing before this module recorded jobs that were merely *accepted*. A
``kill -9`` of the server therefore lost every queued job — the client
held a job id that the restarted server had never heard of. The journal
closes that hole: :meth:`~repro.jobs.engine.JobEngine.submit` appends (and
fsyncs) a ``submitted`` record **before acknowledging the submission**, so
an acknowledged job is always recoverable, and every later transition
(``started``, ``retry``, terminal) is appended as it happens.

Record format
-------------
One JSON object per line, self-checksummed::

    {"seq": 12, "ts": 1700000000.0, "event": "submitted",
     "job_id": "job-000003", ..., "crc": 2864250838}

``crc`` is the CRC-32 of the canonical JSON of every other field. Each
append is a single ``write()`` on an ``O_APPEND`` descriptor followed by
``fsync``, so records are atomic with respect to a crash: the only
possible damage is a torn *final* line, which :func:`replay` detects (bad
JSON or bad CRC) and discards. Replay of any prefix of a journal is
therefore always well-defined — the property the recovery tests pin.

Events
------
``submitted``
    Full respawn spec: scenario, graph key, wire config, priority, name,
    timeout, retry policy, and the client's optional idempotency key.
``started``
    The job left the queue (carries the attempt index).
``retry``
    A transient failure was re-enqueued (attempt index, error, backoff).
``done`` / ``failed`` / ``cancelled``
    Terminal states.
``watch_created`` / ``watch_advanced`` / ``watch_deleted``
    Watch-job lifecycle (the ``job_id`` field carries the watch id).
    Invisible to :func:`reduce_records` — a watch is not a job — but
    folded by :func:`reduce_watches` so a restarted engine rebuilds its
    watch registry: the ``watch_created`` spec plus the *latest*
    ``watch_advanced`` record pin the watch's current graph head.

:func:`reduce_records` folds a replayed record list into per-job state;
:meth:`JobJournal.checkpoint` atomically rewrites the file keeping only
live (non-terminal) jobs — plus, for each live watch, its creation spec
and latest advance — the graceful-drain compaction.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from pathlib import Path

from ..obs import MetricsRegistry
from ..pipeline.context import RunConfig

__all__ = [
    "JobJournal",
    "reduce_records",
    "reduce_watches",
    "config_to_dict",
    "config_from_dict",
    "WIRE_CONFIG_FIELDS",
    "WATCH_EVENTS",
]

#: RunConfig fields that cross the wire and the journal (pool/derived/
#: spill/cancel are deliberately process-local; ``faults`` is re-armed by
#: the engine per attempt, never persisted).
WIRE_CONFIG_FIELDS = {
    "n_parts": int,
    "partitioner": str,
    "strategy": str,
    "matching": str,
    "seed": int,
    "executor": str,
    "workers": int,
    "validate": bool,
    "verify": bool,
}

#: Fields a wire config no longer carries but a journal written before
#: their removal may hold. Accepted and ignored, so recovery still requeues
#: those jobs: ``transport`` chose how child states shipped, and every
#: value gave bit-identical circuits.
_RETIRED_CONFIG_FIELDS = frozenset({"transport"})

#: Journal events that end a job's lifecycle.
TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})

#: Watch-lifecycle events (``job_id`` carries the watch id, not a job's).
WATCH_EVENTS = frozenset({"watch_created", "watch_advanced", "watch_deleted"})

#: Journal event → registry state name.
EVENT_STATE = {
    "submitted": "QUEUED",
    "retry": "QUEUED",
    "started": "RUNNING",
    "done": "DONE",
    "failed": "FAILED",
    "cancelled": "CANCELLED",
}


def config_from_dict(payload: dict) -> RunConfig:
    """Build a :class:`RunConfig` from a wire/journal ``config`` object."""
    kwargs = {}
    for key, value in (payload or {}).items():
        if key in _RETIRED_CONFIG_FIELDS:
            continue
        caster = WIRE_CONFIG_FIELDS.get(key)
        if caster is None:
            raise ValueError(f"unknown config field {key!r}")
        if caster is bool:
            # bool("false") is True — reject anything but a JSON boolean
            # rather than silently flipping the request's meaning.
            if not isinstance(value, bool):
                raise ValueError(
                    f"config field {key!r} must be a JSON boolean, "
                    f"got {value!r}"
                )
            kwargs[key] = value
        else:
            kwargs[key] = caster(value)
    return RunConfig(**kwargs)


def config_to_dict(config: RunConfig) -> dict:
    """The wire-field view of a config (the journal's respawn spec).

    Only :data:`WIRE_CONFIG_FIELDS` survive — process-local fields (pool,
    cancel token, derived artifacts, fault plan, spill dir) are exactly
    the ones a recovered job must *re-acquire*, not replay. ``None``
    values are dropped so the round-trip through
    :func:`config_from_dict` reproduces the defaults.
    """
    out = {}
    for key in WIRE_CONFIG_FIELDS:
        value = getattr(config, key)
        if value is not None:
            out[key] = value
    return out


def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=float).encode()


def _crc(record: dict) -> int:
    return zlib.crc32(_canonical(record))


class JobJournal:
    """Append-only fsync'd journal of job transitions for one engine.

    Parameters
    ----------
    path:
        Journal file (created, with parents, on first append). A
        directory is also accepted — the conventional ``journal.wal``
        name is used inside it.
    fsync:
        ``True`` (default) makes every append durable before it returns —
        the acknowledgment guarantee. ``False`` trades crash safety for
        speed (tests, ephemeral engines).
    """

    FILENAME = "journal.wal"

    def __init__(self, path: str | Path, fsync: bool = True,
                 metrics: MetricsRegistry | None = None):
        path = Path(path)
        if path.suffix == "" and (path.is_dir() or not path.name.count(".")):
            path = path / self.FILENAME
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._seq = 0
        # Private registry by default: a throwaway journal in a test must
        # not leak appends into the process-wide registry. The engine's
        # /metrics page renders it beside its own.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_appends = self.metrics.counter(
            "repro_journal_appends_total",
            "Durable journal records appended",
        )

    # -- writing ------------------------------------------------------------

    def _ensure_open(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    def append(self, event: str, job_id: str, **fields) -> dict:
        """Durably append one transition record; returns the record."""
        with self._lock:
            self._seq += 1
            record = {"seq": self._seq, "ts": time.time(),
                      "event": event, "job_id": job_id, **fields}
            record["crc"] = _crc(record)
            fd = self._ensure_open()
            os.write(fd, json.dumps(record, default=float).encode() + b"\n")
            if self.fsync:
                os.fsync(fd)
            self._m_appends.inc()
            return record

    # -- reading ------------------------------------------------------------

    def replay(self) -> list[dict]:
        """Every intact record, in order; torn/corrupt tails are dropped.

        Pure and idempotent: replaying the same file (or any byte prefix
        of it) any number of times yields the same records. A record that
        fails JSON parsing or its CRC ends the replay — nothing after a
        damaged line is trusted.
        """
        try:
            data = self.path.read_bytes()
        except OSError:
            return []
        records: list[dict] = []
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break
            if not isinstance(record, dict):
                break
            crc = record.pop("crc", None)
            if crc != _crc(record):
                break
            records.append(record)
        if records:
            # Appends after a replay continue the sequence.
            with self._lock:
                self._seq = max(self._seq, max(r["seq"] for r in records))
        return records

    # -- compaction ---------------------------------------------------------

    def checkpoint(self, keep_job_ids=None) -> int:
        """Atomically rewrite the journal keeping only live jobs' records.

        ``keep_job_ids``: the jobs to preserve; ``None`` derives the live
        (non-terminal) set from the journal itself. Returns the number of
        records kept. The rewrite is temp-file + ``os.replace`` + fsync,
        so a crash mid-checkpoint leaves either the old or the new
        journal, never a mix.
        """
        with self._lock:
            records = []
            try:
                data = self.path.read_bytes()
            except OSError:
                data = b""
            for line in data.split(b"\n"):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    break
                crc = record.pop("crc", None) if isinstance(record, dict) else None
                if not isinstance(record, dict) or crc != _crc(record):
                    break
                records.append(record)
            if keep_job_ids is None:
                keep_job_ids = {
                    job_id for job_id, state in reduce_records(records).items()
                    if state["event"] not in TERMINAL_EVENTS
                }
            keep_job_ids = set(keep_job_ids)
            # Live watches survive compaction as their creation spec plus
            # the *latest* advance (all recover() needs to rebuild the
            # registry) — never as every mutation ever journaled, and
            # never dropped just because reduce_records cannot see them.
            watch_states = reduce_watches(records)
            live_watches = {
                wid for wid, state in watch_states.items()
                if not state["deleted"] and state["spec"] is not None
            }
            last_advance: dict[str, int] = {}
            for r in records:
                if (r.get("event") == "watch_advanced"
                        and r["job_id"] in live_watches):
                    last_advance[r["job_id"]] = r["seq"]
            kept = []
            for r in records:
                event = r.get("event")
                if event in WATCH_EVENTS:
                    if r["job_id"] not in live_watches:
                        continue
                    if (event == "watch_advanced"
                            and r["seq"] != last_advance.get(r["job_id"])):
                        continue
                    kept.append(r)
                elif r["job_id"] in keep_job_ids:
                    kept.append(r)
            tmp = self.path.with_suffix(".tmp")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                for record in kept:
                    record = dict(record)
                    record["crc"] = _crc(record)
                    fh.write(json.dumps(record, default=float).encode() + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            if self._fd is not None:
                # The old inode is gone; reopen on next append.
                os.close(self._fd)
                self._fd = None
            return len(kept)

    # -- lifecycle ----------------------------------------------------------

    def stats(self) -> dict:
        """Journal path, appended-record count, and on-disk size."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {"path": str(self.path),
                "appended": int(self._m_appends.value),
                "bytes": size, "fsync": self.fsync}

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def reduce_records(records: list[dict]) -> dict[str, dict]:
    """Fold replayed records into per-job recovery state.

    Returns ``job_id → state`` where each state dict carries:

    * ``event`` — the job's last journaled event (its state at crash);
    * ``spec`` — the ``submitted`` record (the respawn spec), when seen;
    * ``attempt`` — the highest attempt index journaled (0-based);
    * ``error`` — the last recorded error, if any.

    Records for a job whose ``submitted`` record was compacted away (or
    lost to a torn head) still reduce — they just carry no spec, and the
    engine treats them as unrecoverable.
    """
    jobs: dict[str, dict] = {}
    for record in records:
        job_id = record.get("job_id")
        event = record.get("event")
        if not job_id or event not in EVENT_STATE:
            continue
        state = jobs.setdefault(
            job_id, {"event": None, "spec": None, "attempt": 0, "error": None}
        )
        state["event"] = event
        if event == "submitted":
            state["spec"] = record
        if "attempt" in record:
            state["attempt"] = max(state["attempt"], int(record["attempt"]))
        if record.get("error"):
            state["error"] = record["error"]
    return jobs


def reduce_watches(records: list[dict]) -> dict[str, dict]:
    """Fold replayed records into per-watch recovery state.

    Returns ``watch_id → state`` where each state dict carries:

    * ``spec`` — the ``watch_created`` record (scenario, config, name,
      threshold), when seen;
    * ``graph_key`` — the watch's current graph head (the latest
      ``watch_advanced`` key, else the created key);
    * ``mutations`` — how many advances were journaled;
    * ``last_job_id`` — the last emission job id, if any;
    * ``deleted`` — whether a ``watch_deleted`` record closed the watch.
    """
    watches: dict[str, dict] = {}
    for record in records:
        wid = record.get("job_id")
        event = record.get("event")
        if not wid or event not in WATCH_EVENTS:
            continue
        state = watches.setdefault(
            wid, {"spec": None, "graph_key": None, "mutations": 0,
                  "last_job_id": None, "deleted": False},
        )
        if event == "watch_created":
            state["spec"] = record
            state["graph_key"] = record.get("graph_key")
            state["deleted"] = False
        elif event == "watch_advanced":
            state["graph_key"] = record.get("graph_key") or state["graph_key"]
            state["mutations"] += 1
            if record.get("emitted"):
                state["last_job_id"] = record["emitted"]
        elif event == "watch_deleted":
            state["deleted"] = True
    return watches
