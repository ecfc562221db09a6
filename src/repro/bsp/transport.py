"""The remote wire and placement: how superstep frames move, and where.

Every executor backend (:mod:`repro.bsp.executors`) has exactly one wire:
serial and thread pass tasks by reference, the process pool pickles
through its pipe, and the remote backend speaks the frame protocol this
module defines. Placement is the other half:
:class:`StaticPlacement` pins each pid to a worker slot by value (ints) or
stable hash (everything else), so a partition's state always lands on the
same host across supersteps — the paper's one-machine-per-partition
deployment, made explicit.

The frame protocol (``send_frame`` / ``recv_frame``) is what
:class:`~repro.bsp.executors.RemoteExecutor` and
:class:`~repro.jobs.remote.WorkerHost` speak over TCP or Unix sockets::

    frame  := header | meta | buffer*
    header := magic "REF1" (4s) | n_buffers (<I) | meta_len (<Q)
    buffer := nbytes (<Q) | raw bytes

``meta`` is a pickle-protocol-5 payload whose contiguous array buffers are
externalized via ``buffer_callback`` and written to the socket *raw*, after
the meta pickle — the packed int64 EdgeTable/ItemArray/CoarseTable columns
ship with zero re-encoding, and the receive side rebuilds the arrays as
views over the received buffers. :func:`decode_frame` parses one frame
from a contiguous block, the in-memory reference the unit tests pin.
:class:`WireStats` counters record total vs out-of-band bytes, which is
exactly the "bytes-on-wire ≤ packed columns + framing overhead" budget
``tests/jobs/test_remote.py`` holds a remote run to.
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
import threading
import zlib
from typing import Any, Iterable

import numpy as np

from ..obs import get_registry

__all__ = [
    "FrameConnection",
    "StaticPlacement",
    "WireStats",
    "connect",
    "encode_frame",
    "decode_frame",
    "parse_hosts",
    "recv_frame",
    "send_frame",
    "slot_of",
    "wire_stats",
]

_MAGIC = b"REF1"
_HEADER = struct.Struct("<4sIQ")
_BUFLEN = struct.Struct("<Q")

#: Hard ceiling on a single frame (1 GiB) — a corrupted or hostile length
#: prefix must not become an allocation bomb.
MAX_FRAME_BYTES = 1 << 30


class WireStats:
    """Thread-safe byte accounting for the frame protocol.

    ``buffer_bytes`` counts the out-of-band raw array buffers; everything
    else (headers, length prefixes, meta pickles) is framing/encoding
    overhead, which must stay under a fixed cap per message — a pickle
    blowup (arrays re-encoded element-wise into the meta) shows up there
    immediately.

    Instances are **scoped**: the module-level :data:`WIRE` counts frames
    sent by code that named no narrower accumulator (scope ``process``),
    while each remote host pool / executor / worker host owns its own
    ``WireStats(scope=...)`` — so a coordinator and an in-process degrade
    path running concurrently no longer double-count each other's frames.
    Every ``add`` is mirrored into the bound metrics registry as the
    ``repro_wire_*`` counter families labeled by scope; a run's own
    traffic is the difference of two snapshots (or two registry states).
    """

    def __init__(self, registry=None, scope: str = "process"):
        self._lock = threading.Lock()
        self.scope = scope
        self.messages = 0
        self.bytes_total = 0
        self.buffer_bytes = 0
        reg = registry if registry is not None else get_registry()
        self._m_messages = reg.counter(
            "repro_wire_messages_total", "Frames sent", labelnames=("scope",)
        ).labels(scope=scope)
        self._m_bytes = reg.counter(
            "repro_wire_bytes_total", "Frame bytes sent (header+meta+buffers)",
            labelnames=("scope",),
        ).labels(scope=scope)
        self._m_buffer_bytes = reg.counter(
            "repro_wire_buffer_bytes_total",
            "Out-of-band array buffer bytes sent", labelnames=("scope",),
        ).labels(scope=scope)

    def add(self, total: int, buffers: int) -> None:
        with self._lock:
            self.messages += 1
            self.bytes_total += int(total)
            self.buffer_bytes += int(buffers)
        self._m_messages.inc()
        self._m_bytes.inc(int(total))
        self._m_buffer_bytes.inc(int(buffers))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "messages": self.messages,
                "bytes_total": self.bytes_total,
                "buffer_bytes": self.buffer_bytes,
                "overhead_bytes": self.bytes_total - self.buffer_bytes,
            }


class _LazyWire:
    """Deferred process-wide :class:`WireStats` (created on first use).

    Binding the registry at import time would freeze the global registry
    before a test (or ``REPRO_METRICS=0``) could swap it; deferring to
    first frame keeps module import side-effect free.
    """

    _inner: WireStats | None = None
    _init_lock = threading.Lock()

    def _get(self) -> WireStats:
        if self._inner is None:
            with self._init_lock:
                if self._inner is None:
                    self._inner = WireStats(scope="process")
        return self._inner

    def add(self, total: int, buffers: int) -> None:
        self._get().add(total, buffers)

    def snapshot(self) -> dict:
        return self._get().snapshot()

    @property
    def messages(self) -> int:
        return self._get().messages

    @property
    def bytes_total(self) -> int:
        return self._get().bytes_total

    @property
    def buffer_bytes(self) -> int:
        return self._get().buffer_bytes


#: Process-wide accumulator every unscoped frame send adds to (receives
#: are counted by the sending side of the peer, so loopback runs see both
#: directions). Scoped senders pass their own :class:`WireStats` instead.
WIRE = _LazyWire()


def wire_stats() -> dict:
    """Snapshot of the process-wide frame-protocol byte counters."""
    return WIRE.snapshot()


#: ``bytes`` payloads at least this large are shipped out-of-band like
#: array buffers, instead of being copied into the meta pickle.
_BYTES_OOB_MIN = 4096


#: Persistent-id tag marking an out-of-band ``bytes`` buffer slot.
_OOB_BYTES_PID = "repro-oob-bytes"


class _FramePickler(pickle.Pickler):
    """Protocol-5 pickler that also externalizes large ``bytes`` payloads.

    NumPy arrays go out-of-band natively under protocol 5, but
    already-serialized payloads (pickled superstep *messages* riding
    inside a task result) are plain ``bytes`` — the default pickler would
    copy them into the meta, double-buffering the frame and blowing the
    fixed per-frame framing budget.

    ``reducer_override``/``dispatch_table`` are skipped for exact core
    types like ``bytes``; ``persistent_id`` is the one hook consulted for
    every object, so large ``bytes`` are diverted here into the same
    buffer list the ``buffer_callback`` fills. Pickle streams are strictly
    sequential, so encode-side appends and decode-side pulls happen in the
    same order and one shared cursor serves both kinds of slot.
    """

    def __init__(self, sink, buffers: list):
        super().__init__(sink, protocol=5, buffer_callback=buffers.append)
        self._oob = buffers

    def persistent_id(self, obj):
        if type(obj) is bytes and len(obj) >= _BYTES_OOB_MIN:
            self._oob.append(pickle.PickleBuffer(obj))
            return _OOB_BYTES_PID
        return None


class _FrameUnpickler(pickle.Unpickler):
    """Counterpart to :class:`_FramePickler`: restores oob ``bytes``."""

    def __init__(self, meta, buffers):
        self._cursor = iter(buffers)
        super().__init__(io.BytesIO(meta), buffers=self._cursor)

    def persistent_load(self, pid):
        if pid == _OOB_BYTES_PID:
            return bytes(next(self._cursor))
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def _load_meta(meta, buffers) -> Any:
    return _FrameUnpickler(bytes(meta), buffers).load()


def encode_frame(obj: Any) -> tuple[list, int, int]:
    """Serialize ``obj`` into frame parts; ``(parts, total, buffer_bytes)``.

    ``parts`` is a list of bytes-like chunks to be written in order —
    nothing is concatenated, so the raw array buffers are never copied
    into an intermediate bytestring.
    """
    buffers: list = []
    sink = io.BytesIO()
    _FramePickler(sink, buffers).dump(obj)
    meta = sink.getvalue()
    raws = [b.raw() for b in buffers]
    parts: list = [_HEADER.pack(_MAGIC, len(raws), len(meta)), meta]
    total = _HEADER.size + len(meta)
    buffer_bytes = 0
    for r in raws:
        n = r.nbytes
        parts.append(_BUFLEN.pack(n))
        parts.append(r if r.contiguous else bytes(r))
        total += _BUFLEN.size + n
        buffer_bytes += n
    return parts, total, buffer_bytes


def decode_frame(data: bytes | bytearray | memoryview) -> Any:
    """Parse one complete frame from a contiguous byte block."""
    view = memoryview(data)
    magic, n_buffers, meta_len = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad frame magic {magic!r}")
    off = _HEADER.size
    meta = view[off:off + meta_len]
    off += meta_len
    buffers = []
    for _ in range(n_buffers):
        (n,) = _BUFLEN.unpack_from(view, off)
        off += _BUFLEN.size
        # A bytearray copy keeps the rebuilt arrays writable (a read-only
        # view would poison downstream in-place merges).
        buffers.append(bytearray(view[off:off + n]))
        off += n
    return _load_meta(meta, buffers)


def send_frame(sock: socket.socket, obj: Any, stats=None) -> int:
    """Write one frame to a connected socket; returns bytes sent.

    ``stats`` names the :class:`WireStats` accumulator charged for the
    frame; ``None`` charges the process-wide :data:`WIRE`. A scoped
    accumulator is charged *instead of* (not in addition to) the global
    one — that exclusivity is the double-counting fix.
    """
    parts, total, buffer_bytes = encode_frame(obj)
    for part in parts:
        sock.sendall(part)
    (stats if stats is not None else WIRE).add(total, buffer_bytes)
    return total


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes; ``EOFError`` on a clean peer close."""
    out = bytearray(n)
    view = memoryview(out)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], n - got)
        if k == 0:
            raise EOFError("peer closed the connection")
        got += k
    return out


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame from a connected socket (blocking).

    Raises ``EOFError`` when the peer closed cleanly between frames, and
    ``ValueError`` on a corrupt header.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, n_buffers, meta_len = _HEADER.unpack(bytes(header))
    if magic != _MAGIC:
        raise ValueError(f"bad frame magic {magic!r}")
    if meta_len > MAX_FRAME_BYTES:
        raise ValueError(f"frame meta too large ({meta_len} bytes)")
    meta = _recv_exact(sock, meta_len)
    buffers = []
    for _ in range(n_buffers):
        (n,) = _BUFLEN.unpack(bytes(_recv_exact(sock, _BUFLEN.size)))
        if n > MAX_FRAME_BYTES:
            raise ValueError(f"frame buffer too large ({n} bytes)")
        buffers.append(_recv_exact(sock, n))
    return _load_meta(meta, buffers)


# ---------------------------------------------------------------------------
# Host addressing
# ---------------------------------------------------------------------------


def parse_hosts(spec) -> list[tuple[str, int]]:
    """Normalize a host spec into ``[(host, port), ...]``.

    Accepts ``"h1:p1,h2:p2"`` strings (the ``--hosts`` CLI flag), an
    iterable of ``"host:port"`` strings, ``(host, port)`` tuples, or a mix.
    ``None``/empty specs return ``[]``.
    """
    if spec is None:
        return []
    if isinstance(spec, str):
        items: Iterable = [s for s in (p.strip() for p in spec.split(",")) if s]
    else:
        items = spec
    hosts: list[tuple[str, int]] = []
    for item in items:
        if isinstance(item, str):
            host, sep, port = item.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"bad host spec {item!r}; expected 'host:port'"
                )
            hosts.append((host, int(port)))
        else:
            host, port = item
            hosts.append((str(host), int(port)))
    return hosts


def connect(addr: tuple[str, int], timeout: float | None = 10.0) -> socket.socket:
    """A connected TCP socket to ``(host, port)`` with Nagle disabled.

    ``TCP_NODELAY`` matters here for the same reason it did for the HTTP
    front end: superstep frames are small and latency-bound; batching them
    behind delayed ACKs would serialize the barrier on the network timer.
    """
    sock = socket.create_connection(addr, timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP transports
        pass
    sock.settimeout(None)
    return sock


class FrameConnection:
    """One framed peer connection: ``send``/``recv``/``request`` + counters.

    Send and receive sides carry independent locks so a pipelined caller
    (send N frames, then collect N replies) can overlap directions; callers
    multiplexing one connection across threads must serialize
    request/response pairs themselves (the remote pool gives each
    connection a single owning thread instead).
    """

    def __init__(self, sock: socket.socket, addr=None, stats=None):
        self.sock = sock
        self.addr = addr if addr is not None else _peername(sock)
        self.stats = stats  # scoped WireStats, or None for the global WIRE
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self.bytes_sent = 0
        self.frames_sent = 0
        self.frames_received = 0

    @classmethod
    def open(cls, addr: tuple[str, int],
             timeout: float | None = 10.0, stats=None) -> "FrameConnection":
        return cls(connect(addr, timeout), addr=addr, stats=stats)

    def send(self, obj: Any) -> int:
        with self._send_lock:
            n = send_frame(self.sock, obj, stats=self.stats)
        self.bytes_sent += n
        self.frames_sent += 1
        return n

    def recv(self, timeout: float | None = None) -> Any:
        """Receive one frame; ``socket.timeout`` when ``timeout`` elapses."""
        with self._recv_lock:
            if timeout is not None:
                self.sock.settimeout(timeout)
                try:
                    obj = recv_frame(self.sock)
                finally:
                    self.sock.settimeout(None)
            else:
                obj = recv_frame(self.sock)
        self.frames_received += 1
        return obj

    def request(self, obj: Any, timeout: float | None = None) -> Any:
        self.send(obj)
        return self.recv(timeout)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


def _peername(sock: socket.socket):
    try:
        return sock.getpeername()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def slot_of(pid, n_slots: int) -> int:
    """The stable worker slot for a partition id.

    Integer pids map by value (``pid % n_slots`` — consecutive partitions
    spread round-robin and the mapping is obvious in logs); other hashables
    map by CRC of their string form, which is stable across processes and
    interpreter hash randomization — ``hash()`` is not.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if isinstance(pid, (int, np.integer)) and not isinstance(pid, bool):
        return int(pid) % n_slots
    return zlib.crc32(str(pid).encode()) % n_slots


class StaticPlacement:
    """Pid → slot assignment, fixed for a run (the paper's static sharding).

    Partition state lives on the worker that computes it only if the
    mapping never moves mid-run; this object is that guarantee, and the
    single place a future dynamic/rebalancing policy would replace.
    """

    def __init__(self, n_slots: int):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots

    def slot_of(self, pid) -> int:
        return slot_of(pid, self.n_slots)

    def group(self, tasks) -> dict[int, list]:
        """Superstep tasks bucketed by slot (insertion order preserved)."""
        groups: dict[int, list] = {}
        for task in tasks:
            groups.setdefault(self.slot_of(task[0]), []).append(task)
        return groups
