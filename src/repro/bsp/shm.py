"""Shared-memory data plane: keyed segments, cancel flags and heartbeats.

The pre-forked serving dispatchers need one primitive: hand a block of
packed ``int64`` arrays to another process *without* serializing it
through a pipe. POSIX shared memory (:mod:`multiprocessing.shared_memory`)
provides exactly that — a named segment both sides map — and this module
wraps it with the protocols those dispatchers use:

``SharedSegmentStore``
    A keyed, refcount-audited publisher of long-lived segments: the
    catalog's graph arrays. Publish is idempotent per key; descriptors are
    ``(segment_name, offset, shape, dtype)`` tuples a worker turns back
    into arrays with :func:`attach_arrays`.

``CancelFlags`` / ``HeartbeatSlots``
    Tiny ``int64`` arrays for the pre-forked dispatchers — the parent sets
    slot ``i`` to cancel the job running in worker ``i`` (the worker polls
    it at superstep boundaries), and each worker stamps its slot's
    heartbeat at the same points.

Superstep messages do not use shared memory: a child state always crosses
as one pickle (:meth:`repro.pipeline.program.SuperstepProgram._ship_state`).

Ownership protocol (what makes the leak check pass):

* every constructor — create *and* attach — immediately unregisters the
  segment from the stdlib resource tracker (bpo-38119: the tracker
  registers on both sides and would otherwise double-unlink or warn);
  lifetime is managed here, never by the tracker;
* the *creator* unlinks: stores on :meth:`SharedSegmentStore.close` (with
  an ``atexit`` guard), flag and heartbeat arrays on their owner's
  ``close()``, and the serve-start janitor
  (:func:`sweep_stale_segments`) removes whatever a killed process left;
* unlink is idempotent (missing segments are ignored), and consumers
  never ``close()`` a mapping that still backs live array views — the
  mapping is released when the last view is garbage-collected.

Every segment name starts with :data:`SEGMENT_PREFIX`, so
``ls /dev/shm/repro_*`` (see :func:`leaked_segments`) is the whole leak
audit.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from pathlib import Path

import numpy as np

from ..obs import ambient

__all__ = [
    "SEGMENT_PREFIX",
    "shm_available",
    "SharedSegmentStore",
    "attach_arrays",
    "CancelFlags",
    "HeartbeatSlots",
    "unlink_segment",
    "leaked_segments",
    "segment_creator_pid",
    "sweep_stale_segments",
]

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _resource_tracker = None
    _shared_memory = None

#: Every segment this package creates is named ``repro_...`` so a single
#: ``/dev/shm`` glob audits for leaks.
SEGMENT_PREFIX = "repro_"

_SHM_DIR = Path("/dev/shm")
_counter = iter(range(1 << 62))
_counter_lock = threading.Lock()


def shm_available() -> bool:
    """Whether POSIX shared memory is usable on this host."""
    return _shared_memory is not None and hasattr(_shared_memory, "SharedMemory")


_tracker_filtered = False
_tracker_lock = threading.Lock()


def _install_tracker_filter() -> None:
    """Opt ``repro_*`` segments out of the stdlib resource tracker, once.

    The tracker registers segments on create *and* attach (bpo-38119); with
    several processes mapping one segment, register/unregister pairs
    interleave at the single shared tracker and the cache set under-counts —
    the tracker then either double-unlinks or warns. Python 3.13 grew
    ``SharedMemory(track=False)`` for exactly this; on 3.11 the equivalent
    is filtering our prefix out of ``register`` before the first segment is
    constructed. Lifetime is managed entirely by this module (explicit
    unlink + janitor sweeps), never by the tracker.
    """
    global _tracker_filtered
    if _resource_tracker is None or _tracker_filtered:
        return
    with _tracker_lock:
        if _tracker_filtered:
            return
        def _filtered(original):
            def call(name, rtype):
                if rtype == "shared_memory" and name.lstrip("/").startswith(
                    SEGMENT_PREFIX
                ):
                    return
                original(name, rtype)

            return call

        # unregister is filtered symmetrically: SharedMemory.unlink() calls
        # it unconditionally, and an unregister the tracker never saw a
        # register for prints a KeyError traceback in the tracker process.
        _resource_tracker.register = _filtered(_resource_tracker.register)
        _resource_tracker.unregister = _filtered(_resource_tracker.unregister)
        _tracker_filtered = True


def _next_name(tag: str) -> str:
    with _counter_lock:
        seq = next(_counter)
    return f"{SEGMENT_PREFIX}{tag}_{os.getpid():x}_{seq:x}"


def _create_segment(nbytes: int, tag: str):
    """A fresh named segment (creator-side mapping, tracker-untracked)."""
    _install_tracker_filter()
    while True:
        name = _next_name(tag)
        try:
            return _shared_memory.SharedMemory(name=name, create=True,
                                               size=max(1, nbytes))
        except FileExistsError:  # pragma: no cover - counter collision
            continue


def _attach_segment(name: str):
    _install_tracker_filter()
    return _shared_memory.SharedMemory(name=name)


class _QuietSharedMemory(
    _shared_memory.SharedMemory if _shared_memory is not None else object
):
    """A mapping whose teardown tolerates live exported views.

    The stdlib ``close()`` raises ``BufferError`` (from ``mmap.close``)
    while NumPy views still reference the pages — which is the *normal*
    state for a consumer mapping: the views own the lifetime, the wrapper
    does not. Swallowing the error lets the wrapper be garbage-collected
    silently; the pages are released when the last view dies.
    """

    def close(self):  # noqa: D102 - stdlib signature
        try:
            super().close()
        except BufferError:
            pass

    def __del__(self):
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def _adopt_consumer_mapping(shm) -> None:
    """Prepare an attached mapping to be outlived by its views.

    Closes the (now unneeded) file descriptor eagerly — the stdlib only
    closes it *after* the mmap close that raises when views are exported,
    so without this a long-lived server would leak one fd per attach —
    and swaps in the noise-free teardown class.
    """
    fd = getattr(shm, "_fd", -1)
    if isinstance(fd, int) and fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover
            pass
        shm._fd = -1
    shm.__class__ = _QuietSharedMemory


def unlink_segment(name: str) -> bool:
    """Best-effort idempotent unlink of a segment by name.

    Returns ``True`` when a segment was actually removed. On Linux this is
    a plain unlink in ``/dev/shm``; elsewhere it attaches briefly to reach
    the POSIX unlink.
    """
    if _SHM_DIR.is_dir():
        try:
            (_SHM_DIR / name).unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:  # pragma: no cover - permissions etc.
            return False
    try:  # pragma: no cover - non-Linux POSIX fallback
        shm = _attach_segment(name)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    finally:
        shm.close()
    return True


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live ``repro_*`` segments (the leak audit)."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in _SHM_DIR.glob(f"{prefix}*"))


def segment_creator_pid(name: str) -> int | None:
    """The pid baked into a ``repro_`` segment name, or ``None``.

    Every segment this package creates is named
    ``repro_<tag>_<pid:x>_<seq:x>`` (:func:`_next_name`), so the creating
    process is recoverable from the name alone — what the startup janitor
    needs to tell a stale segment from a live one.
    """
    if not name.startswith(SEGMENT_PREFIX):
        return None
    parts = name.rsplit("_", 2)
    if len(parts) != 3:
        return None
    try:
        return int(parts[1], 16)
    except ValueError:
        return None


def _pid_running(pid: int) -> bool:
    """Is a process with this pid alive (and not a zombie)?

    The janitor's liveness oracle. ``os.kill(pid, 0)`` alone has two
    failure modes this helper closes:

    * it *succeeds* for zombies — a creator that died unreaped would keep
      its segments pinned forever (a zombie has no address space; nothing
      can ever dispose them), so ``/proc/<pid>/stat`` state ``Z`` is
      treated as dead;
    * it raises ``PermissionError`` for live processes owned by another
      user — e.g. a :class:`~repro.jobs.remote.WorkerHost` started by a
      different parent/uid — which must be treated as *alive*, never
      swept.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    try:
        stat = open(f"/proc/{pid}/stat", "rb").read()
    except OSError:  # pragma: no cover - no procfs (non-Linux)
        return True
    # Field 3 is the state char; the comm field before it may contain
    # spaces/parens, so split from the *last* ')'.
    _, _, rest = stat.rpartition(b")")
    return rest.split()[:1] != [b"Z"]


def sweep_stale_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Janitor: unlink ``repro_`` segments whose creating process is dead.

    A SIGKILL'd server (or worker host) cannot run its cleanup handlers,
    so its catalog, flag and heartbeat segments stay in ``/dev/shm`` forever.
    This sweep — run at serve start — removes exactly those: segments
    whose embedded creator pid (:func:`segment_creator_pid`, baked into
    every segment name at creation) no longer runs. Liveness is judged by
    :func:`_pid_running`, which counts foreign live processes — worker
    hosts launched by a different parent, even a different user — as
    alive and unreaped zombies as dead, so concurrent servers and
    independently-started hosts on one machine are safe from each other.
    Returns the names actually removed.
    """
    swept = []
    for name in leaked_segments(prefix):
        pid = segment_creator_pid(name)
        if pid is None or pid == os.getpid():
            continue
        if _pid_running(pid):
            continue  # creator is alive: not stale
        if unlink_segment(name):
            swept.append(name)
    return swept


# ---------------------------------------------------------------------------
# Keyed long-lived segments: catalog graphs
# ---------------------------------------------------------------------------


def _array_specs(arrays: dict) -> tuple[list, int]:
    specs = []
    off = 0
    for key, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        specs.append((key, a, off, tuple(a.shape), a.dtype.str))
        off += a.nbytes
    return specs, off


def attach_arrays(descriptor: dict) -> dict:
    """Worker side: descriptor → named read-mapped arrays (zero-copy).

    The returned arrays are views over the mapped segment; the mapping
    stays alive exactly as long as any view does. Raises
    ``FileNotFoundError`` when the segment is gone (unpublished) — callers
    fall back to their durable source (catalog NPZ, raw payload bytes).
    """
    shm = _attach_segment(descriptor["segment"])
    buf = shm.buf
    out = {}
    for key, off, shape, dtype in descriptor["arrays"]:
        n = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        out[key] = np.frombuffer(buf[off:off + n], dtype=dtype).reshape(shape)
    _adopt_consumer_mapping(shm)
    return out


class SharedSegmentStore:
    """Publisher of content-keyed segments with guaranteed unlink on close.

    One store instance lives in the owning (parent) process; workers only
    ever see descriptors and attach by name. ``publish`` is idempotent per
    key; every descriptor handout counts as one attach for the ``/healthz``
    stats. ``close()`` unlinks everything and is also registered with
    ``atexit`` so an abandoned store cannot leak segments past process
    exit.
    """

    def __init__(self, tag: str = "seg"):
        self._tag = tag
        self._lock = threading.Lock()
        self._segments: dict = {}  # key -> {"shm", "descriptor", "nbytes"}
        self._attaches = 0
        self._closed = False
        atexit.register(self.close)

    def publish(self, key: str, arrays: dict) -> dict:
        """Place ``arrays`` (name → ndarray) in one segment keyed ``key``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedSegmentStore is closed")
            entry = self._segments.get(key)
            if entry is not None:
                return dict(entry["descriptor"])
            specs, total = _array_specs(arrays)
            shm = _create_segment(total, self._tag)
            buf = shm.buf
            desc_rows = []
            for name, a, off, shape, dtype in specs:
                buf[off:off + a.nbytes] = a.reshape(-1).view(np.uint8).data
                desc_rows.append((name, off, shape, dtype))
            del buf
            descriptor = {
                "segment": shm.name,
                "nbytes": total,
                "arrays": desc_rows,
            }
            self._segments[key] = {
                "shm": shm, "descriptor": descriptor, "nbytes": total,
            }
            return dict(descriptor)

    def descriptor(self, key: str) -> dict | None:
        """The key's descriptor (counted as one attach), or ``None``."""
        with self._lock:
            entry = self._segments.get(key)
            if entry is None:
                return None
            self._attaches += 1
        ambient().counter(
            "repro_shm_attaches_total",
            "Shared-segment descriptor handouts",
        ).inc()
        return dict(entry["descriptor"])

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._segments

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._segments)

    def unpublish(self, key: str) -> bool:
        with self._lock:
            entry = self._segments.pop(key, None)
        if entry is None:
            return False
        self._release(entry)
        return True

    def stats(self) -> dict:
        """Segment count, resident bytes, attach (descriptor handout) count."""
        with self._lock:
            return {
                "segments": len(self._segments),
                "bytes": sum(e["nbytes"] for e in self._segments.values()),
                "attaches": self._attaches,
            }

    @staticmethod
    def _release(entry) -> None:
        shm = entry["shm"]
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - parent-side views alive
            pass

    def close(self) -> None:
        """Unlink every published segment (idempotent; atexit-guarded)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._segments.values())
            self._segments.clear()
        for entry in entries:
            self._release(entry)
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover
            pass

    def __enter__(self) -> "SharedSegmentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Cancel flags for the pre-forked dispatchers
# ---------------------------------------------------------------------------


class CancelFlags:
    """An ``int64`` flag per dispatcher slot, shared parent ↔ workers.

    The parent (owner) creates and unlinks; workers attach by descriptor.
    Slot semantics mirror :class:`~repro.pipeline.cancel.CancelToken`:
    nonzero means "stop at your next safe point".
    """

    def __init__(self, shm, n: int, owner: bool):
        self._shm = shm
        self._owner = owner
        self.n = n
        self._flags = np.frombuffer(shm.buf, dtype=np.int64, count=n)

    @classmethod
    def create(cls, n: int) -> "CancelFlags":
        if n < 1:
            raise ValueError("need at least one slot")
        shm = _create_segment(8 * n, "flags")
        flags = cls(shm, n, owner=True)
        flags._flags[:] = 0
        return flags

    @classmethod
    def attach(cls, descriptor: dict) -> "CancelFlags":
        shm = _attach_segment(descriptor["segment"])
        return cls(shm, int(descriptor["n"]), owner=False)

    @property
    def descriptor(self) -> dict:
        return {"segment": self._shm.name, "n": self.n}

    def set(self, slot: int) -> None:
        self._flags[slot] = 1

    def clear(self, slot: int) -> None:
        self._flags[slot] = 0

    def is_set(self, slot: int) -> bool:
        return bool(self._flags[slot])

    def close(self) -> None:
        """Owner: unlink; attacher: drop the mapping reference."""
        if self._flags is None:
            return
        self._flags = None
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass


class HeartbeatSlots:
    """One monotonic-nanosecond heartbeat per dispatcher slot.

    The liveness poll in the forked dispatcher pool can tell a *dead*
    worker (pipe EOF) from a healthy one, but not a *hung* one — a worker
    spinning in a wedged superstep holds its pipe open forever. Workers
    therefore stamp ``time.monotonic_ns()`` into their slot at every
    cancel-token poll (superstep and sub-run boundaries); the parent
    compares against its own monotonic clock (``CLOCK_MONOTONIC`` is
    system-wide on Linux) and declares a worker hung once the stamp goes
    stale past the hang timeout. Same ownership protocol as
    :class:`CancelFlags`: parent creates and unlinks, workers attach.
    """

    def __init__(self, shm, n: int, owner: bool):
        self._shm = shm
        self._owner = owner
        self.n = n
        self._stamps = np.frombuffer(shm.buf, dtype=np.int64, count=n)

    @classmethod
    def create(cls, n: int) -> "HeartbeatSlots":
        if n < 1:
            raise ValueError("need at least one slot")
        shm = _create_segment(8 * n, "hb")
        slots = cls(shm, n, owner=True)
        slots._stamps[:] = 0
        return slots

    @classmethod
    def attach(cls, descriptor: dict) -> "HeartbeatSlots":
        shm = _attach_segment(descriptor["segment"])
        return cls(shm, int(descriptor["n"]), owner=False)

    @property
    def descriptor(self) -> dict:
        return {"segment": self._shm.name, "n": self.n}

    def beat(self, slot: int) -> None:
        """Stamp 'alive right now' into ``slot``."""
        self._stamps[slot] = time.monotonic_ns()

    def age_seconds(self, slot: int) -> float | None:
        """Seconds since the slot's last beat (``None``: never beaten)."""
        stamp = int(self._stamps[slot])
        if stamp == 0:
            return None
        return max(0.0, (time.monotonic_ns() - stamp) / 1e9)

    def close(self) -> None:
        """Owner: unlink; attacher: drop the mapping reference."""
        if self._stamps is None:
            return
        self._stamps = None
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass
